"""Ablation: how much does order-equivalence pruning (Section 3.3) save?

The paper proposes ring cost + pair percentages to recognize redundant
orders before running them.  This benchmark measures the pruning factor
on the evaluation hierarchies and verifies the pruning is sound on the
simulator: orders in one class produce identical single-communicator
alltoall times.  It also times the engine's result-reuse key,
``placement_key``, over all 120 LUMI orders (a greedy relabeling took
about two minutes there; the closed form takes milliseconds).
"""

from __future__ import annotations

import math
import time

from repro.bench.figures import HYDRA16, LUMI16
from repro.bench.microbench import run_microbench
from repro.core.equivalence import equivalence_classes, placement_key
from repro.core.orders import all_orders
from repro.topology.machines import hydra


def test_pruning_factor_hydra(once):
    classes = once(equivalence_classes, HYDRA16, 16)
    n_orders = math.factorial(HYDRA16.depth)
    print(f"\nHydra [[16,2,2,8]], comm 16: {n_orders} orders -> "
          f"{len(classes)} equivalence classes "
          f"(pruning x{n_orders / len(classes):.1f})")
    assert len(classes) < n_orders


def test_pruning_factor_lumi(once):
    classes = once(equivalence_classes, LUMI16, 16)
    n_orders = math.factorial(LUMI16.depth)
    print(f"\nLUMI [[16,2,4,2,8]], comm 16: {n_orders} orders -> "
          f"{len(classes)} classes (pruning x{n_orders / len(classes):.1f})")
    assert len(classes) < n_orders


def test_placement_key_lumi(once):
    """The engine's pruning key on Fig 5's machine: 120 orders, 29 classes."""

    def group() -> dict:
        classes: dict = {}
        for order in all_orders(LUMI16.depth):
            classes.setdefault(placement_key(LUMI16, order, 16), []).append(order)
        return classes

    t0 = time.perf_counter()
    classes = once(group)
    elapsed = time.perf_counter() - t0
    n_orders = math.factorial(LUMI16.depth)
    print(f"\nLUMI [[16,2,4,2,8]], comm 16: placement_key over {n_orders} "
          f"orders -> {len(classes)} classes in {elapsed * 1e3:.2f} ms")
    assert len(classes) == 29
    assert elapsed < 1.0


def test_equivalent_orders_time_identically(once):
    """Soundness: same-signature orders give the same collective time."""
    topo = hydra(16)
    classes = once(equivalence_classes, HYDRA16, 16)
    checked = 0
    for sigs in classes.values():
        if len(sigs) < 2:
            continue
        times = [
            run_microbench(
                topo, HYDRA16, s.order, 16, "alltoall", 4e6,
                algorithm="pairwise",
            ).duration_single
            for s in sigs[:3]
        ]
        spread = (max(times) - min(times)) / min(times)
        assert spread < 0.02, (
            f"class {sigs[0].key} times diverge by {spread:.1%}: "
            f"{[s.order for s in sigs[:3]]}"
        )
        checked += 1
        if checked >= 5:
            break
    assert checked > 0
