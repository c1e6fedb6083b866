"""Baseline comparison: space-filling curves vs mixed-radix orders.

Section 2 positions the paper against SFC-based mappings (Kwon et al.,
Li et al.): the mixed-radix technique "enumerates all computing units in a
hierarchical level before going to the next level" while curves interleave
levels.  This benchmark quantifies that on the evaluation machine:

- Morton/Hilbert enumerations never beat the best mixed-radix order on the
  concurrent-subcommunicator alltoall (they cannot fully pack a
  communicator into one level), and
- their ring costs sit between the packed and spread extremes.
"""

from __future__ import annotations

import numpy as np

from repro.bench.figures import HYDRA16
from repro.core.metrics import (
    pair_level_percentages_of_coords,
    ring_cost_of_coords,
)
from repro.core.mixed_radix import decompose_many
from repro.core.orders import all_orders
from repro.core.reorder import RankReordering
from repro.core.sfc import hilbert_enumeration, morton_enumeration
from repro.ir import collective_program, get_backend
from repro.topology.machines import hydra

COMM = 16
NBYTES = 16e6


def _members_from_new_rank(new_rank: np.ndarray) -> np.ndarray:
    inv = np.empty(new_rank.size, dtype=np.int64)
    inv[new_rank] = np.arange(new_rank.size)
    return inv.reshape(-1, COMM)


def _all_comms_time(topology, members: np.ndarray) -> float:
    program = collective_program("alltoall", COMM, NBYTES, algorithm="pairwise")
    return get_backend("round").run(program, topology, members).time


def test_sfc_vs_mixed_radix_orders(once):
    topology = hydra(16)

    def evaluate():
        results = {}
        for name, enum in (
            ("morton", morton_enumeration),
            ("hilbert", hilbert_enumeration),
        ):
            members = _members_from_new_rank(enum(HYDRA16))
            coords = decompose_many(HYDRA16, members[0])
            results[name] = (
                _all_comms_time(topology, members),
                ring_cost_of_coords(coords),
                pair_level_percentages_of_coords(coords),
            )
        for order in all_orders(4):
            r = RankReordering(HYDRA16, order, COMM)
            t = _all_comms_time(topology, r.all_comm_members())
            label = "-".join(map(str, order))
            coords = decompose_many(HYDRA16, r.comm_members(0))
            results[label] = (
                t,
                ring_cost_of_coords(coords),
                pair_level_percentages_of_coords(coords),
            )
        return results

    results = once(evaluate)
    print("\nSFC baselines vs mixed-radix orders (32 concurrent 16-rank "
          "alltoalls, 16 MB):")
    for name, (t, rc, pcts) in sorted(results.items(), key=lambda kv: kv[1][0]):
        pct = ", ".join(f"{p:.0f}" for p in pcts)
        print(f"  {name:<10} {t * 1e3:8.3f} ms  ring {rc:>3}  pairs [{pct}]")

    mr_times = [t for k, (t, _, _) in results.items() if k not in ("morton", "hilbert")]
    best_mixed = min(mr_times)
    for curve in ("morton", "hilbert"):
        t, rc, pcts = results[curve]
        # The curves interleave levels: they cannot beat the best
        # level-packing order under full contention...
        assert t >= best_mixed * 0.999, curve
        # ...but they do preserve locality far better than the fully
        # spread order (their pair percentages lean inward).
        assert t <= results["0-1-2-3"][0], curve
