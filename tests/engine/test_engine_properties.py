"""Property test: engine results are invariant to jobs and cache state.

The determinism contract of :mod:`repro.engine` is that memoization,
equivalence pruning, the worker pool, and the disk tier change *cost*,
never *results*: for any sampled sweep configuration, ``jobs=1`` and
``jobs=4`` runs, cold and warm caches, and pruned and audit modes must
produce bitwise-identical outputs.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.hierarchy import Hierarchy  # noqa: E402
from repro.core.orders import all_orders  # noqa: E402
from repro.engine import EvalRequest, SweepEngine  # noqa: E402
from repro.topology.machines import generic_cluster  # noqa: E402
from repro.workloads import collective_params

RADICES = [(2, 2, 4), (4, 2, 2), (2, 4, 2)]

configs = st.fixed_dictionaries(
    {
        "radices": st.sampled_from(RADICES),
        "comm_size": st.sampled_from([2, 4, 8, 16]),
        "collective": st.sampled_from(["alltoall", "allgather", "allreduce"]),
        "total_bytes": st.sampled_from([16e3, 1e6, 64e6]),
    }
)


def _requests(cfg) -> list[EvalRequest]:
    h = Hierarchy(cfg["radices"], names=("node", "socket", "core"))
    topo = generic_cluster(cfg["radices"], names=("node", "socket", "core"))
    return [
        EvalRequest(
            model="round",
            topology=topo,
            hierarchy=h,
            order=order,
            comm_size=cfg["comm_size"],
            workload="collective",
            workload_params=collective_params(
                cfg["collective"], cfg["comm_size"], cfg["total_bytes"],
            ),
        )
        for order in all_orders(h.depth)
    ]


@settings(max_examples=15, deadline=None)
@given(configs)
def test_jobs_and_cache_state_never_change_results(tmp_path_factory, cfg):
    reqs = _requests(cfg)
    cache_dir = tmp_path_factory.mktemp("sweep-cache")

    serial = SweepEngine(jobs=1).evaluate_many(reqs)
    parallel = SweepEngine(jobs=4).evaluate_many(reqs)
    cold_disk = SweepEngine(jobs=4, cache_dir=cache_dir)
    cold = cold_disk.evaluate_many(reqs)
    warm_disk = SweepEngine(jobs=4, cache_dir=cache_dir)
    warm = warm_disk.evaluate_many(reqs)
    audit = SweepEngine(jobs=1, prune=False).evaluate_many(reqs)

    assert serial == parallel
    assert serial == cold
    assert serial == warm
    assert serial == audit
    # The warm run recalled everything; the audit run pruned nothing.
    assert warm_disk.stats.evaluated == 0
    assert warm_disk.stats.cache_hit_rate == 1.0
