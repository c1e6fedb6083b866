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
from hypothesis import example, given, settings  # noqa: E402
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


#: ``(radices, comm_size)`` grids whose placement classes merge orders,
#: so the audit has members to compare; the last two are ragged (a
#: radix-3 level against communicators of 2 and 3).
AUDIT_GRIDS = [
    ((2, 2, 4), 2),
    ((2, 2, 4), 4),
    ((4, 2, 2), 2),
    ((2, 4, 2), 4),
    ((2, 2, 2, 3), 2),
    ((3, 2, 2, 2), 3),
]


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(AUDIT_GRIDS),
    st.sampled_from(["round", "logp"]),
    st.sampled_from(["alltoall", "allgather", "allreduce"]),
    st.sampled_from([16e3, 64e6]),
)
@example(((2, 2, 2, 3), 2), "round", "alltoall", 1e6)
def test_equal_placement_key_means_equal_time(grid, model, collective, total_bytes):
    """Orders sharing a ``placement_key`` time identically.

    The audit mode evaluates every order and raises
    :class:`EngineAuditError` when a class member's result leaves
    ``AUDIT_RTOL`` of its representative's, on a machine whose levels
    all have different link parameters.
    """
    radices, comm_size = grid
    names = tuple(f"level{i}" for i in range(len(radices)))
    h = Hierarchy(radices, names=names)
    topo = generic_cluster(radices, names=names)
    params = collective_params(collective, comm_size, total_bytes)
    engine = SweepEngine(prune=False)
    engine.evaluate_many(
        [
            EvalRequest(
                model=model,
                topology=topo,
                hierarchy=h,
                order=order,
                comm_size=comm_size,
                workload="collective",
                workload_params=params,
            )
            for order in all_orders(h.depth)
        ]
    )
    assert engine.stats.audited > 0
