"""Chunks: the supervisor's unit of work.

Whole placement groups of ``round``/``logp`` requests are packed into
chunks and scored by one batch-kernel call per model and chunk; every
other request is a chunk of one.  Where a chunk boundary falls never
changes a result, and a failed chunk of several requests splits into
chunks of one that are charged exactly what per-request tasks would be.
"""

from __future__ import annotations

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.orders import all_orders
from repro.engine import EvalRequest, SweepEngine
from repro.engine import chaos
from repro.engine.chaos import CHAOS_ENV
from repro.engine.evaluators import evaluate_chunk, evaluate_request
from repro.engine.supervisor import CHUNKS_PER_WORKER, plan_chunks
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params

NAMES = ("node", "socket", "core")
H = Hierarchy((2, 2, 4), names=NAMES)
TOPO = generic_cluster((2, 2, 4), names=NAMES)


def _request(model="round", order=(0, 1, 2), comm_size=4, nbytes=1e6,
             hierarchy=H, topology=TOPO, collective="alltoall") -> EvalRequest:
    return EvalRequest(
        model=model, topology=topology, hierarchy=hierarchy, order=order,
        comm_size=comm_size, workload="collective",
        workload_params=collective_params(collective, comm_size, nbytes),
    )


def _place(r: EvalRequest) -> tuple:
    return (r.model, r.topology, r.hierarchy, r.order, r.comm_size)


class TestPlanChunks:
    def test_whole_groups_in_index_order(self):
        requests = [
            _request(order=o, nbytes=s)
            for o in all_orders(3) for s in (1e5, 1e6, 4e6)
        ]
        chunks, packed = plan_chunks(requests, 4)
        assert chunks == sorted(packed) and len(chunks) == 4
        assert sorted(i for c in chunks for i in c) == list(range(len(requests)))
        # No placement group straddles two chunks.
        owner = {i: n for n, c in enumerate(chunks) for i in c}
        for i, r in enumerate(requests):
            for j, other in enumerate(requests):
                if _place(r) == _place(other):
                    assert owner[i] == owner[j]
        # Index order: each chunk's members precede the next chunk's.
        assert all(max(a) < min(b) for a, b in zip(chunks, chunks[1:]))

    def test_one_chunk_in_process_and_singles_for_other_models(self):
        batchable = [_request(model=m, order=o) for m in ("round", "logp")
                     for o in all_orders(3)]
        des = _request(model="des")
        requests = [des, *batchable]
        chunks, packed = plan_chunks(requests, 1)
        assert chunks == [(0,), tuple(range(1, len(requests)))]
        assert packed == {tuple(range(1, len(requests)))}

    def test_groups_are_not_cut_to_fill_chunks(self):
        # One placement group is one chunk, however many are asked for.
        requests = [_request(nbytes=s) for s in (1e5, 1e6, 4e6)]
        assert plan_chunks(requests, 8) == ([(0, 1, 2)], {(0, 1, 2)})


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RADICES = [(2, 2, 4), (4, 2, 2), (2, 2, 2, 2)]
SIZE_POOL = [2e3, 16e3, 1e5, 1e6, 8e6]


@st.composite
def partitioned_frontiers(draw):
    """A round/logp frontier over one machine, mixing models, orders,
    communicator sizes, collectives and payloads, and an arbitrary
    partition of it into chunks (members need not be adjacent)."""
    radices = draw(st.sampled_from(RADICES))
    h = Hierarchy(radices)
    topo = generic_cluster(radices)
    divisors = [d for d in range(2, h.size + 1) if h.size % d == 0]
    point = st.tuples(
        st.sampled_from(["round", "logp"]),
        st.sampled_from(all_orders(len(radices))),
        st.sampled_from(divisors),
        st.sampled_from(["alltoall", "allgather", "allreduce"]),
        st.sampled_from(SIZE_POOL),
    )
    points = draw(st.lists(point, min_size=1, max_size=12, unique=True))
    requests = [
        _request(model=m, order=o, comm_size=c, collective=coll, nbytes=s,
                 hierarchy=h, topology=topo)
        for m, o, c, coll, s in points
    ]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(requests),
                           max_size=len(requests)))
    parts: dict[int, list[EvalRequest]] = {}
    for label, r in zip(labels, requests):
        parts.setdefault(label, []).append(r)
    return list(parts.values())


@settings(max_examples=25, deadline=None)
@given(partitioned_frontiers())
def test_property_chunk_boundaries_never_change_a_result(parts):
    """Every part of any partition, scored as one chunk, equals the
    seeded scalar oracle request by request, bitwise."""
    for part in parts:
        got = evaluate_chunk(part)
        assert [repr(r) for r in got] == [repr(evaluate_request(r)) for r in part]


def _hits(key: str, spec) -> bool:
    """Whether any execution fault's attempt-0 draw hits ``key``."""
    return any(
        rate > 0 and chaos._uniform(key, mode, 0) < rate
        for mode, rate in (("crash", spec.crash), ("hang", spec.hang),
                           ("flaky", spec.flaky))
    )


@pytest.mark.slow
class TestSplitSemantics:
    """Under chaos, a hit fails its whole chunk; the split charges each
    request exactly what a per-request task would be charged."""

    SPEC = "crash=0.1,hang=0.35,flaky=0.3,hang_s=60"

    def test_chaos_on_two_workers_splits_and_recovers(self, monkeypatch):
        requests = [
            _request(order=o, nbytes=s)
            for o in all_orders(3) for s in (1e5, 1e6, 4e6)
        ]
        clean = SweepEngine(prune=False).evaluate_many(requests)

        spec = chaos.parse_spec(self.SPEC)
        hit = {i for i, r in enumerate(requests) if _hits(r.key, spec)}
        chunks, _ = plan_chunks(requests, CHUNKS_PER_WORKER * 2)
        split = [c for c in chunks if len(c) > 1 and hit & set(c)]
        assert split  # the draws exercise the split path

        monkeypatch.setenv(CHAOS_ENV, self.SPEC)
        engine = SweepEngine(jobs=2, prune=False, max_attempts=2,
                             task_timeout=1.0, retry_backoff=0.0)
        results = engine.evaluate_many(requests)
        assert [repr(r) for r in results] == [repr(r) for r in clean]
        assert engine.stats.retries == len(hit)
        assert engine.stats.batch_fallbacks == len(split)
        assert engine.stats.quarantined == 0
        # Members of chunks that never failed still count as batched.
        assert engine.stats.batched == len(requests) - sum(map(len, split))
