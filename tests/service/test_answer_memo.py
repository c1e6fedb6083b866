"""The plan memo keeps each plan's answer as encoded bytes: a repeated
/advise is answered from it without an engine call, a byte-identical
repeat without parsing the body either, bytes unchanged, and nothing
that failed, was refused or was cancelled is ever stored."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import re
import threading

import pytest

from repro.core.advisor import advise
from repro.engine import SweepEngine
from repro.engine.batch import BatchEvaluationError
from repro.service import app
from repro.service.app import AdvisorService, PlacementQuery, QueryError
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import generic_cluster
from repro.workloads import workload_cell
from tests.service.helpers import advise_doc, ask, body

HIERARCHY = "node:2 socket:2 core:2"
QUERY = {"hierarchy": HIERARCHY, "comm_size": 8, "total_bytes": [1e5, 1e6]}


class CountingEvaluate:
    """The ``evaluate=`` seam, counting its calls; each goes on to the
    real engine."""

    def __init__(self, engine: SweepEngine):
        self.engine = engine
        self.calls = 0

    def __call__(self, requests):
        self.calls += 1
        return self.engine.evaluate_many(requests)


def _service(**kwargs) -> tuple[AdvisorService, CountingEvaluate]:
    engine = SweepEngine()
    seam = CountingEvaluate(engine)
    return AdvisorService(engine=engine, evaluate=seam, **kwargs), seam


def _offline_bytes(doc: dict) -> bytes:
    h = parse_synthetic(doc["hierarchy"])
    topology = generic_cluster(h.radices, h.names)
    if "workload" in doc:
        advice = advise(
            topology, h,
            cells=(workload_cell(doc["workload"], doc["workload_params"]),),
            backend="logp",
        )
    else:
        advice = advise(
            topology,
            h,
            int(doc["comm_size"]),
            collective=doc.get("collective"),
            total_bytes=tuple(doc["total_bytes"]),
            backend="logp",
        )
    return json.dumps(advice.to_jsonable()).encode()


def _answer_key(doc: dict) -> tuple:
    """What a query's answer depends on, in the terms of this test."""
    if "workload" in doc:
        return (doc["workload"], tuple(sorted(doc["workload_params"].items())))
    return (int(doc["comm_size"]), doc["collective"], tuple(doc["total_bytes"]))


def _raw(svc: AdvisorService, doc: dict) -> bytes:
    return asyncio.run(svc.advise(body(doc)))


@pytest.fixture
def decoded(monkeypatch) -> list:
    """Every body the service decodes (a body-index hit decodes none)."""
    seen: list = []
    decode = app._decode

    def counting(raw: bytes):
        seen.append(raw)
        return decode(raw)

    monkeypatch.setattr(app, "_decode", counting)
    return seen


def test_seeded_query_sequence_matches_offline_bytes(decoded):
    """Repeats, key-reordered bodies, integral float comm sizes, novel
    payloads and a workload query: every response is the bytes
    ``json.dumps`` gives for its document, its advice is offline
    advise() byte for byte, byte-identical repeats are body-index hits
    that neither parse nor evaluate, and a re-spelled repeat is
    answered from the plan memo."""
    rng = random.Random(20231112)
    shapes = [(8, "alltoall"), (4, "allgather"), (8, "allreduce")]
    docs = []
    for _ in range(24):
        comm_size, collective = rng.choice(shapes)
        doc = {
            "hierarchy": HIERARCHY,
            "comm_size": comm_size,
            "collective": collective,
            "total_bytes": [1e5, rng.choice([1e6, 1e6 * (1 + rng.random())])],
        }
        if rng.random() < 0.3:
            doc = dict(reversed(list(doc.items())))
        if rng.random() < 0.3:
            doc["comm_size"] = float(comm_size)
        docs.append(doc)
    # The first query again, keys reversed and its comm size a float.
    again = dict(reversed(list(docs[0].items())))
    docs.append({**again, "comm_size": float(again["comm_size"])})
    workload = {
        "hierarchy": HIERARCHY,
        "workload": "dnn",
        "workload_params": {"dp": 2, "tp": 2, "pp": 2, "hidden": 32, "seq": 16},
    }
    docs[5:5] = [workload, dict(reversed(list(workload.items()))), workload]
    svc, seam = _service()
    try:
        bodies: set = set()
        answered: set = set()
        offline: dict = {}
        for doc in docs:
            key = _answer_key(doc)
            before = (len(decoded), seam.calls, svc.answer_hits)
            raw = _raw(svc, doc)
            response = json.loads(raw)
            assert json.dumps(response).encode() == raw
            if key not in offline:
                offline[key] = _offline_bytes(doc)
            assert json.dumps(response["advice"]).encode() == offline[key]
            stats = response["stats"]
            if body(doc) in bodies:  # the body index
                assert (len(decoded), seam.calls, svc.answer_hits) == (
                    before[0], before[1], before[2] + 1,
                )
            elif key in answered:  # the plan memo
                assert (len(decoded), seam.calls, svc.answer_hits) == (
                    before[0] + 1, before[1], before[2] + 1,
                )
            else:
                assert (len(decoded), seam.calls, svc.answer_hits) == (
                    before[0] + 1, before[1] + 1, before[2],
                )
            if key in answered:
                assert (stats["evaluated"], stats["cache_hits"]) == (
                    0, stats["grid_points"],
                )
            bodies.add(body(doc))
            answered.add(key)
        assert len(bodies) < len(docs)  # some bodies repeat byte for byte
        assert len(answered) < len(bodies)  # some are re-spelled repeats
        service = svc.stats_doc()["service"]
        assert service["answer_hits"] == len(docs) - len(answered)
        assert service["advise_requests"] == len(docs)
    finally:
        svc.close()


def test_index_hit_is_the_parsed_answer_bytes(decoded):
    """Apart from ``wall_ms``, an index hit's bytes are the bytes of the
    same answer given through parsing, key-reordered bodies included."""
    svc, _ = _service()
    try:
        reordered = dict(reversed(list(QUERY.items())))
        _raw(svc, QUERY)  # evaluates and stores the answer
        answers = [_raw(svc, d) for d in (QUERY, reordered, reordered, QUERY)]
        assert len(decoded) == 2  # each distinct body parsed once
        masked = [re.sub(rb'"wall_ms": [^,]*,', b"", raw) for raw in answers]
        assert len(set(masked)) == 1
        assert b'"wall_ms"' not in masked[0]
    finally:
        svc.close()


def test_stale_body_index_entry_falls_through(decoded):
    """A body whose plan was evicted, or re-planned with no answer, is
    parsed and evaluated again, not answered from its index entry."""
    svc, seam = _service(plan_cache_size=1)
    other = PlacementQuery.from_doc({**QUERY, "total_bytes": [1e5, 64e6]})
    try:
        first = _raw(svc, QUERY)
        svc.plan(other)  # evicts QUERY's plan, not its index entry
        again = json.loads(_raw(svc, QUERY))
        assert (len(decoded), seam.calls, svc.answer_hits) == (2, 2, 0)
        assert json.dumps(again["advice"]) == json.dumps(json.loads(first)["advice"])
        svc.plan(other)
        svc.plan(PlacementQuery.from_doc(dict(QUERY)))  # planned, unanswered
        _raw(svc, QUERY)
        assert (len(decoded), seam.calls, svc.answer_hits) == (3, 3, 0)
        _raw(svc, QUERY)
        assert (len(decoded), seam.calls, svc.answer_hits) == (3, 3, 1)
    finally:
        svc.close()


def test_undecodable_bodies_are_query_errors():
    svc, seam = _service()
    try:
        for raw in (b"{not json", b"[" * 100_000, b"\xff"):
            with pytest.raises(QueryError, match="not valid JSON"):
                asyncio.run(svc.advise(raw))
        with pytest.raises(QueryError, match="missing required field"):
            asyncio.run(svc.advise(b""))
        assert (seam.calls, svc.advise_requests) == (0, 0)
    finally:
        svc.close()


def test_repeated_query_skips_the_evaluator():
    svc, seam = _service()
    try:
        first = ask(svc, dict(QUERY))
        assert seam.calls == 1
        requests = svc.engine.stats.requests
        second = ask(svc, dict(QUERY))
        assert seam.calls == 1
        assert svc.engine.stats.requests == requests
        assert second["advice"] == first["advice"]
        assert second["provenance"] == first["provenance"]
        grid = first["stats"]["grid_points"]
        assert second["stats"]["grid_points"] == grid
        assert (second["stats"]["evaluated"], second["stats"]["cache_hits"]) == (0, grid)
        assert svc.stats_doc()["service"]["answer_hits"] == 1
    finally:
        svc.close()


def test_failed_grid_is_not_stored(monkeypatch):
    import repro.engine.evaluators as evaluators

    failing = threading.Event()
    failing.set()

    def breakable(fn):
        def call(*args):
            if failing.is_set():
                raise RuntimeError("injected evaluator failure")
            return fn(*args)

        return call

    for name in ("evaluate_request", "evaluate_requests_batch"):
        monkeypatch.setattr(evaluators, name, breakable(getattr(evaluators, name)))
    engine = SweepEngine(max_attempts=1)
    seam = CountingEvaluate(engine)
    svc = AdvisorService(engine=engine, evaluate=seam)
    try:
        with pytest.raises(BatchEvaluationError):
            ask(svc, dict(QUERY))
        with pytest.raises(BatchEvaluationError):
            ask(svc, dict(QUERY))
        assert seam.calls == 2
        failing.clear()
        answered = ask(svc, dict(QUERY))
        assert seam.calls == 3
        assert answered["stats"]["evaluated"] == answered["stats"]["grid_points"]
        assert svc.answer_hits == 0
        ask(svc, dict(QUERY))
        assert (seam.calls, svc.answer_hits) == (3, 1)
    finally:
        svc.close()


def test_refused_query_stores_nothing():
    svc, seam = _service()
    try:
        for _ in range(2):
            with pytest.raises(QueryError, match="does not match"):
                ask(svc, {"machine": "hydra", "hierarchy": "node:2 core:4", "comm_size": 8})
        assert svc.stats_doc()["service"]["plan_cache_entries"] == 0
        assert (seam.calls, svc.answer_hits) == (0, 0)
    finally:
        svc.close()


def test_cancelled_query_stores_nothing():
    """The evaluation of a cancelled query completes and is cached, but
    its answer is never stored: the next query assembles its own."""
    engine = SweepEngine()
    release = threading.Event()
    calls = []

    def gated(requests):
        calls.append(len(requests))
        assert release.wait(30), "test never released the evaluator"
        return engine.evaluate_many(requests)

    svc = AdvisorService(engine=engine, evaluate=gated)

    async def main():
        first = asyncio.create_task(advise_doc(svc, dict(QUERY)))
        for _ in range(2000):
            if calls:
                break
            await asyncio.sleep(0.005)
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        release.set()
        return await advise_doc(svc, dict(QUERY))

    try:
        answer = asyncio.run(main())
        assert len(calls) == 2
        assert svc.answer_hits == 0
        grid = answer["stats"]["grid_points"]
        assert answer["stats"]["cache_hits"] == grid
    finally:
        svc.close()


def test_evicting_a_plan_drops_its_answer():
    svc, seam = _service(plan_cache_size=1)
    try:
        other = {**QUERY, "total_bytes": [1e5, 64e6]}
        first = ask(svc, dict(QUERY))
        ask(svc, other)  # evicts QUERY's plan and answer
        assert svc.stats_doc()["service"]["plan_cache_entries"] == 1
        again = ask(svc, dict(QUERY))
        assert seam.calls == 3
        assert svc.answer_hits == 0
        # The results themselves are still in the engine cache.
        assert again["stats"]["evaluated"] == 0
        assert again["advice"] == first["advice"]
        ask(svc, dict(QUERY))
        assert (seam.calls, svc.answer_hits) == (3, 1)
    finally:
        svc.close()


def test_memoized_plan_holds_no_request_grid():
    svc, _ = _service()
    try:
        ask(svc, dict(QUERY))
        ask(svc, dict(QUERY))
        plan = svc.plan(PlacementQuery.from_doc(dict(QUERY)))
        assert set(vars(plan)) == {f.name for f in dataclasses.fields(plan)}
        assert plan.requests == plan.requests
        assert plan.requests is not plan.requests  # built afresh per read
        assert len(plan.requests) == len(plan)
    finally:
        svc.close()
