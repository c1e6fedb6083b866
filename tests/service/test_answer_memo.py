"""The plan memo keeps each plan's answer: a repeated /advise is answered
from it without an engine call, bytes unchanged, and nothing that failed,
was refused or was cancelled is ever stored."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import threading

import pytest

from repro.core.advisor import advise
from repro.engine import SweepEngine
from repro.engine.batch import BatchEvaluationError
from repro.service.app import AdvisorService, PlacementQuery, QueryError
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import generic_cluster

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
    advice = advise(
        generic_cluster(h.radices, h.names),
        h,
        int(doc["comm_size"]),
        collective=doc.get("collective"),
        total_bytes=tuple(doc["total_bytes"]),
        backend="logp",
    )
    return json.dumps(advice.to_jsonable()).encode()


def _ask(svc: AdvisorService, doc: dict) -> dict:
    return asyncio.run(svc.advise(doc))


def test_seeded_query_sequence_matches_offline_bytes():
    """Repeats, novel payloads, reordered keys and an integral float
    comm size: every answer is offline advise(), byte for byte, and
    exactly the repeats of an answered plan are answer hits."""
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
    svc, seam = _service()
    try:
        seen: set = set()
        offline: dict = {}
        for doc in docs:
            key = (int(doc["comm_size"]), doc["collective"], tuple(doc["total_bytes"]))
            hits, calls = svc.answer_hits, seam.calls
            response = _ask(svc, doc)
            if key not in offline:
                offline[key] = _offline_bytes(doc)
            assert json.dumps(response["advice"]).encode() == offline[key]
            stats = response["stats"]
            if key in seen:
                assert (svc.answer_hits, seam.calls) == (hits + 1, calls)
                assert (stats["evaluated"], stats["cache_hits"]) == (
                    0, stats["grid_points"],
                )
            else:
                assert (svc.answer_hits, seam.calls) == (hits, calls + 1)
            seen.add(key)
        assert len(seen) < len(docs)  # the sequence does repeat
        assert svc.stats_doc()["service"]["answer_hits"] == len(docs) - len(seen)
    finally:
        svc.close()


def test_repeated_query_skips_the_evaluator():
    svc, seam = _service()
    try:
        first = _ask(svc, dict(QUERY))
        assert seam.calls == 1
        requests = svc.engine.stats.requests
        second = _ask(svc, dict(QUERY))
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
            _ask(svc, dict(QUERY))
        with pytest.raises(BatchEvaluationError):
            _ask(svc, dict(QUERY))
        assert seam.calls == 2
        failing.clear()
        answered = _ask(svc, dict(QUERY))
        assert seam.calls == 3
        assert answered["stats"]["evaluated"] == answered["stats"]["grid_points"]
        assert svc.answer_hits == 0
        _ask(svc, dict(QUERY))
        assert (seam.calls, svc.answer_hits) == (3, 1)
    finally:
        svc.close()


def test_refused_query_stores_nothing():
    svc, seam = _service()
    try:
        for _ in range(2):
            with pytest.raises(QueryError, match="does not match"):
                _ask(svc, {"machine": "hydra", "hierarchy": "node:2 core:4", "comm_size": 8})
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
        first = asyncio.create_task(svc.advise(dict(QUERY)))
        for _ in range(2000):
            if calls:
                break
            await asyncio.sleep(0.005)
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        release.set()
        return await svc.advise(dict(QUERY))

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
        first = _ask(svc, dict(QUERY))
        _ask(svc, other)  # evicts QUERY's plan and answer
        assert svc.stats_doc()["service"]["plan_cache_entries"] == 1
        again = _ask(svc, dict(QUERY))
        assert seam.calls == 3
        assert svc.answer_hits == 0
        # The results themselves are still in the engine cache.
        assert again["stats"]["evaluated"] == 0
        assert again["advice"] == first["advice"]
        _ask(svc, dict(QUERY))
        assert (seam.calls, svc.answer_hits) == (3, 1)
    finally:
        svc.close()


def test_memoized_plan_holds_no_request_grid():
    svc, _ = _service()
    try:
        _ask(svc, dict(QUERY))
        _ask(svc, dict(QUERY))
        plan = svc.plan(PlacementQuery.from_doc(dict(QUERY)))
        assert set(vars(plan)) == {f.name for f in dataclasses.fields(plan)}
        assert plan.requests == plan.requests
        assert plan.requests is not plan.requests  # built afresh per read
        assert len(plan.requests) == len(plan)
    finally:
        svc.close()
