"""AdvisorService core: query parsing/validation, plan memoization, and
served advice matching the offline pipeline bit for bit."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.advisor import advise
from repro.engine import SweepEngine
from repro.netsim.fabric import STRUCTURE_CACHE_STATS
from repro.service.app import (
    AdvisorService,
    PlacementQuery,
    QueryError,
    topology_for,
)
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import hydra
from repro.workloads import collective_cells, workload_cell
from tests.service.helpers import advise_doc, ask

GOOD = {"hierarchy": "node:2 socket:2 core:2", "comm_size": 8}

HYDRA4 = ("hydra", "node:4 socket:2 group:2 core:8")
LUMI2 = ("lumi", "node:2 socket:2 numa:4 l3:2 core:8")

#: The shapes the advise service is benchmarked on: hydra(4) at comm
#: sizes 8-64 for three collectives, plus lumi(2) alltoall at 16 and 64.
SERVED_SHAPES = [
    (HYDRA4, comm_size, collective)
    for comm_size in (8, 16, 32, 64)
    for collective in ("alltoall", "allgather", "allreduce")
] + [(LUMI2, 16, "alltoall"), (LUMI2, 64, "alltoall")]


class TestQueryParsing:
    def test_defaults(self):
        q = PlacementQuery.from_doc(dict(GOOD))
        assert q.machine == "generic"
        assert q.cells == collective_cells([8], ["alltoall"], (1e6, 64e6))
        assert q.scenario == "all"
        assert q.backend is None

    def test_integral_float_comm_size_accepted(self):
        q = PlacementQuery.from_doc({**GOOD, "comm_size": 8.0})
        assert q.cells == PlacementQuery.from_doc(dict(GOOD)).cells

    def test_scalar_total_bytes_promoted(self):
        q = PlacementQuery.from_doc({**GOOD, "total_bytes": 4096})
        assert [c.total_bytes for c in q.cells] == [4096.0]

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([], "JSON object"),
            ({"comm_size": 8}, "missing required"),
            ({**GOOD, "frobnicate": 1}, "unknown query field"),
            ({**GOOD, "comm_size": "many"}, "integer"),
            ({**GOOD, "comm_size": 0}, ">= 1"),
            ({**GOOD, "hierarchy": ""}, "non-empty"),
            ({**GOOD, "machine": "cray"}, "unknown machine"),
            ({**GOOD, "collective": "gossip"}, "unknown collective"),
            ({**GOOD, "total_bytes": []}, "non-empty list"),
            ({**GOOD, "total_bytes": ["big"]}, "numbers"),
            ({**GOOD, "total_bytes": [-1.0]}, "positive"),
            ({**GOOD, "scenario": "some"}, "scenario"),
            ({**GOOD, "algorithm": "magic"}, "unknown algorithm"),
            ({**GOOD, "total_bytes": [1e6, 1e6]}, "duplicate sizes"),
            ({**GOOD, "comm_size": 16.7}, "comm_size must be an integer"),
            ({**GOOD, "comm_size": True}, "comm_size must be an integer"),
            ({**GOOD, "comm_size": float("inf")}, "comm_size must be an integer"),
            ({**GOOD, "total_bytes": [True]}, "total_bytes entries must be numbers"),
            ({**GOOD, "total_bytes": False}, "total_bytes entries must be numbers"),
            # JSON types are checked, never converted.
            ({**GOOD, "comm_size": "8"}, "comm_size must be an integer"),
            ({**GOOD, "total_bytes": ["1e6"]}, "total_bytes entries must be numbers"),
            ({**GOOD, "total_bytes": "1e6"}, "total_bytes entries must be numbers"),
            ({**GOOD, "backend": 7}, "backend must be a string"),
            ({**GOOD, "algorithm": 3}, "algorithm must be a string"),
            ({**GOOD, "machine": None}, "machine must be a string"),
            ({**GOOD, "collective": ["alltoall"]}, "collective must be a string"),
            ({**GOOD, "scenario": 1}, "scenario must be 'all' or 'single'"),
            ({**GOOD, "hierarchy": 8}, "hierarchy must be a non-empty string"),
            ({"hierarchy": "node:2 core:8", "workload": None}, "workload must be a string"),
            ({"hierarchy": "node:2 core:8", "workload": 7}, "workload must be a string"),
        ],
    )
    def test_rejects_bad_docs(self, doc, match):
        with pytest.raises(QueryError, match=match):
            PlacementQuery.from_doc(doc)

    def test_collective_check_reads_the_live_registry(self, monkeypatch):
        """A collective is checked against the registry as it is now,
        with no sorted name list; the list is built for a refusal only."""
        from repro.collectives import selector
        from repro.service import app

        listed = []
        known = app.known_collectives
        monkeypatch.setattr(app, "known_collectives", lambda: listed.append(1) or known())
        PlacementQuery.from_doc({**GOOD, "collective": "allgather", "algorithm": "ring"})
        assert listed == []
        with pytest.raises(QueryError, match="unknown collective 'gossip'"):
            PlacementQuery.from_doc({**GOOD, "collective": "gossip"})
        assert listed == [1]
        monkeypatch.setitem(selector._REGISTRY, ("gossip", "push"), lambda p, b: [])
        q = PlacementQuery.from_doc({**GOOD, "collective": "gossip", "algorithm": "push"})
        assert dict(q.cells[0].params)["collective"] == "gossip"

    def test_workload_query_parses(self):
        q = PlacementQuery.from_doc(
            {
                "hierarchy": "node:2 core:8",
                "workload": "dnn",
                "workload_params": {"dp": 2, "tp": 4},
            }
        )
        (cell,) = q.cells
        assert cell.workload == "dnn"
        assert cell.comm_size == 8  # the lowered program's rank count
        assert dict(cell.params)["dp"] == 2
        assert dict(cell.params)["tp"] == 4

    @pytest.mark.parametrize(
        "doc, match",
        [
            (
                {"hierarchy": "node:2 core:8", "workload": "hpcg"},
                r"unknown workload 'hpcg' \(registered: collective, dnn",
            ),
            (
                {"hierarchy": "node:2 core:8", "workload": "dnn",
                 "comm_size": 8},
                r"workload queries must not name \['comm_size'\]",
            ),
            (
                {"hierarchy": "node:2 core:8", "workload": "dnn",
                 "collective": "alltoall", "total_bytes": 1e5},
                r"must not name \['collective', 'total_bytes'\]",
            ),
            (
                {"hierarchy": "node:2 core:8", "workload": "dnn",
                 "workload_params": [1, 2]},
                "JSON object",
            ),
            (
                {"hierarchy": "node:2 core:8", "workload": "dnn",
                 "workload_params": {"warp": 9}},
                r"unknown parameter\(s\) \['warp'\]",
            ),
            (
                {"hierarchy": "node:2 core:8", "comm_size": 8,
                 "workload_params": {"dp": 2}},
                "workload_params requires a workload",
            ),
        ],
    )
    def test_rejects_bad_workload_docs(self, doc, match):
        with pytest.raises(QueryError, match=match):
            PlacementQuery.from_doc(doc)


class TestTopologyFor:
    def test_presets(self):
        h = parse_synthetic("node:4 socket:2 group:2 core:8")
        assert topology_for("hydra", h).hierarchy.radices == h.radices
        g = topology_for("generic", parse_synthetic("node:2 core:4"))
        assert g.hierarchy.radices == (2, 4)

    def test_mismatched_hierarchy_is_a_query_error(self):
        with pytest.raises(ValueError, match="does not match"):
            topology_for("hydra", parse_synthetic("node:2 core:4"))
        svc = AdvisorService()
        try:
            query = PlacementQuery.from_doc(
                {"machine": "hydra", "hierarchy": "node:2 core:4", "comm_size": 8}
            )
            with pytest.raises(QueryError, match="does not match"):
                svc.plan(query)
        finally:
            svc.close()

    def test_unknown_machine(self):
        with pytest.raises(ValueError, match="unknown machine"):
            topology_for("cray", parse_synthetic("node:2 core:4"))

    def test_one_preset_lookup(self):
        """The service and the CLI name machines through one function."""
        from repro import cli
        from repro.topology import machines

        assert topology_for is machines.topology_for
        with pytest.raises(SystemExit, match="unknown machine 'cray'"):
            cli._machine_topology("cray", parse_synthetic("node:2 core:4"))


class TestAdvise:
    def test_served_advice_is_bitwise_identical_to_offline(self):
        svc = AdvisorService()
        try:
            doc = {
                "machine": "hydra",
                "hierarchy": "node:4 socket:2 group:2 core:8",
                "comm_size": 16,
                "total_bytes": [1e5, 1e6],
            }
            response = ask(svc, doc)
            h = parse_synthetic(doc["hierarchy"])
            # The service scores in-process; offline runs on workers.
            offline = advise(
                hydra(4), h, 16, total_bytes=(1e5, 1e6), backend="logp",
                engine=SweepEngine(jobs=2),
            )
            # Not approximately: the service assembles through the exact
            # same plan/advice code path as offline advise().
            assert response["advice"] == offline.to_jsonable()
            assert response["provenance"]["backend"] == "logp"
            assert (
                response["stats"]["grid_points"]
                == response["provenance"]["n_requests"]
                == len(response["advice"]["recommendations"]) * 2
            )
        finally:
            svc.close()

    def test_bad_query_raises_query_error(self):
        svc = AdvisorService()
        try:
            with pytest.raises(QueryError, match="does not match"):
                ask(svc, {"machine": "hydra", "hierarchy": "node:2 core:4", "comm_size": 8})
            # Hierarchies the parser itself rejects surface as 400s too.
            with pytest.raises(QueryError, match="bad hierarchy"):
                ask(svc, {"hierarchy": "node:zero", "comm_size": 8})
        finally:
            svc.close()

    def test_plan_cache_memoizes_query_shapes(self):
        svc = AdvisorService()
        try:
            q = PlacementQuery.from_doc(dict(GOOD))
            p1 = svc.plan(q)
            p2 = svc.plan(q)
            assert p1 is p2
            assert svc.plan_cache_hits == 1
            # A different shape plans fresh.
            q2 = PlacementQuery.from_doc({**GOOD, "comm_size": 4})
            assert svc.plan(q2) is not p1
            assert svc.plan_cache_hits == 1
        finally:
            svc.close()

    def test_repeat_query_hits_engine_cache(self):
        svc = AdvisorService()
        try:
            first = ask(svc, dict(GOOD))
            evaluated = svc.engine.stats.evaluated
            assert evaluated > 0
            second = ask(svc, dict(GOOD))
            assert svc.engine.stats.evaluated == evaluated  # all cached
            assert second["advice"] == first["advice"]
        finally:
            svc.close()

    def test_served_dnn_advice_is_bitwise_identical_to_offline(self):
        from repro.topology.machines import generic_cluster

        svc = AdvisorService()
        try:
            params = {"dp": 2, "tp": 2, "pp": 2, "hidden": 32, "seq": 16}
            doc = {
                "hierarchy": "node:2 socket:2 core:4",
                "workload": "dnn",
                "workload_params": dict(params),
            }
            response = ask(svc, doc)
            h = parse_synthetic(doc["hierarchy"])
            offline = advise(
                generic_cluster(h.radices, h.names),
                h,
                cells=(workload_cell("dnn", params),),
                backend="logp",
                engine=SweepEngine(jobs=2),
            )
            assert response["advice"] == offline.to_jsonable()
            assert response["provenance"]["workload"] == "dnn"
            assert response["provenance"]["workload_params"]["dp"] == 2
        finally:
            svc.close()

    def test_per_query_stats_are_engine_deltas(self):
        svc = AdvisorService()
        try:
            cold = ask(svc, dict(GOOD))["stats"]
            warm = ask(svc, dict(GOOD))["stats"]
            assert set(cold) == {"wall_ms", "grid_points", "evaluated", "cache_hits"}
            grid = cold["grid_points"]
            assert (cold["evaluated"], cold["cache_hits"]) == (grid, 0)
            assert (warm["evaluated"], warm["cache_hits"]) == (0, grid)
            assert svc.engine.stats.evaluated == grid
        finally:
            svc.close()

    def test_cancelled_query_does_not_stop_the_others(self):
        """A client that goes away mid-evaluation takes only its own
        answer with it: the evaluation completes, lands in the cache, and
        the concurrent identical query is answered from it."""
        engine = SweepEngine()
        release = threading.Event()

        def gated(requests):
            assert release.wait(30), "test never released the evaluator"
            return engine.evaluate_many(requests)

        svc = AdvisorService(engine=engine, evaluate=gated)

        async def main():
            first = asyncio.create_task(advise_doc(svc, dict(GOOD)))
            second = asyncio.create_task(advise_doc(svc, dict(GOOD)))
            for _ in range(2000):
                if svc.active_requests == 2:
                    break
                await asyncio.sleep(0.005)
            assert svc.active_requests == 2
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            release.set()
            return await second

        try:
            answer = asyncio.run(main())
            grid = answer["stats"]["grid_points"]
            assert answer["stats"]["cache_hits"] == grid
            assert svc.engine.stats.evaluated == grid
            h = parse_synthetic(GOOD["hierarchy"])
            offline = advise(
                topology_for("generic", h), h, GOOD["comm_size"], backend="logp"
            )
            assert answer["advice"] == offline.to_jsonable()
        finally:
            svc.close()

    def test_stats_doc_shape(self):
        svc = AdvisorService()
        try:
            ask(svc, dict(GOOD))
            doc = svc.stats_doc()
            assert set(doc) == {"service", "engine", "cache", "prewarm"}
            assert doc["service"]["advise_requests"] == 1
            assert doc["engine"]["requests"] > 0
            assert doc["engine"]["structure_cache"]["misses"] > 0
            assert "memory_hits" in doc["cache"]
            assert doc["prewarm"]["cycles"] == 0
            assert svc.healthz_doc()["status"] == "ok"
        finally:
            svc.close()


def test_served_shape_set_stays_warm():
    """One pass over the served shape set leaves every logp structure it
    needs in the fabric memos: a second pass at new payloads analyses
    nothing and evicts nothing."""

    def one_pass(scale):
        for (machine, spec), comm_size, collective in SERVED_SHAPES:
            h = parse_synthetic(spec)
            advise(
                topology_for(machine, h),
                h,
                comm_size,
                collective=collective,
                total_bytes=(1e5 * scale, 64e6 * scale),
                backend="logp",
            )

    one_pass(1.0)
    before = STRUCTURE_CACHE_STATS.to_jsonable()
    one_pass(1.005)
    after = STRUCTURE_CACHE_STATS.to_jsonable()
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]
    assert after["evictions"] == before["evictions"]
