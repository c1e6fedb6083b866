"""End-to-end HTTP tests: real sockets, concurrent clients, coalescing
observed through the engine's own counters, and error mapping."""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.advisor import advise
from repro.engine import SweepEngine
from repro.service import (
    AdvisorService,
    PrewarmSpec,
    prewarm_once,
    prewarm_worker,
    start_service_server,
)
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import generic_cluster

QUERY = {
    "hierarchy": "node:2 socket:2 core:2",
    "comm_size": 8,
    "total_bytes": [1e5, 1e6],
}


def _post(port: int, path: str, doc) -> tuple[int, dict]:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(port: int, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _serve(service: AdvisorService, coro_fn):
    """Run a server plus a test coroutine on one event loop."""

    async def main():
        server = await start_service_server(service)
        try:
            return await coro_fn(server.bound_port)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestRoutes:
    def test_healthz_advise_stats(self):
        svc = AdvisorService()

        async def scenario(port):
            status, doc = await asyncio.to_thread(_get, port, "/healthz")
            assert status == 200 and doc["status"] == "ok"
            status, served = await asyncio.to_thread(_post, port, "/advise", QUERY)
            assert status == 200
            status, stats = await asyncio.to_thread(_get, port, "/stats")
            assert status == 200
            assert stats["service"]["advise_requests"] == 1
            assert stats["coalescing"]["calls"] == 1
            return served

        served = _serve(svc, scenario)
        h = parse_synthetic(QUERY["hierarchy"])
        offline = advise(
            generic_cluster(h.radices, h.names),
            h,
            QUERY["comm_size"],
            total_bytes=tuple(QUERY["total_bytes"]),
            backend="logp",
            engine=SweepEngine(jobs=2),
        )
        # The served ranking (scored in-process) is the offline ranking
        # (scored on workers), bit for bit, after a real JSON round-trip
        # over the wire.
        assert served["advice"] == offline.to_jsonable()

    def test_error_mapping(self):
        svc = AdvisorService()

        async def scenario(port):
            checks = []

            def collect():
                checks.append(("404", _get(port, "/nope")))
                checks.append(("405", _get(port, "/advise")))
                checks.append(
                    ("400-field", _post(port, "/advise", {**QUERY, "zork": 1}))
                )
                checks.append(
                    (
                        "400-machine",
                        _post(port, "/advise", {**QUERY, "machine": "cray"}),
                    )
                )
                req = urllib.request.Request(
                    f"http://127.0.0.1:{port}/advise",
                    data=b"{not json",
                    method="POST",
                )
                try:
                    urllib.request.urlopen(req, timeout=30)
                except urllib.error.HTTPError as err:
                    checks.append(
                        ("400-json", (err.code, json.loads(err.read())))
                    )

            await asyncio.to_thread(collect)
            return checks

        checks = dict(_serve(svc, scenario))
        assert checks["404"][0] == 404
        assert "routes" in checks["404"][1]
        assert checks["405"][0] == 405
        assert checks["400-field"][0] == 400
        assert "zork" in checks["400-field"][1]["error"]
        assert checks["400-machine"][0] == 400
        assert checks["400-json"][0] == 400
        assert "JSON" in checks["400-json"][1]["error"]
        # Client faults counted, none escalated to the engine.
        assert svc.errors == 5
        assert svc.engine.stats.requests == 0


class TestCoalescingEndToEnd:
    def test_identical_concurrent_queries_evaluate_once(self):
        """N identical in-flight /advise requests cost exactly one grid
        evaluation -- asserted through the engine's own counters."""
        engine = SweepEngine()
        release = threading.Event()
        underlying: list[int] = []

        def gated(requests):
            underlying.append(len(requests))
            assert release.wait(30)
            return engine.evaluate_many(requests)

        svc = AdvisorService(engine=engine, evaluate=gated)
        n = 6

        async def scenario(port):
            # A dedicated client pool: asyncio's default to_thread pool is
            # sized from cpu_count and can serialize the burst on small
            # machines, which would defeat the whole point of the test.
            pool = ThreadPoolExecutor(max_workers=n)
            loop = asyncio.get_running_loop()
            posts = [
                loop.run_in_executor(pool, _post, port, "/advise", QUERY)
                for _ in range(n)
            ]
            # Wait until every request has registered with the coalescer
            # (the first holds the evaluator, the rest are coalesced).
            for _ in range(2000):
                if svc.coalescer.stats.calls >= n:
                    break
                await asyncio.sleep(0.005)
            assert svc.coalescer.stats.calls == n
            release.set()
            outcomes = await asyncio.gather(*posts)
            pool.shutdown(wait=True)
            return outcomes

        outcomes = _serve(svc, scenario)
        assert all(status == 200 for status, _ in outcomes)
        advices = [doc["advice"] for _, doc in outcomes]
        assert all(a == advices[0] for a in advices)
        grid = outcomes[0][1]["provenance"]["n_requests"]
        # One underlying evaluation of one grid; every point evaluated once.
        assert underlying == [grid]
        assert svc.engine.stats.evaluated == grid
        assert svc.coalescer.stats.submitted == grid
        assert svc.coalescer.stats.coalesced == (n - 1) * grid

    def test_mixed_queries_share_only_overlapping_keys(self):
        """Two different payload grids in flight share exactly the
        points they have in common."""
        engine = SweepEngine()
        release = threading.Event()

        def gated(requests):
            assert release.wait(30)
            return engine.evaluate_many(requests)

        svc = AdvisorService(engine=engine, evaluate=gated)
        a_doc = {**QUERY, "total_bytes": [1e5, 1e6]}
        b_doc = {**QUERY, "total_bytes": [1e6, 64e6]}  # shares the 1e6 column

        async def scenario(port):
            a = asyncio.create_task(asyncio.to_thread(_post, port, "/advise", a_doc))
            for _ in range(2000):
                if svc.coalescer.stats.calls >= 1:
                    break
                await asyncio.sleep(0.005)
            b = asyncio.create_task(asyncio.to_thread(_post, port, "/advise", b_doc))
            for _ in range(2000):
                if svc.coalescer.stats.calls >= 2:
                    break
                await asyncio.sleep(0.005)
            release.set()
            return await asyncio.gather(a, b)

        (status_a, doc_a), (status_b, doc_b) = _serve(svc, scenario)
        assert status_a == 200 and status_b == 200
        n_classes = doc_a["provenance"]["n_classes"]
        assert doc_b["provenance"]["n_classes"] == n_classes
        # B coalesced exactly the shared 1e6 column, one point per class.
        assert svc.coalescer.stats.coalesced == n_classes
        assert svc.coalescer.stats.submitted == 3 * n_classes
        assert svc.engine.stats.evaluated == 3 * n_classes


class TestPrewarm:
    SPEC = PrewarmSpec(
        machine="generic",
        hierarchy=QUERY["hierarchy"],
        comm_size=QUERY["comm_size"],
        total_bytes=(1e5, 1e6),
    )

    def test_prewarm_once_populates_the_engine_cache(self):
        svc = AdvisorService()

        async def main():
            submitted = await prewarm_once(svc, self.SPEC)
            assert submitted > 0
            # The matching client query is now fully warm: every key is
            # reported deduped (cache-satisfied), none submitted, and the
            # engine evaluates nothing new.
            response = await svc.advise(dict(QUERY))
            assert response["stats"]["submitted"] == 0
            assert response["stats"]["deduped"] == submitted
            assert svc.engine.stats.evaluated == submitted

        try:
            asyncio.run(main())
        finally:
            svc.close()

    def test_worker_runs_on_idle_and_stops(self):
        svc = AdvisorService()

        async def main():
            stop = asyncio.Event()
            task = asyncio.create_task(
                prewarm_worker(svc, [self.SPEC], idle_s=0.0, stop=stop, poll_s=0.01)
            )
            for _ in range(2000):
                if svc.prewarm_state.complete:
                    break
                await asyncio.sleep(0.005)
            stop.set()
            await asyncio.wait_for(task, timeout=5)
            state = svc.prewarm_state
            assert state.complete
            assert state.errors == 0
            assert state.keys_submitted == svc.engine.stats.evaluated > 0
            assert svc.stats_doc()["prewarm"]["warm"] == [self.SPEC.label]

        try:
            asyncio.run(main())
        finally:
            svc.close()

    def test_worker_survives_a_failing_spec(self):
        svc = AdvisorService()
        bad = PrewarmSpec(
            machine="generic", hierarchy="node:2 core:4", comm_size=9999
        )

        async def main():
            stop = asyncio.Event()
            task = asyncio.create_task(
                prewarm_worker(
                    svc, [bad, self.SPEC], idle_s=0.0, stop=stop, poll_s=0.01
                )
            )
            for _ in range(2000):
                if self.SPEC.label in svc.prewarm_state.warm:
                    break
                await asyncio.sleep(0.005)
            stop.set()
            await asyncio.wait_for(task, timeout=5)
            assert svc.prewarm_state.errors >= 1
            assert bad.label in (svc.prewarm_state.last_error or "")
            assert self.SPEC.label in svc.prewarm_state.warm

        try:
            asyncio.run(main())
        finally:
            svc.close()


class TestSharedCacheDir:
    def test_service_reads_grids_swept_by_another_engine(self, tmp_path):
        """The engine's on-disk tier is the shared warm tier: a sweep in
        one process warms queries served by another."""
        h = parse_synthetic(QUERY["hierarchy"])
        sweeper = SweepEngine(jobs=2, cache_dir=tmp_path)  # on workers
        from repro.core.advisor import plan_query
        from repro.workloads import collective_cells

        plan = plan_query(
            generic_cluster(h.radices, h.names),
            h,
            collective_cells([QUERY["comm_size"]], ["alltoall"], QUERY["total_bytes"]),
            backend="logp",
        )
        sweeper.evaluate_many(list(plan.requests))
        assert sweeper.stats.evaluated > 0

        svc = AdvisorService(engine=SweepEngine(cache_dir=tmp_path))
        try:
            response = asyncio.run(svc.advise(dict(QUERY)))
            # Every grid point was recalled from disk; nothing re-evaluated.
            assert svc.engine.stats.evaluated == 0
            assert svc.engine.cache.disk_hits == len(plan.requests)
            offline = advise(
                generic_cluster(h.radices, h.names),
                h,
                QUERY["comm_size"],
                total_bytes=tuple(QUERY["total_bytes"]),
                backend="logp",
            )
            assert response["advice"] == offline.to_jsonable()
        finally:
            svc.close()
