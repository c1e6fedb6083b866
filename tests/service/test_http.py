"""End-to-end HTTP tests: real sockets, concurrent clients evaluating
each key once (observed through the engine's own counters), and error
mapping."""

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
from tests.service.helpers import advise_doc, ask

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
            assert stats["engine"]["evaluated"] == served["stats"]["evaluated"] > 0
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

    def test_one_rank_communicators_answer_200(self):
        # Every class predicts 0 s when no data moves; the answer is a
        # ranking with spread factor 1, not a server error.
        svc = AdvisorService()
        query = {
            "machine": "hydra",
            "hierarchy": "node:4 socket:2 group:2 core:8",
            "comm_size": 1,
        }

        async def scenario(port):
            return await asyncio.to_thread(_post, port, "/advise", query)

        status, doc = _serve(svc, scenario)
        assert status == 200
        assert doc["advice"]["spread_factor"] == 1.0
        assert {r["predicted_seconds"] for r in doc["advice"]["recommendations"]} == {0.0}
        assert svc.errors == 0

    def test_one_level_machine_answers_200(self):
        # A one-level machine has no --distribution for any order: the
        # answer names none instead of failing the query.
        svc = AdvisorService()
        query = {"machine": "generic", "hierarchy": "core:8", "comm_size": 4}

        async def scenario(port):
            return await asyncio.to_thread(_post, port, "/advise", query)

        status, doc = _serve(svc, scenario)
        assert status == 200
        (rec,) = doc["advice"]["recommendations"]
        assert rec["order"] == [0]
        assert rec["slurm_distribution"] is None
        assert svc.errors == 0

    def test_unexpected_error_answers_500_and_closes(self):
        def broken(requests):
            raise RuntimeError("evaluator exploded")

        svc = AdvisorService(evaluate=broken)

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = json.dumps(QUERY).encode()
            writer.write(
                b"POST /advise HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 30)  # until close
            writer.close()
            stats = await asyncio.to_thread(_get, port, "/stats")
            return raw, stats

        raw, (_, stats) = _serve(svc, scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 500 ")
        assert b"Connection: close" in head
        assert "evaluator exploded" in json.loads(body)["error"]
        assert stats["service"]["errors"] == 1
        assert svc.errors == 1


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes, dict]:
    """One response off a keep-alive connection: status, head, body."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
    status = int(head.split(b" ", 2)[1])
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    return status, head, json.loads(await reader.readexactly(length))


def _advise_request(body: bytes, length: bytes | None = None, extra: bytes = b"") -> bytes:
    length = str(len(body)).encode() if length is None else length
    return (
        b"POST /advise HTTP/1.1\r\nHost: x\r\nContent-Length: " + length
        + b"\r\n" + extra + b"\r\n" + body
    )


class TestFraming:
    """A request is framed by an exact ``Content-Length``; a refused
    framing closes the connection, and the service goes on answering."""

    def test_deeply_nested_json_is_a_400_and_keeps_the_connection(self):
        svc = AdvisorService()

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_advise_request(b"[" * 100_000))
            refused = await _read_response(reader)
            writer.write(_advise_request(json.dumps(QUERY).encode()))
            answered = await _read_response(reader)
            writer.close()
            return refused, answered

        (status, head, doc), (ok, _, answer) = _serve(svc, scenario)
        assert status == 400
        assert doc["error"].startswith("request body is not valid JSON")
        assert b"Connection: keep-alive" in head
        assert ok == 200 and answer["advice"]["recommendations"]
        assert svc.errors == 1

    CASES = {
        "chunked": (
            _advise_request(
                b"5\r\nhello\r\n0\r\n\r\n", length=b"0",
                extra=b"Transfer-Encoding: chunked\r\n",
            ).replace(b"Content-Length: 0\r\n", b""),
            501, "Transfer-Encoding 'chunked'",
        ),
        "negative": (_advise_request(b"", length=b"-5"), 400, "bad Content-Length '-5'"),
        "plus": (_advise_request(b"{}", length=b"+2"), 400, "bad Content-Length '+2'"),
        "underscore": (_advise_request(b"{}", length=b"0_2"), 400, "bad Content-Length"),
        "vertical-tab": (_advise_request(b"{}", length=b"\x0b2"), 400, "bad Content-Length"),
        "conflicting": (
            _advise_request(b"{}", extra=b"Content-Length: 3\r\n"),
            400, "conflicting Content-Length",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_framing_closes_the_connection(self, case):
        request, expect_status, expect_error = self.CASES[case]
        svc = AdvisorService()

        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request)
            refused = await _read_response(reader)
            rest = await asyncio.wait_for(reader.read(), 30)  # until close
            writer.close()
            answered = await asyncio.to_thread(_post, port, "/advise", QUERY)
            stats = await asyncio.to_thread(_get, port, "/stats")
            return refused, rest, answered, stats

        (status, head, doc), rest, answered, (_, stats) = _serve(svc, scenario)
        assert status == expect_status
        assert expect_error in doc["error"]
        assert b"Connection: close" in head
        assert rest == b""  # nothing of the request was read as another one
        assert answered[0] == 200
        assert stats["service"]["errors"] == 1
        assert stats["service"]["advise_requests"] == 1


def _advice_bytes(doc: dict) -> bytes:
    return json.dumps(doc["advice"], sort_keys=True).encode()


def _offline_advice(total_bytes=QUERY["total_bytes"]) -> dict:
    h = parse_synthetic(QUERY["hierarchy"])
    return advise(
        generic_cluster(h.radices, h.names),
        h,
        QUERY["comm_size"],
        total_bytes=tuple(total_bytes),
        backend="logp",
    ).to_jsonable()


class Gate:
    """A grid evaluator the test releases explicitly, so 'in flight' is a
    controlled state rather than a race.  Every call goes on to the real
    engine."""

    def __init__(self, engine: SweepEngine):
        self.engine = engine
        self.release = threading.Event()
        self.calls: list[int] = []

    def __call__(self, requests):
        self.calls.append(len(requests))
        assert self.release.wait(30), "test never released the evaluator"
        return self.engine.evaluate_many(requests)


async def _until_active(svc: AdvisorService, n: int) -> None:
    """Yield until ``n`` queries are in flight.  A query is planned and
    queued on the engine executor before it first yields, so every one
    counted here is waiting behind the gate."""
    for _ in range(2000):
        if svc.active_requests >= n:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"never saw {n} queries in flight")


class TestCoalescingEndToEnd:
    """Concurrent queries share evaluation work through the engine cache:
    the single-thread executor runs their grids one after another."""

    def test_identical_concurrent_queries_evaluate_once(self):
        """N identical in-flight /advise requests evaluate each key once
        -- asserted through the engine's own counters -- and answer with
        byte-identical advice equal to offline advise()."""
        engine = SweepEngine()
        gate = Gate(engine)
        svc = AdvisorService(engine=engine, evaluate=gate)
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
            await _until_active(svc, n)
            gate.release.set()
            outcomes = await asyncio.gather(*posts)
            pool.shutdown(wait=True)
            return outcomes

        outcomes = _serve(svc, scenario)
        assert all(status == 200 for status, _ in outcomes)
        docs = [doc for _, doc in outcomes]
        assert len({_advice_bytes(doc) for doc in docs}) == 1
        assert docs[0]["advice"] == _offline_advice()
        grid = docs[0]["provenance"]["n_requests"]
        # Every query reached the engine; only the first evaluated.
        assert gate.calls == [grid] * n
        assert svc.engine.stats.evaluated == grid
        per_query = sorted((d["stats"]["evaluated"], d["stats"]["cache_hits"]) for d in docs)
        assert per_query == [(0, grid)] * (n - 1) + [(grid, 0)]

    def test_mixed_queries_share_only_overlapping_keys(self):
        """A query overlapping an in-flight grid evaluates only the
        points the two do not have in common."""
        engine = SweepEngine()
        gate = Gate(engine)
        svc = AdvisorService(engine=engine, evaluate=gate)
        a_doc = {**QUERY, "total_bytes": [1e5, 1e6]}
        b_doc = {**QUERY, "total_bytes": [1e6, 64e6]}  # shares the 1e6 column

        async def scenario(port):
            a = asyncio.create_task(asyncio.to_thread(_post, port, "/advise", a_doc))
            await _until_active(svc, 1)
            b = asyncio.create_task(asyncio.to_thread(_post, port, "/advise", b_doc))
            await _until_active(svc, 2)
            gate.release.set()
            return await asyncio.gather(a, b)

        (status_a, doc_a), (status_b, doc_b) = _serve(svc, scenario)
        assert status_a == 200 and status_b == 200
        n_classes = doc_a["provenance"]["n_classes"]
        assert doc_b["provenance"]["n_classes"] == n_classes
        # B recalled exactly the shared 1e6 column, one point per class.
        assert doc_a["stats"]["evaluated"] == 2 * n_classes
        assert doc_b["stats"]["evaluated"] == n_classes
        assert doc_b["stats"]["cache_hits"] == n_classes
        assert svc.engine.stats.evaluated == 3 * n_classes
        assert doc_b["advice"] == _offline_advice(b_doc["total_bytes"])

    def test_failure_reaches_every_query_and_the_next_one_retries(
        self, monkeypatch
    ):
        """An evaluator failure answers every concurrent query with a
        structured 500; failures are never cached, so the next query
        evaluates the grid afresh."""
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
            monkeypatch.setattr(
                evaluators, name, breakable(getattr(evaluators, name))
            )
        engine = SweepEngine(max_attempts=1)
        gate = Gate(engine)
        svc = AdvisorService(engine=engine, evaluate=gate)
        n = 3

        async def scenario(port):
            pool = ThreadPoolExecutor(max_workers=n)
            loop = asyncio.get_running_loop()
            posts = [
                loop.run_in_executor(pool, _post, port, "/advise", QUERY)
                for _ in range(n)
            ]
            await _until_active(svc, n)
            gate.release.set()
            failed = await asyncio.gather(*posts)
            pool.shutdown(wait=True)
            failing.clear()
            retried = await asyncio.to_thread(_post, port, "/advise", QUERY)
            return failed, retried

        failed, (status, doc) = _serve(svc, scenario)
        grid = doc["provenance"]["n_requests"]
        for fail_status, body in failed:
            assert fail_status == 500
            assert "injected evaluator failure" in body["error"]
            assert len(body["failed_points"]) == grid
        assert status == 200
        assert doc["stats"]["evaluated"] == grid
        assert doc["advice"] == _offline_advice()


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
            # a cache hit, and the engine evaluates nothing new.
            response = await advise_doc(svc, dict(QUERY))
            assert response["stats"]["evaluated"] == 0
            assert response["stats"]["cache_hits"] == submitted
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
            response = ask(svc, dict(QUERY))
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
