"""KeyCoalescer: concurrent grids sharing content keys share in-flight
work -- submitted once, coalesced everywhere else, deduped in-call."""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.coalesce import KeyCoalescer
from repro.workloads import collective_params


class FakeRequest:
    """The coalescer only reads ``.key``; no engine needed."""

    def __init__(self, key: str):
        self.key = key

    def __repr__(self):
        return f"FakeRequest({self.key})"


def run(coro):
    return asyncio.run(coro)


class GatedEvaluator:
    """A blocking evaluator the test releases explicitly, so 'in flight'
    is a controlled state rather than a race."""

    def __init__(self, fail: bool = False):
        self.release = threading.Event()
        self.calls: list[list[str]] = []
        self.fail = fail

    def __call__(self, requests):
        self.calls.append([r.key for r in requests])
        assert self.release.wait(10), "test never released the evaluator"
        if self.fail:
            raise RuntimeError("injected evaluator failure")
        return [{"key": r.key, "value": f"result-{r.key}"} for r in requests]


async def _settle(coalescer: KeyCoalescer, n_calls: int) -> None:
    """Yield until every concurrent evaluate() has registered its keys."""
    for _ in range(1000):
        if coalescer.stats.calls >= n_calls:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"never saw {n_calls} evaluate() calls")


class TestCoalescing:
    def test_identical_concurrent_calls_evaluate_once(self):
        async def main():
            ev = GatedEvaluator()
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(ev, executor=pool)
                grid = [FakeRequest("k1"), FakeRequest("k2")]
                n = 5
                tasks = [asyncio.create_task(coal.evaluate(grid)) for _ in range(n)]
                await _settle(coal, n)
                assert coal.inflight == 2
                ev.release.set()
                outcomes = await asyncio.gather(*tasks)
            results0, call0 = outcomes[0]
            assert [r["key"] for r in results0] == ["k1", "k2"]
            for results, _ in outcomes[1:]:
                assert results == results0
            # One underlying evaluation for the whole burst.
            assert ev.calls == [["k1", "k2"]]
            assert coal.stats.submitted == 2
            assert coal.stats.coalesced == (n - 1) * 2
            assert coal.stats.deduped == 0
            assert coal.stats.peak_inflight == 2
            assert coal.inflight == 0
            calls = sorted(
                (c.submitted, c.coalesced) for _, c in outcomes
            )
            assert calls == [(0, 2)] * (n - 1) + [(2, 0)]

        run(main())

    def test_mixed_batches_share_only_overlapping_keys(self):
        async def main():
            ev = GatedEvaluator()
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(ev, executor=pool)
                a = asyncio.create_task(
                    coal.evaluate([FakeRequest("k1"), FakeRequest("k2")])
                )
                await _settle(coal, 1)
                b = asyncio.create_task(
                    coal.evaluate([FakeRequest("k2"), FakeRequest("k3")])
                )
                await _settle(coal, 2)
                ev.release.set()
                (res_a, call_a), (res_b, call_b) = await asyncio.gather(a, b)
            # A submitted both its keys; B submitted only the new one and
            # coalesced onto A's in-flight k2.
            assert call_a.submitted == 2 and call_a.coalesced == 0
            assert call_b.submitted == 1 and call_b.coalesced == 1
            assert ev.calls == [["k1", "k2"], ["k3"]]
            assert [r["key"] for r in res_a] == ["k1", "k2"]
            assert [r["key"] for r in res_b] == ["k2", "k3"]
            # The shared point is literally the same result object.
            assert res_b[0] is res_a[1]

        run(main())

    def test_duplicate_keys_within_one_call_deduped(self):
        async def main():
            ev = GatedEvaluator()
            ev.release.set()  # no concurrency needed here
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(ev, executor=pool)
                grid = [FakeRequest("k1"), FakeRequest("k1"), FakeRequest("k2")]
                results, call = await coal.evaluate(grid)
            assert call.deduped == 1
            assert call.submitted == 2
            assert ev.calls == [["k1", "k2"]]
            assert results[0] is results[1]
            assert [r["key"] for r in results] == ["k1", "k1", "k2"]

        run(main())


class TestWarmProbe:
    """deduped counts cache/journal-satisfied keys, not just in-call
    duplicates (which advise grids never contain)."""

    def test_warm_keys_count_as_deduped_not_submitted(self):
        async def main():
            ev = GatedEvaluator()
            ev.release.set()
            warm_keys = {"k1", "k3"}
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(
                    ev, executor=pool, probe=lambda key: key in warm_keys
                )
                grid = [FakeRequest("k1"), FakeRequest("k2"), FakeRequest("k3")]
                results, call = await coal.evaluate(grid)
            # Warm keys still ride the engine batch (they need their
            # cached values fetched) but are not fresh evaluations.
            assert ev.calls == [["k1", "k2", "k3"]]
            assert call.deduped == 2
            assert call.submitted == 1
            assert call.keys == 3
            assert coal.stats.deduped == 2
            assert coal.stats.submitted == 1
            assert [r["key"] for r in results] == ["k1", "k2", "k3"]

        run(main())

    def test_warm_and_duplicate_keys_accumulate(self):
        async def main():
            ev = GatedEvaluator()
            ev.release.set()
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(ev, executor=pool, probe=lambda key: key == "k1")
                grid = [FakeRequest("k1"), FakeRequest("k1"), FakeRequest("k2")]
                _, call = await coal.evaluate(grid)
            assert call.deduped == 2  # one in-call duplicate + one warm key
            assert call.submitted == 1

        run(main())

    def test_engine_cache_warm_drives_the_probe(self):
        """End-to-end: an AdvisorService-style wiring reports previously
        evaluated keys as deduped on the second pass."""

        async def main():
            from repro.engine import SweepEngine
            from repro.topology.machines import generic_cluster

            engine = SweepEngine()
            topo = generic_cluster((2, 2), names=("node", "core"))
            from repro.engine import EvalRequest

            grid = [
                EvalRequest(
                    model="logp", topology=topo, hierarchy=topo.hierarchy,
                    order=(0, 1), comm_size=2, workload="collective",
                    workload_params=collective_params("alltoall", 2, nbytes),
                )
                for nbytes in (1e5, 1e6)
            ]
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(
                    engine.evaluate_batch, executor=pool,
                    probe=engine.cache.warm,
                )
                _, cold = await coal.evaluate(grid)
                _, hot = await coal.evaluate(grid)
            assert cold.submitted == 2 and cold.deduped == 0
            assert hot.submitted == 0 and hot.deduped == 2

        run(main())


class TestFailures:
    def test_failure_propagates_to_every_waiter_then_clears(self):
        async def main():
            ev = GatedEvaluator(fail=True)
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(ev, executor=pool)
                grid = [FakeRequest("k1")]
                tasks = [asyncio.create_task(coal.evaluate(grid)) for _ in range(3)]
                await _settle(coal, 3)
                ev.release.set()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                assert all(isinstance(o, RuntimeError) for o in outcomes)
                assert coal.inflight == 0  # failed keys cleared for retry
                # The next call re-submits instead of awaiting a dead future.
                ev.fail = False
                results, call = await coal.evaluate(grid)
            assert call.submitted == 1
            assert results[0]["key"] == "k1"
            assert len(ev.calls) == 2

        run(main())

    def test_length_mismatch_is_an_error_not_a_hang(self):
        async def main():
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(lambda reqs: [], executor=pool)
                with pytest.raises(RuntimeError, match="0 results"):
                    await coal.evaluate([FakeRequest("k1")])
                assert coal.inflight == 0

        run(main())

    def test_cancelled_submitter_still_serves_coalesced_waiters(self):
        async def main():
            ev = GatedEvaluator()
            with ThreadPoolExecutor(max_workers=1) as pool:
                coal = KeyCoalescer(ev, executor=pool)
                grid = [FakeRequest("k1")]
                first = asyncio.create_task(coal.evaluate(grid))
                await _settle(coal, 1)
                second = asyncio.create_task(coal.evaluate(grid))
                await _settle(coal, 2)
                # The submitting request dies; the evaluation does not.
                first.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await first
                ev.release.set()
                results, call = await second
            assert call.coalesced == 1
            assert results[0]["key"] == "k1"

        run(main())
