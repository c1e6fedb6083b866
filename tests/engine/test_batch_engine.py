"""The in-process vectorized path hits and populates the ResultCache
identically to per-request evaluation on workers.

A worker-less engine (``jobs=1``) scores ``round``/``logp`` points as
one vectorized pass; a ``jobs=2`` engine sends every point to its
workers one request at a time.  The cache contract: every point still
lives under its own content-addressed key, so both paths write
byte-identical on-disk records over the same grid, a warm run on either
path evaluates nothing regardless of which path filled the cache, and a
vectorized run can resume from a journal written by an interrupted run
on workers (evaluating only the keys that never completed).
"""

from __future__ import annotations

import json

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import EvalRequest, SweepEngine
from repro.engine.evaluators import evaluate_request
from repro.engine.journal import JOURNAL_NAME
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params

H = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))
ORDERS = [(0, 1, 2), (2, 1, 0), (1, 0, 2)]
SIZES = [16e3, 1e6]


def _requests(model: str = "logp") -> list[EvalRequest]:
    return [
        EvalRequest(
            model=model,
            topology=TOPO,
            hierarchy=H,
            order=order,
            comm_size=4,
            workload="collective",
            workload_params=collective_params("alltoall", 4, s),
        )
        for order in ORDERS
        for s in SIZES
    ]


def _disk_records(cache_dir) -> dict[str, str]:
    """On-disk record text keyed by relative path (journal excluded)."""
    return {
        str(p.relative_to(cache_dir)): p.read_text()
        for p in sorted(cache_dir.rglob("*.json"))
    }


@pytest.mark.parametrize("model", ["logp", "round"])
class TestCacheIdentity:
    def test_batch_writes_identical_disk_records(self, model, tmp_path):
        scalar_dir = tmp_path / "scalar"
        batch_dir = tmp_path / "batch"
        scalar = SweepEngine(jobs=2, cache_dir=scalar_dir)
        res_s = scalar.evaluate_many(_requests(model))
        batch = SweepEngine(cache_dir=batch_dir)
        res_b = batch.evaluate_many(_requests(model))
        assert scalar.stats.batched == 0
        assert batch.stats.batched > 0
        assert [repr(r) for r in res_b] == [repr(r) for r in res_s]
        recs_s = _disk_records(scalar_dir)
        recs_b = _disk_records(batch_dir)
        assert recs_s  # the sweep actually persisted something
        assert recs_b == recs_s  # same keys, byte-identical records
        # Journals promise the same completed keys in either mode.
        keys_s = {
            json.loads(line)["key"]
            for line in (scalar_dir / JOURNAL_NAME).read_text().splitlines()
        }
        keys_b = {
            json.loads(line)["key"]
            for line in (batch_dir / JOURNAL_NAME).read_text().splitlines()
        }
        assert keys_b == keys_s

    def test_warm_batch_after_scalar_evaluates_nothing(self, model, tmp_path):
        cold = SweepEngine(jobs=2, cache_dir=tmp_path)
        res_cold = cold.evaluate_many(_requests(model))
        warm = SweepEngine(cache_dir=tmp_path)
        res_warm = warm.evaluate_many(_requests(model))
        assert warm.stats.evaluated == 0
        assert warm.stats.batched == 0  # nothing left to batch
        assert [repr(r) for r in res_warm] == [repr(r) for r in res_cold]

    def test_warm_scalar_after_batch_evaluates_nothing(self, model, tmp_path):
        cold = SweepEngine(cache_dir=tmp_path)
        res_cold = cold.evaluate_many(_requests(model))
        warm = SweepEngine(jobs=2, cache_dir=tmp_path)
        res_warm = warm.evaluate_many(_requests(model))
        assert warm.stats.evaluated == 0
        assert [repr(r) for r in res_warm] == [repr(r) for r in res_cold]


class TestResumeFromScalarJournal:
    def test_batch_resume_evaluates_only_missing_keys(self, tmp_path):
        requests = _requests("logp")
        # An interrupted run on workers: only a prefix of the grid completed.
        prefix = requests[:3]
        interrupted = SweepEngine(jobs=2, cache_dir=tmp_path, prune=False)
        interrupted.evaluate_many(prefix)
        done = len({r.key for r in prefix})
        # A vectorized run over the full grid resumes from that journal.
        resumed = SweepEngine(cache_dir=tmp_path, prune=False)
        assert resumed.stats.journal_replayed == done
        results = resumed.evaluate_many(requests)
        distinct = len({r.key for r in requests})
        assert resumed.stats.evaluated == distinct - done
        assert resumed.stats.disk_hits >= done
        # The resumed output matches per-request evaluation bitwise.
        reference = [evaluate_request(r) for r in requests]
        assert [repr(r) for r in results] == [repr(r) for r in reference]

    def test_journal_promised_but_lost_record_reevaluated(self, tmp_path):
        requests = _requests("logp")[:2]
        first = SweepEngine(jobs=2, cache_dir=tmp_path, prune=False)
        first.evaluate_many(requests)
        lost = requests[0]
        (tmp_path / lost.key[:2] / f"{lost.key}.json").unlink()
        again = SweepEngine(cache_dir=tmp_path, prune=False)
        res = again.evaluate_many(requests)
        assert again.stats.journal_missing == 1
        assert again.stats.evaluated == 1
        reference = [evaluate_request(r) for r in requests]
        assert [repr(r) for r in res] == [repr(r) for r in reference]


class TestBatchFallback:
    def test_non_batchable_model_falls_back_to_pool(self, tmp_path):
        # "verify" has no batch evaluator; a worker-less engine must
        # still evaluate it, under its serial supervisor.
        req = EvalRequest(
            model="verify",
            topology=TOPO,
            comm_size=4,
            workload="collective",
            workload_params=collective_params("alltoall", 4, 16e3, "pairwise"),
        )
        eng = SweepEngine(cache_dir=tmp_path)
        res_b = eng.evaluate_many([req])[0]
        assert eng.stats.batched == 0
        reference = evaluate_request(req)
        assert repr(res_b) == repr(reference)

    def test_batch_pass_exception_falls_back(self, monkeypatch):
        import repro.engine.evaluators as evaluators

        def boom(requests):
            raise RuntimeError("vectorized pass exploded")

        monkeypatch.setitem(evaluators.BATCH_EVALUATORS, "logp", boom)
        eng = SweepEngine()
        requests = _requests("logp")
        results = eng.evaluate_many(requests)
        assert eng.stats.batch_fallbacks == 1
        assert eng.stats.batched == 0
        reference = [evaluate_request(r) for r in requests]
        assert [repr(r) for r in results] == [repr(r) for r in reference]


@pytest.mark.parametrize("model", ["logp", "round"])
class TestMachineSpanningCommunicator:
    """A communicator spanning the whole machine is its only instance, so
    the batch evaluator prices it once per placement group: the
    all-instances duration is the single-instance one, bit for bit."""

    def test_one_pass_per_group(self, model, monkeypatch):
        from repro.engine.evaluators import BATCH_EVALUATORS
        from repro.ir import get_backend

        backend = get_backend(model)
        calls = []
        run_batch = backend.run_batch

        def counting(programs, topology, placements, **options):
            calls.append(len(placements))
            return run_batch(programs, topology, placements, **options)

        monkeypatch.setattr(backend, "run_batch", counting)
        requests = [
            EvalRequest(
                model=model,
                topology=TOPO,
                hierarchy=H,
                order=order,
                comm_size=H.size,
                workload="collective",
                workload_params=collective_params("alltoall", H.size, s),
            )
            for order in ORDERS
            for s in SIZES
        ]
        results = BATCH_EVALUATORS[model](requests)
        assert calls == [1] * len(ORDERS)
        for res in results:
            assert repr(res["duration_all"]) == repr(res["duration_single"])


class TestPathRule:
    """The worker configuration picks the path; results never change."""

    def test_workers_pick_the_path(self):
        from repro.engine import TaskSupervisor

        requests = _requests("round")
        worker_less = SweepEngine(prune=False)
        on_workers = SweepEngine(jobs=2, prune=False)
        with TaskSupervisor(jobs=2) as pool:
            caller_owned = SweepEngine(prune=False, dispatcher=pool)
            results = [
                engine.evaluate_many(requests)
                for engine in (worker_less, on_workers, caller_owned)
            ]
        assert worker_less.stats.batched == len(requests)
        assert on_workers.stats.batched == 0
        assert caller_owned.stats.batched == 0
        assert [repr(r) for r in results[1]] == [repr(r) for r in results[0]]
        assert [repr(r) for r in results[2]] == [repr(r) for r in results[0]]

    def test_chaos_flaky_fails_the_vectorized_pass(self, monkeypatch):
        from repro.engine.chaos import CHAOS_ENV

        requests = _requests("logp")
        clean = [evaluate_request(r) for r in requests]
        # Every first attempt is hit; the supervisor's retry recovers.
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0")
        eng = SweepEngine(prune=False, retry_backoff=0.0)
        results = eng.evaluate_many(requests)
        assert eng.stats.batch_fallbacks == 1
        assert eng.stats.batched == 0
        assert eng.stats.retries == len(requests)
        assert not eng.failures
        assert [repr(r) for r in results] == [repr(r) for r in clean]
