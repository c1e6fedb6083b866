"""Batch sweeps hit and populate the ResultCache identically to scalar.

The batch path's cache contract: every point still lives under its own
content-addressed key, so a batch sweep writes byte-identical on-disk
records to a scalar sweep over the same grid, a warm run in either mode
evaluates nothing regardless of which mode filled the cache, and a batch
run can resume from a journal written by an interrupted *scalar* run
(evaluating only the keys that never completed).
"""

from __future__ import annotations

import json

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import EvalRequest, SweepEngine
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
        scalar = SweepEngine(cache_dir=scalar_dir)
        res_s = scalar.evaluate_many(_requests(model))
        batch = SweepEngine(cache_dir=batch_dir)
        res_b = batch.evaluate_batch(_requests(model))
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
        cold = SweepEngine(cache_dir=tmp_path)
        res_cold = cold.evaluate_many(_requests(model))
        warm = SweepEngine(cache_dir=tmp_path)
        res_warm = warm.evaluate_batch(_requests(model))
        assert warm.stats.evaluated == 0
        assert warm.stats.batched == 0  # nothing left to batch
        assert [repr(r) for r in res_warm] == [repr(r) for r in res_cold]

    def test_warm_scalar_after_batch_evaluates_nothing(self, model, tmp_path):
        cold = SweepEngine(cache_dir=tmp_path)
        res_cold = cold.evaluate_batch(_requests(model))
        warm = SweepEngine(cache_dir=tmp_path)
        res_warm = warm.evaluate_many(_requests(model))
        assert warm.stats.evaluated == 0
        assert [repr(r) for r in res_warm] == [repr(r) for r in res_cold]


class TestResumeFromScalarJournal:
    def test_batch_resume_evaluates_only_missing_keys(self, tmp_path):
        requests = _requests("logp")
        # An interrupted scalar run: only a prefix of the grid completed.
        prefix = requests[:3]
        interrupted = SweepEngine(cache_dir=tmp_path, prune=False)
        interrupted.evaluate_many(prefix)
        done = len({r.key for r in prefix})
        # A batch run over the full grid resumes from the scalar journal.
        resumed = SweepEngine(cache_dir=tmp_path, prune=False)
        assert resumed.stats.journal_replayed == done
        results = resumed.evaluate_batch(requests)
        distinct = len({r.key for r in requests})
        assert resumed.stats.evaluated == distinct - done
        assert resumed.stats.disk_hits >= done
        # The resumed output matches an uninterrupted scalar run bitwise.
        reference = SweepEngine(prune=False).evaluate_many(requests)
        assert [repr(r) for r in results] == [repr(r) for r in reference]

    def test_journal_promised_but_lost_record_reevaluated(self, tmp_path):
        requests = _requests("logp")[:2]
        first = SweepEngine(cache_dir=tmp_path, prune=False)
        first.evaluate_many(requests)
        lost = requests[0]
        (tmp_path / lost.key[:2] / f"{lost.key}.json").unlink()
        again = SweepEngine(cache_dir=tmp_path, prune=False)
        res = again.evaluate_batch(requests)
        assert again.stats.journal_missing == 1
        assert again.stats.evaluated == 1
        reference = SweepEngine(prune=False).evaluate_many(requests)
        assert [repr(r) for r in res] == [repr(r) for r in reference]


class TestBatchFallback:
    def test_non_batchable_model_falls_back_to_pool(self, tmp_path):
        # "verify" has no batch evaluator; evaluate_batch must still work.
        req = EvalRequest(
            model="verify",
            topology=TOPO,
            comm_size=4,
            workload="collective",
            workload_params=collective_params("alltoall", 4, 16e3, "pairwise"),
        )
        eng = SweepEngine(cache_dir=tmp_path)
        res_b = eng.evaluate_batch([req])[0]
        assert eng.stats.batched == 0
        reference = SweepEngine().evaluate_many([req])[0]
        assert repr(res_b) == repr(reference)

    def test_batch_pass_exception_falls_back(self, monkeypatch):
        import repro.engine.evaluators as evaluators

        def boom(requests):
            raise RuntimeError("vectorized pass exploded")

        monkeypatch.setitem(evaluators.BATCH_EVALUATORS, "logp", boom)
        eng = SweepEngine()
        requests = _requests("logp")
        results = eng.evaluate_batch(requests)
        assert eng.stats.batch_fallbacks == 1
        assert eng.stats.batched == 0
        reference = SweepEngine().evaluate_many(requests)
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
