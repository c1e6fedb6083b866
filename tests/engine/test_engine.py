"""SweepEngine behavior: memoization, pruning, audit, parallel identity,
and the record log's durability contract."""

from __future__ import annotations

import errno
import json
import os

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import (
    EngineAuditError,
    EvalRequest,
    SweepEngine,
    is_failure,
    register_evaluator,
)
from repro.engine.cache import LOG_NAME
from repro.engine.evaluators import EVALUATORS
from repro.engine.keys import CACHE_SCHEMA
from repro.engine.supervisor import TaskSupervisor
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params
from tests.engine.conftest import swap_evaluator, tear_record


H = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))

#: (2, 0, 1) and (2, 1, 0) are strictly equivalent at comm size 4 on
#: [[2, 2, 4]] (tests/core/test_equivalence.py pins this).
EQUIV_ORDERS = ((2, 0, 1), (2, 1, 0))


def _round_req(order=(0, 1, 2), total=1e6, **overrides) -> EvalRequest:
    base = dict(
        model="round",
        topology=TOPO,
        hierarchy=H,
        order=order,
        comm_size=4,
        workload="collective",
        workload_params=collective_params("alltoall", 4, total),
    )
    base.update(overrides)
    return EvalRequest(**base)


def _order_blind_eval(req: EvalRequest) -> dict:
    return {"value": float(req.param("total_bytes") or 0.0)}


def _order_sensitive_eval(req: EvalRequest) -> dict:
    # Distinguishes orders inside one equivalence class: a broken
    # "prunable" model the audit mode must catch.
    return {"value": float(req.order[1])}


@pytest.fixture
def fake_round(monkeypatch):
    """Replace the round evaluator with a cheap order-blind stub."""
    swap_evaluator(monkeypatch, "round", _order_blind_eval)


class TestMemoization:
    def test_repeat_evaluation_hits_cache(self, fake_round):
        eng = SweepEngine()
        first = eng.evaluate(_round_req())
        second = eng.evaluate(_round_req())
        assert first == second
        assert eng.stats.evaluated == 1
        assert eng.stats.memory_hits == 1
        assert eng.stats.requests == 2

    def test_duplicates_in_one_batch_evaluate_once(self, fake_round):
        eng = SweepEngine()
        out = eng.evaluate_many([_round_req(), _round_req(), _round_req()])
        assert out[0] == out[1] == out[2]
        assert eng.stats.evaluated == 1

    def test_distinct_requests_all_evaluate(self, fake_round):
        eng = SweepEngine(prune=False)
        out = eng.evaluate_many([_round_req(total=1e6), _round_req(total=2e6)])
        assert out[0]["value"] == 1e6 and out[1]["value"] == 2e6
        assert eng.stats.evaluated == 2


class TestPruning:
    def test_equivalence_class_evaluates_once(self, fake_round):
        eng = SweepEngine()
        a, b = eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        assert a == b
        assert eng.stats.evaluated == 1
        assert eng.stats.pruned == 1

    def test_broadcast_caches_member_keys(self, fake_round):
        eng = SweepEngine()
        eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        # A later direct request for the pruned member is a pure hit.
        eng.evaluate(_round_req(EQUIV_ORDERS[1]))
        assert eng.stats.evaluated == 1
        assert eng.stats.memory_hits == 1

    def test_inequivalent_orders_not_merged(self, fake_round):
        eng = SweepEngine()
        eng.evaluate_many([_round_req((0, 1, 2)), _round_req((1, 0, 2))])
        assert eng.stats.evaluated == 2
        assert eng.stats.pruned == 0

    def test_non_prunable_models_are_solo(self, fake_round, monkeypatch):
        # A model outside PRUNABLE_MODELS, registered for this test only.
        monkeypatch.setitem(EVALUATORS, "order_blind", _order_blind_eval)
        eng = SweepEngine()
        eng.evaluate_many(
            [_round_req(o, model="order_blind") for o in EQUIV_ORDERS]
        )
        assert eng.stats.evaluated == 2
        assert eng.stats.pruned == 0


class TestAuditMode:
    def test_audit_passes_for_sound_classes(self, fake_round):
        eng = SweepEngine(prune=False)
        a, b = eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        assert a == b
        assert eng.stats.evaluated == 2
        assert eng.stats.pruned == 0
        assert eng.stats.audited == 1

    def test_audit_catches_order_sensitive_results(self, monkeypatch):
        swap_evaluator(monkeypatch, "round", _order_sensitive_eval)
        eng = SweepEngine(prune=False)
        with pytest.raises(EngineAuditError, match="value"):
            eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])

    def test_audit_catches_field_divergence(self, monkeypatch):
        def diverging(req):
            return {"value": 1.0} if req.order == (2, 0, 1) else {"other": 1.0}

        swap_evaluator(monkeypatch, "round", diverging)
        eng = SweepEngine(prune=False)
        with pytest.raises(EngineAuditError, match="fields diverge"):
            eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])

    def test_real_round_model_survives_audit(self):
        # The actual simulator must agree with the equivalence theory.
        eng = SweepEngine(prune=False)
        a, b = eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        assert a == b
        assert eng.stats.audited == 1


class TestParallel:
    def test_jobs_2_bitwise_matches_serial(self):
        from repro.core.orders import all_orders

        reqs = [
            _round_req(o, total=t)
            for o in all_orders(3)
            for t in (64e3, 1e6)
        ]
        serial = SweepEngine(jobs=1).evaluate_many(reqs)
        parallel = SweepEngine(jobs=2).evaluate_many(reqs)
        assert serial == parallel

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)


class TestDiskCache:
    def test_warm_engine_reuses_results(self, tmp_path):
        reqs = [_round_req((0, 1, 2)), _round_req((1, 0, 2))]
        cold = SweepEngine(cache_dir=tmp_path)
        first = cold.evaluate_many(reqs)
        warm = SweepEngine(cache_dir=tmp_path)
        second = warm.evaluate_many(reqs)
        assert first == second
        assert warm.stats.evaluated == 0
        assert warm.stats.disk_hits == 2
        assert warm.stats.cache_hit_rate == 1.0

    def test_cold_request_canonicalised_twice_warm_once(self, monkeypatch, tmp_path):
        """The key's document, then one more for grouping and the log."""
        calls: list[str] = []
        real = EvalRequest.canonical
        monkeypatch.setattr(
            EvalRequest, "canonical", lambda req: calls.append(req.model) or real(req)
        )
        cold = SweepEngine(cache_dir=tmp_path)
        cold.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        assert cold.stats.pruned == 1 and len(calls) == 2 * len(EQUIV_ORDERS)
        calls.clear()
        SweepEngine(cache_dir=tmp_path).evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        assert len(calls) == len(EQUIV_ORDERS)  # warm: the key only

    def test_pruned_members_persist_to_disk(self, fake_round, tmp_path):
        cold = SweepEngine(cache_dir=tmp_path)
        cold.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        warm = SweepEngine(cache_dir=tmp_path)
        warm.evaluate(_round_req(EQUIV_ORDERS[1]))
        assert warm.stats.evaluated == 0 and warm.stats.disk_hits == 1


class TestBenchJson:
    def test_artifact_fields(self, fake_round, tmp_path):
        eng = SweepEngine(jobs=1)
        eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        path = tmp_path / "BENCH_sweep.json"
        doc = eng.write_bench_json(path, extra={"figure": "unit"})
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        for field in (
            "version",
            "jobs",
            "wall_clock_s",
            "requests",
            "evaluated",
            "cache_hit_rate",
            "pruned_evaluations_saved",
        ):
            assert field in on_disk
        assert on_disk["figure"] == "unit"
        assert on_disk["requests"] == 2
        assert on_disk["evaluated"] == 1
        assert on_disk["pruned_evaluations_saved"] == 1


class TestRobustness:
    """Quarantine, the crash-safe record log, and resume at the engine level."""

    def _boom_on(self, total):
        def eval_or_boom(req: EvalRequest) -> dict:
            if req.param("total_bytes") == total:
                raise RuntimeError("permanently broken cell")
            return _order_blind_eval(req)

        return eval_or_boom

    def test_bad_task_salvages_rest_of_batch(self, monkeypatch):
        swap_evaluator(monkeypatch, "round", self._boom_on(2e6))
        eng = SweepEngine(max_attempts=2, retry_backoff=0.0)
        reqs = [_round_req(total=t) for t in (1e6, 2e6, 3e6)]
        out = eng.evaluate_many(reqs)
        assert out[0] == {"value": 1e6} and out[2] == {"value": 3e6}
        assert is_failure(out[1])
        assert out[1]["failure_cause"] == "exception"
        assert len(eng.failures) == 1
        assert eng.stats.quarantined == 1
        assert eng.stats.worker_exceptions == 2  # both attempts
        assert "quarantined" in eng.failure_summary()

    def test_failures_never_cached_so_fix_reruns_them(self, monkeypatch, tmp_path):
        swap_evaluator(monkeypatch, "round", self._boom_on(2e6))
        eng = SweepEngine(cache_dir=tmp_path, max_attempts=1)
        reqs = [_round_req(total=t) for t in (1e6, 2e6)]
        eng.evaluate_many(reqs)
        # The evaluator is "fixed"; a resumed engine retries only the
        # failed key and serves the logged one from cache.
        swap_evaluator(monkeypatch, "round", _order_blind_eval)
        eng2 = SweepEngine(cache_dir=tmp_path)
        out = eng2.evaluate_many(reqs)
        assert out == [{"value": 1e6}, {"value": 2e6}]
        assert eng2.stats.evaluated == 1
        assert eng2.stats.journal_replayed == 1
        assert not eng2.failures

    def test_class_members_share_representative_failure(self, monkeypatch):
        def always_boom(req: EvalRequest) -> dict:
            raise RuntimeError("boom")

        swap_evaluator(monkeypatch, "round", always_boom)
        eng = SweepEngine(max_attempts=1)
        a, b = eng.evaluate_many([_round_req(o) for o in EQUIV_ORDERS])
        assert is_failure(a) and b is a  # broadcast, not re-evaluated
        assert eng.stats.pruned == 0  # a failure saves nothing
        assert len(eng.failures) == 1

    def test_interrupted_sweep_resumes_incrementally(self, fake_round, tmp_path):
        reqs = [_round_req(total=float(t)) for t in (1e6, 2e6, 3e6, 4e6)]
        interrupted = SweepEngine(cache_dir=tmp_path)
        interrupted.evaluate_many(reqs[:2])  # then the process "dies"
        resumed = SweepEngine(cache_dir=tmp_path)
        out = resumed.evaluate_many(reqs)
        assert out == [{"value": float(t)} for t in (1e6, 2e6, 3e6, 4e6)]
        assert resumed.stats.journal_replayed == 2
        assert resumed.stats.evaluated == 2  # only the incomplete keys

    def test_journaled_but_lost_record_reevaluates(self, fake_round, tmp_path):
        req = _round_req()
        first = SweepEngine(cache_dir=tmp_path)
        first.evaluate(req)
        # The record rots; its line still names the key.
        tear_record(tmp_path, req.key)
        again = SweepEngine(cache_dir=tmp_path)
        assert again.stats.journal_replayed == 1
        assert again.evaluate(req) == {"value": 1e6}
        assert again.stats.cache_quarantined == 1
        assert again.stats.evaluated == 1
        # The fresh record appended after it wins from now on.
        third = SweepEngine(cache_dir=tmp_path)
        assert third.evaluate(req) == {"value": 1e6}
        assert third.stats.evaluated == 0 and third.stats.cache_quarantined == 0

    def test_old_layout_cache_dir_opens_cold(self, fake_round, tmp_path):
        """A directory written before the record log (one ``ab/<key>.json``
        per key plus ``sweep-journal.jsonl``) is ignored, not an error."""
        req = _round_req()
        old = tmp_path / req.key[:2] / f"{req.key}.json"
        old.parent.mkdir()
        old.write_text(json.dumps({"key": req.key, "schema": CACHE_SCHEMA,
                                   "checksum": "0", "result": {"value": 1.0}}))
        journal = tmp_path / "sweep-journal.jsonl"
        journal.write_text(json.dumps({"key": req.key, "schema": CACHE_SCHEMA}) + "\n")
        eng = SweepEngine(cache_dir=tmp_path)
        assert eng.stats.journal_replayed == 0
        assert eng.evaluate(req) == {"value": 1e6}
        assert eng.stats.evaluated == 1 and eng.stats.cache_quarantined == 0
        assert old.exists() and journal.exists()  # left as they were

    def test_bench_json_reports_robustness_counters(self, monkeypatch, tmp_path):
        swap_evaluator(monkeypatch, "round", self._boom_on(1e6))
        eng = SweepEngine(max_attempts=1)
        eng.evaluate(_round_req())
        doc = eng.write_bench_json(tmp_path / "BENCH_sweep.json")
        assert doc["quarantined"] == 1
        for field in (
            "retries",
            "crashes",
            "timeouts",
            "worker_exceptions",
            "degraded_serial",
            "cache_quarantined",
            "journal_replayed",
        ):
            assert field in doc
        assert not {"journal_missing", "tmp_files_removed"} & set(doc)


class TestRecordLog:
    """Durability of the record log: synced before reported, and a
    failing disk never fails a sweep."""

    @staticmethod
    def _spy_syncs(monkeypatch):
        """Record the synced file's size at every data sync."""
        synced: list[int] = []
        name = "fdatasync" if hasattr(os, "fdatasync") else "fsync"
        real = getattr(os, name)

        def spy(fd):
            real(fd)
            synced.append(os.fstat(fd).st_size)

        monkeypatch.setattr(os, name, spy)
        return synced

    def test_each_worker_result_synced_before_reported(self, monkeypatch, tmp_path):
        log = tmp_path / LOG_NAME
        synced = self._spy_syncs(monkeypatch)
        groups: list[int] = []
        reported: list[bool] = []

        class Spy(TaskSupervisor):
            def run(self, requests, on_complete=None):
                def report(settled):
                    on_complete(settled)
                    # Reported complete: every byte of the log is synced.
                    reported.append(synced[-1] == log.stat().st_size)
                    groups.append(len(settled))

                return super().run(requests, on_complete=report)

        with Spy(jobs=2) as spy:
            eng = SweepEngine(cache_dir=tmp_path, dispatcher=spy)
            reqs = [
                _round_req(o, total=t) for o in ((0, 1, 2), (1, 0, 2)) for t in (1e6, 2e6)
            ]
            eng.evaluate_many(reqs)
        assert sum(groups) == len(reqs)
        assert reported == [True] * len(groups)
        assert len(synced) == len(groups)  # one append and sync per group

    def test_vectorized_pass_and_broadcast_sync_once_each(self, monkeypatch, tmp_path):
        synced = self._spy_syncs(monkeypatch)
        eng = SweepEngine(cache_dir=tmp_path)
        eng.evaluate_many([_round_req(o, total=t) for o in EQUIV_ORDERS for t in (1e6, 2e6)])
        assert eng.stats.batched == 2 and eng.stats.pruned == 2
        lines = (tmp_path / LOG_NAME).read_text().splitlines()
        assert len(lines) == 4
        # The pass settles as one append, the broadcast step as another.
        assert len(synced) == 2 and synced[-1] == (tmp_path / LOG_NAME).stat().st_size

    @pytest.mark.parametrize("call", ["write", "fsync"])
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS])
    def test_failing_storage_never_fails_a_sweep(
        self, monkeypatch, tmp_path, caplog, call, code
    ):
        from repro.bench.sweeps import sweep

        grid = dict(comm_sizes=[4], collectives=["alltoall", "allreduce"], sizes=[1e6])
        healthy = sweep(TOPO, H, cache_dir=tmp_path / "healthy", **grid)

        def fail(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, call, fail)
        if call == "fsync":
            monkeypatch.setattr(os, "fdatasync", fail, raising=False)
        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            failing = sweep(TOPO, H, cache_dir=tmp_path / "failing", **grid)
        assert failing == healthy
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and os.strerror(code) in warnings[0].getMessage()


class TestRegistry:
    def test_unknown_model_raises(self):
        eng = SweepEngine()
        with pytest.raises(ValueError, match="no evaluator"):
            eng.evaluate(_round_req(model="no-such-model"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_evaluator("round", _order_blind_eval)


def test_des_evaluation_is_pinned():
    """The des evaluator's output on one request, as the records-building
    replay gave it: building no records changes no time."""
    req = EvalRequest(
        model="des",
        topology=TOPO,
        hierarchy=H,
        order=(2, 0, 1),
        comm_size=8,
        workload="collective",
        workload_params=collective_params("alltoall", 8, 1e6),
        extras=(("des_all", True),),
    )
    assert EVALUATORS["des"](req) == {
        "duration_des": 3.246428571428571e-05,
        "duration_round": 3.246428571428572e-05,
        "duration_single": 3.246428571428571e-05,
        "n_rounds": 7.0,
        "duration_all": 5.050000000000001e-05,
    }
