"""SweepEngine behavior: memoization, pruning, audit, parallel identity."""

from __future__ import annotations

import json

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import (
    EngineAuditError,
    EvalRequest,
    SweepEngine,
    is_failure,
    register_evaluator,
)
from repro.engine.evaluators import EVALUATORS
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params
from tests.engine.conftest import swap_evaluator


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
        monkeypatch.setitem(EVALUATORS, "verify", _order_blind_eval)
        eng = SweepEngine()
        eng.evaluate_many([_round_req(o, model="verify") for o in EQUIV_ORDERS])
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
    """Quarantine, crash-safe journaling, and resume at the engine level."""

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
        # failed key and serves the journaled one from cache.
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
        # The cache record rots; the journal still promises the key.
        record = tmp_path / req.key[:2] / f"{req.key}.json"
        record.write_text(record.read_text()[:30])
        again = SweepEngine(cache_dir=tmp_path)
        assert again.evaluate(req) == {"value": 1e6}
        assert again.stats.cache_quarantined == 1
        assert again.stats.journal_missing == 1
        assert again.stats.evaluated == 1

    def test_startup_gc_counts_stale_tmp_files(self, fake_round, tmp_path):
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / "tmpstranded.tmp").write_text("half a record")
        eng = SweepEngine(cache_dir=tmp_path)
        assert eng.stats.tmp_files_removed == 1

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
            "journal_missing",
            "tmp_files_removed",
        ):
            assert field in doc


class TestRegistry:
    def test_unknown_model_raises(self):
        eng = SweepEngine()
        with pytest.raises(ValueError, match="no evaluator"):
            eng.evaluate(_round_req(model="no-such-model"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_evaluator("round", _order_blind_eval)
