"""TaskSupervisor: crash/hang/flaky recovery, quarantine, degradation.

The execution faults come from the deterministic chaos harness
(:mod:`repro.engine.chaos`), driven through the ``REPRO_ENGINE_CHAOS``
environment variable exactly as CI's chaos-smoke job drives it.  The
dispatcher tests run with local workers in their own classes and again
with remote workers in :class:`TestRemoteWorkers` (the ``pool`` fixture
in ``conftest.py`` builds either kind).
"""

from __future__ import annotations

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import EvalRequest, is_failure
from repro.engine import supervisor as sup_mod
from repro.engine.chaos import CHAOS_ENV, ChaosSpec, parse_spec
from repro.engine.supervisor import EvalFailure, TaskSupervisor
from repro.topology.machines import generic_cluster
from repro.util.retry import RetryPolicy
from repro.workloads import collective_params
from tests.engine.conftest import swap_evaluator


H = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))


def _reqs(n: int) -> list[EvalRequest]:
    return [
        EvalRequest(
            model="round",
            topology=TOPO,
            hierarchy=H,
            order=(0, 1, 2),
            comm_size=4,
            workload="collective",
            workload_params=collective_params("alltoall", 4, float((i + 1) * 100_000)),
        )
        for i in range(n)
    ]


def _cheap_eval(req: EvalRequest) -> dict:
    return {"value": float(req.param("total_bytes") or 0.0)}


@pytest.fixture
def cheap_round(monkeypatch):
    # ``_reqs`` is one placement group, so it runs as one chunk through
    # the batch registry until a failure splits it.
    swap_evaluator(monkeypatch, "round", _cheap_eval)


def _expected(reqs):
    return [{"value": float(r.param("total_bytes"))} for r in reqs]


class TestHealthyPath:
    def test_serial_and_parallel_identical(self, cheap_round, pool):
        reqs = _reqs(5)
        serial = TaskSupervisor(jobs=1).run(reqs)
        parallel = pool(3).run(reqs)
        assert serial == parallel == _expected(reqs)

    def test_on_complete_fires_once_per_task(self, cheap_round):
        reqs = _reqs(4)
        groups: list[list[int]] = []
        with TaskSupervisor(jobs=2) as sup:
            sup.run(reqs, on_complete=lambda settled: groups.append([i for i, _ in settled]))
        # Results arrive in groups (one per manager poll), never empty,
        # and each task is reported exactly once.
        assert all(groups)
        assert sorted(i for group in groups for i in group) == [0, 1, 2, 3]

    def test_empty_batch(self):
        assert TaskSupervisor(jobs=2).run([]) == []

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            TaskSupervisor(jobs=0)


class TestChaosRecovery:
    """Injected first-attempt faults; every retry must recover bitwise."""

    def test_flaky_retries_recover(self, cheap_round, monkeypatch, pool):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0")
        reqs = _reqs(4)
        sup = pool(2, policy=RetryPolicy(max_attempts=3))
        assert sup.run(reqs) == _expected(reqs)
        assert sup.stats.exceptions == 4
        assert sup.stats.retries == 4
        assert sup.stats.quarantined == 0

    def test_worker_crash_detected_and_retried(self, cheap_round, monkeypatch, pool):
        monkeypatch.setenv(CHAOS_ENV, "crash=1.0")
        reqs = _reqs(3)
        sup = pool(2, policy=RetryPolicy(max_attempts=3), spares=len(reqs))
        assert sup.run(reqs) == _expected(reqs)
        assert sup.stats.crashes == 3
        if pool.join == "local":
            assert sup.stats.workers_respawned >= 1
        else:  # a dead remote worker leaves the pool; spares took over
            assert sup.stats.workers_respawned == 0
            assert not sup.stats.degraded_serial
        assert sup.stats.quarantined == 0

    def test_hung_worker_killed_at_deadline(self, cheap_round, monkeypatch, pool):
        monkeypatch.setenv(CHAOS_ENV, "hang=1.0,hang_s=60")
        reqs = _reqs(2)
        sup = pool(
            2, policy=RetryPolicy(max_attempts=3, timeout=0.4), spares=len(reqs)
        )
        assert sup.run(reqs) == _expected(reqs)
        assert sup.stats.timeouts == 2
        assert sup.stats.quarantined == 0

    def test_serial_chaos_only_flaky_fires(self, cheap_round, monkeypatch):
        # crash/hang must never fire in-process: they would kill or stall
        # the test runner itself.
        monkeypatch.setenv(CHAOS_ENV, "crash=1.0,hang=1.0,hang_s=60,flaky=1.0")
        reqs = _reqs(2)
        sup = TaskSupervisor(jobs=1, policy=RetryPolicy(max_attempts=2))
        assert sup.run(reqs) == _expected(reqs)
        assert sup.stats.crashes == 0 and sup.stats.timeouts == 0
        assert sup.stats.exceptions == 2


class TestQuarantine:
    def test_exhausted_budget_yields_eval_failure(self, cheap_round, monkeypatch, pool):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0,attempts=99")  # never recovers
        reqs = _reqs(2)
        sup = pool(2, policy=RetryPolicy(max_attempts=2))
        out = sup.run(reqs)
        assert all(isinstance(o, EvalFailure) for o in out)
        assert sup.stats.quarantined == 2
        failure = out[0]
        assert failure.key == reqs[0].key
        assert failure.model == "round"
        assert failure.cause == "exception"
        assert len(failure.attempts) == 2
        assert failure.attempts[0].backoff > 0
        assert "quarantined after 2 attempt(s)" in failure.summary()

    def test_failure_record_shape(self, cheap_round, monkeypatch, pool):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0,attempts=99")
        sup = pool(1, policy=RetryPolicy(max_attempts=2))
        failure = sup.run(_reqs(1))[0]
        doc = failure.to_result()
        assert is_failure(doc)
        assert doc["failure_cause"] == "exception"
        assert doc["failure_attempts"] == 2.0
        assert len(doc["failure_history"]) == 2
        assert doc["failure_history"][0]["cause"] == "exception"
        assert not is_failure({"value": 1.0})
        assert not is_failure(None)

    def test_one_bad_task_does_not_poison_the_batch(self, monkeypatch, pool):
        # Satellite bugfix: one always-failing task must not discard the
        # batch's completed results.
        def eval_or_boom(req: EvalRequest) -> dict:
            if req.param("total_bytes") == 200_000:
                raise RuntimeError("permanently broken cell")
            return _cheap_eval(req)

        swap_evaluator(monkeypatch, "round", eval_or_boom)
        reqs = _reqs(3)
        sup = pool(2, policy=RetryPolicy(max_attempts=2))
        out = sup.run(reqs)
        assert out[0] == {"value": 100_000.0}
        assert out[2] == {"value": 300_000.0}
        assert isinstance(out[1], EvalFailure)
        assert "permanently broken cell" in out[1].attempts[-1].detail


class TestDegradation:
    def test_unspawnable_pool_degrades_to_serial(self, cheap_round, monkeypatch, pool):
        def no_workers(ctx, inherited):
            raise OSError("fork refused")

        # Local: every fork fails; remote: no worker ever connects.
        monkeypatch.setattr(sup_mod, "_spawn_local", no_workers)
        reqs = _reqs(3)
        sup = pool(2, arrive=False, worker_wait=0.2)
        assert sup.run(reqs) == _expected(reqs)
        assert sup.stats.degraded_serial


class TestRemoteWorkers:
    """The dispatcher tests above, with every worker joining over TCP."""

    JOIN = "remote"
    test_serial_and_parallel_identical = (
        TestHealthyPath.test_serial_and_parallel_identical
    )
    test_flaky_retries_recover = TestChaosRecovery.test_flaky_retries_recover
    test_worker_crash_detected_and_retried = (
        TestChaosRecovery.test_worker_crash_detected_and_retried
    )
    test_hung_worker_killed_at_deadline = (
        TestChaosRecovery.test_hung_worker_killed_at_deadline
    )
    test_exhausted_budget_yields_eval_failure = (
        TestQuarantine.test_exhausted_budget_yields_eval_failure
    )
    test_failure_record_shape = TestQuarantine.test_failure_record_shape
    test_one_bad_task_does_not_poison_the_batch = (
        TestQuarantine.test_one_bad_task_does_not_poison_the_batch
    )
    test_unspawnable_pool_degrades_to_serial = (
        TestDegradation.test_unspawnable_pool_degrades_to_serial
    )


class TestChaosSpec:
    def test_parse_spec(self):
        spec = parse_spec("crash=0.1, hang=0.05,flaky=0.2,hang_s=5,attempts=2")
        assert spec == ChaosSpec(
            crash=0.1, hang=0.05, flaky=0.2, hang_s=5.0, attempts=2
        )
        assert spec.active

    def test_parse_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            parse_spec("crash=0.1,frobnicate=1")

    def test_inactive_without_rates(self):
        assert not ChaosSpec(hang_s=99.0).active
