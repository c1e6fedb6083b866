"""Regression: assembling a result grid that contains salvaged
EvalFailure records must raise a structured BatchEvaluationError naming
the failed (order, payload) grid points -- not an opaque KeyError."""

from __future__ import annotations

import math

import pytest

from repro.core.advisor import advice_from_results, plan_query
from repro.engine import BatchEvaluationError, SweepEngine, is_failure
from repro.engine.chaos import CHAOS_ENV
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import generic_cluster
from repro.workloads import collective_cells

H = parse_synthetic("node:2 socket:2 core:2")
TOPO = generic_cluster(H.radices, H.names)
SIZES = (1e5, 1e6)


def _plan():
    return plan_query(
        TOPO,
        H,
        collective_cells([4], ["alltoall"], SIZES),
        orders=((0, 1, 2), (2, 1, 0), (1, 0, 2)),
    )


def _representatives(plan) -> list[tuple[int, ...]]:
    return [c.order for c in plan.classes]


class TestStackWithFailures:
    def test_all_failures_raise_structured_error(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "flaky=1.0,attempts=5")
        engine = SweepEngine(max_attempts=1)
        plan = _plan()
        results = engine.evaluate_many(plan.requests)
        assert all(is_failure(r) for r in results)
        with pytest.raises(BatchEvaluationError) as exc:
            advice_from_results(plan, results)
        err = exc.value
        assert len(err.points) == len(plan)
        # Every grid coordinate is named, with its quarantine cause.
        assert {p.order for p in err.points} == set(_representatives(plan))
        assert {p.total_bytes for p in err.points} == set(SIZES)
        assert all(p.cause == "exception" for p in err.points)
        assert "2-1-0" in str(err) and "100000" in str(err)

    def test_partial_failures_name_only_failed_points(self, monkeypatch):
        # Injection is a pure hash of (key, mode, attempt): some points
        # fail, some succeed, deterministically.
        monkeypatch.setenv(CHAOS_ENV, "flaky=0.5,attempts=5")
        engine = SweepEngine(max_attempts=1, prune=False)
        plan = _plan()
        results = engine.evaluate_many(plan.requests)
        failed_idx = {i for i, r in enumerate(results) if is_failure(r)}
        if not failed_idx or len(failed_idx) == len(results):
            pytest.skip("chaos draw left no mixed outcome for this grid")
        with pytest.raises(BatchEvaluationError) as exc:
            advice_from_results(plan, results)
        named = {(p.order, p.total_bytes) for p in exc.value.points}
        reps = _representatives(plan)
        expected = {
            (reps[i // len(SIZES)], SIZES[i % len(SIZES)]) for i in failed_idx
        }
        assert named == expected

    def test_clean_grid_still_stacks(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        engine = SweepEngine()
        plan = _plan()
        advice = advice_from_results(plan, engine.evaluate_many(plan.requests))
        assert len(advice.recommendations) == len(plan.classes)
        assert all(
            math.isfinite(r.predicted_seconds) for r in advice.recommendations
        )
