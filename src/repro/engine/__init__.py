"""Parallel, memoized sweep-execution engine.

Every figure of the paper is a sweep over candidate mixed-radix orders;
this package is the substrate that makes those sweeps cheap: canonical
content-addressed evaluation requests (:mod:`repro.engine.keys`), a
two-tier LRU + append-only record log result cache
(:mod:`repro.engine.cache`),
equivalence-class pruning with an audit mode (:mod:`repro.engine.core`),
and one supervised dispatcher whose workers are forked locally or join
over TCP, with deterministic ordering (:mod:`repro.engine.supervisor`).  The
registered evaluators (:mod:`repro.engine.evaluators`) cover the round
and logp models and the DES.

Quick start::

    from repro.engine import SweepEngine
    from repro.workloads import collective_cells

    engine = SweepEngine(jobs=4, cache_dir=".sweep-cache")
    (cell,) = collective_cells([16], ["alltoall"], [1e6])
    req = cell.request("round", hydra(16), HYDRA16, (0, 1, 2, 3))
    engine.evaluate(req)   # -> {"duration_single": ..., "duration_all": ...}
    engine.stats.cache_hit_rate
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engine.batch": ("BatchEvaluationError", "FailedPoint", "failed_point"),
        "repro.engine.cache": ("ResultCache",),
        "repro.engine.core": (
            "AUDIT_RTOL",
            "EngineAuditError",
            "EngineStats",
            "PRUNABLE_MODELS",
            "SweepEngine",
        ),
        "repro.engine.evaluators": (
            "BATCH_EVALUATORS",
            "EVALUATORS",
            "evaluate_chunk",
            "evaluate_request",
            "evaluate_requests_batch",
            "register_batch_evaluator",
            "register_evaluator",
        ),
        "repro.engine.fidelity": (
            "FidelityLadder",
            "LadderAuditError",
            "LadderConfig",
            "LadderConfigError",
            "LadderResult",
            "RungOutcome",
            "analytic_order_score",
            "default_rungs",
        ),
        "repro.engine.keys": (
            "CACHE_SCHEMA",
            "EvalRequest",
            "request_from_wire",
            "request_to_wire",
        ),
        "repro.engine.supervisor": (
            "EvalFailure",
            "TaskAttempt",
            "TaskSupervisor",
            "is_failure",
            "run_worker",
        ),
    },
)
