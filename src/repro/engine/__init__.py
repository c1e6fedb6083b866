"""Parallel, memoized sweep-execution engine.

Every figure of the paper is a sweep over candidate mixed-radix orders;
this package is the substrate that makes those sweeps cheap: canonical
content-addressed evaluation requests (:mod:`repro.engine.keys`), a
two-tier LRU + on-disk result cache (:mod:`repro.engine.cache`),
equivalence-class pruning with an audit mode (:mod:`repro.engine.core`),
and one supervised dispatcher whose workers are forked locally or join
over TCP, with deterministic ordering (:mod:`repro.engine.supervisor`).  The
registered evaluators (:mod:`repro.engine.evaluators`) cover the round
model, the DES, verification cells and chaos cells.

Quick start::

    from repro.engine import SweepEngine
    from repro.workloads import collective_cells

    engine = SweepEngine(jobs=4, cache_dir=".sweep-cache")
    (cell,) = collective_cells([16], ["alltoall"], [1e6])
    req = cell.request("round", hydra(16), HYDRA16, (0, 1, 2, 3))
    engine.evaluate(req)   # -> {"duration_single": ..., "duration_all": ...}
    engine.stats.cache_hit_rate
"""

from repro.engine.batch import (
    BatchEvaluationError,
    FailedPoint,
    failed_point,
)
from repro.engine.cache import ResultCache
from repro.engine.core import (
    AUDIT_RTOL,
    EngineAuditError,
    EngineStats,
    PRUNABLE_MODELS,
    SweepEngine,
)
from repro.engine.evaluators import (
    BATCH_EVALUATORS,
    EVALUATORS,
    evaluate_request,
    evaluate_requests_batch,
    register_batch_evaluator,
    register_evaluator,
)
from repro.engine.fidelity import (
    FidelityLadder,
    LadderAuditError,
    LadderConfig,
    LadderConfigError,
    LadderResult,
    RungOutcome,
    analytic_order_score,
    default_rungs,
)
from repro.engine.journal import SweepJournal
from repro.engine.keys import (
    CACHE_SCHEMA,
    EvalRequest,
    request_from_wire,
    request_to_wire,
)
from repro.engine.supervisor import (
    EvalFailure,
    TaskAttempt,
    TaskSupervisor,
    is_failure,
    run_worker,
)

__all__ = [
    "AUDIT_RTOL",
    "BATCH_EVALUATORS",
    "BatchEvaluationError",
    "CACHE_SCHEMA",
    "FailedPoint",
    "FidelityLadder",
    "EVALUATORS",
    "EngineAuditError",
    "EngineStats",
    "EvalFailure",
    "EvalRequest",
    "LadderAuditError",
    "LadderConfig",
    "LadderConfigError",
    "LadderResult",
    "PRUNABLE_MODELS",
    "ResultCache",
    "RungOutcome",
    "SweepEngine",
    "SweepJournal",
    "TaskAttempt",
    "TaskSupervisor",
    "analytic_order_score",
    "default_rungs",
    "evaluate_request",
    "evaluate_requests_batch",
    "failed_point",
    "is_failure",
    "register_batch_evaluator",
    "register_evaluator",
    "request_from_wire",
    "request_to_wire",
    "run_worker",
]
