"""Unified communication-program IR and pluggable execution backends.

See :mod:`repro.ir.program` for the IR itself, :mod:`repro.ir.lower` for
the lowering pipeline (producers -> IR -> placed schedules / per-rank
DES programs), :mod:`repro.ir.validate` for the validation pass, and
:mod:`repro.ir.backends` for the ``round``/``des``/``logp`` execution
backends and their registry.
"""

from repro.ir.backends import (
    BackendCapabilities,
    DESBackend,
    ExecutionBackend,
    ExecutionResult,
    LogPBackend,
    RoundBackend,
    RoundCost,
    backend_names,
    create_backend,
    describe_backends,
    get_backend,
    register_backend,
    supports_batch,
)
from repro.ir.lower import (
    collective_program,
    from_rounds,
    placed_rounds,
    rank_program,
    round_endpoints,
)
from repro.ir.program import (
    BarrierOp,
    CommProgram,
    CommRound,
    ComputeOp,
    ProgramMeta,
    RankOp,
    RecvOp,
    SendOp,
)
from repro.ir.validate import (
    IRValidationError,
    ValidationIssue,
    ValidationReport,
    check_program,
    validate_program,
)

__all__ = [
    "BackendCapabilities",
    "BarrierOp",
    "CommProgram",
    "CommRound",
    "ComputeOp",
    "DESBackend",
    "ExecutionBackend",
    "ExecutionResult",
    "IRValidationError",
    "LogPBackend",
    "ProgramMeta",
    "RankOp",
    "RecvOp",
    "RoundBackend",
    "RoundCost",
    "SendOp",
    "ValidationIssue",
    "ValidationReport",
    "backend_names",
    "check_program",
    "collective_program",
    "create_backend",
    "describe_backends",
    "from_rounds",
    "get_backend",
    "placed_rounds",
    "rank_program",
    "register_backend",
    "round_endpoints",
    "supports_batch",
    "validate_program",
]
