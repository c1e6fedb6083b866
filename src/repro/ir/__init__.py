"""Unified communication-program IR and pluggable execution backends.

See :mod:`repro.ir.program` for the IR itself, :mod:`repro.ir.lower` for
the lowering pipeline (producers -> IR -> per-rank DES programs),
:mod:`repro.ir.validate` for the validation pass, and
:mod:`repro.ir.backends` for the ``round``/``des``/``logp`` execution
backends and their registry.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.ir.backends": (
            "BackendCapabilities",
            "DESBackend",
            "ExecutionBackend",
            "ExecutionResult",
            "LogPBackend",
            "RoundBackend",
            "RoundCost",
        ),
        "repro.ir.registry": (
            "backend_names",
            "create_backend",
            "describe_backends",
            "get_backend",
            "register_backend",
        ),
        "repro.ir.lower": (
            "collective_program",
            "from_rounds",
            "rank_program",
            "round_endpoints",
        ),
        "repro.ir.program": (
            "BarrierOp",
            "CommProgram",
            "CommRound",
            "ComputeOp",
            "ProgramMeta",
            "RankOp",
            "RecvOp",
            "SendOp",
        ),
        "repro.ir.validate": (
            "IRValidationError",
            "ValidationIssue",
            "ValidationReport",
            "check_program",
            "validate_program",
        ),
    },
)
