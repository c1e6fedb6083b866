"""The dnn workload: one DP x TP x PP transformer training step."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import ParamSpec, WorkloadError, register_workload

if TYPE_CHECKING:
    from repro.ir.program import CommProgram


class DnnWorkload:
    name = "dnn"
    description = "one transformer training step under a DP x TP x PP decomposition"
    params = (
        ParamSpec("dp", "int", default=1, doc="data-parallel degree"),
        ParamSpec("tp", "int", default=1, doc="tensor-parallel degree"),
        ParamSpec("pp", "int", default=1, doc="pipeline-parallel degree"),
        ParamSpec(
            "layers", "int", default=None,
            doc="transformer layers (default: pp; must divide into pp stages)",
        ),
        ParamSpec("hidden", "int", default=1024, doc="hidden dimension"),
        ParamSpec("seq", "int", default=512, doc="sequence length"),
        ParamSpec(
            "microbatches", "int", default=None,
            doc="pipeline microbatches per step (default: pp)",
        ),
        ParamSpec("dtype_bytes", "int", default=2, doc="bytes per element"),
        ParamSpec(
            "grad_sync", "str", default="allreduce",
            doc="DP gradient sync: allreduce or rs_ag",
        ),
        ParamSpec("flop_rate", "float", default=16e9, doc="per-core flop/s"),
    )

    def lower(self, **params: object) -> CommProgram:
        from repro.apps.dnn import DnnConfig, training_step_program

        try:
            config = DnnConfig(**params)  # type: ignore[arg-type]
        except ValueError as exc:
            raise WorkloadError(f"invalid dnn configuration: {exc}") from None
        return training_step_program(config)


register_workload(DnnWorkload())
