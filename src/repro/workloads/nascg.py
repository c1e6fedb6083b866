"""The NAS CG workload: one iteration's exchange pattern on ``p`` ranks."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import ParamSpec, WorkloadError, register_workload

if TYPE_CHECKING:
    from repro.ir.program import CommProgram


class NasCGWorkload:
    name = "nascg"
    description = "one NAS CG iteration's exchanges on an nprows x npcols grid"
    params = (
        ParamSpec("p", "int", doc="process count (power of two)"),
        ParamSpec("klass", "str", default="C", doc="NPB problem class (S..E)"),
    )

    def lower(self, *, p: int, klass: str = "C") -> CommProgram:
        from repro.apps.nascg.matrix import CG_CLASSES
        from repro.apps.nascg.parallel import cg_comm_rounds
        from repro.ir.lower import from_rounds
        from repro.ir.program import ProgramMeta

        try:
            cg_klass = CG_CLASSES[klass]
        except KeyError:
            raise WorkloadError(
                f"unknown NPB class {klass!r} (known: {', '.join(sorted(CG_CLASSES))})"
            ) from None
        meta = ProgramMeta(source="nascg", label=f"nascg-{cg_klass.name}/p{p}")
        return from_rounds(cg_comm_rounds(cg_klass, p), n_ranks=p, meta=meta)


register_workload(NasCGWorkload())
