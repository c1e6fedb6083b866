"""The Splatt workload: one CP-ALS mode's pairwise alltoallv."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import ParamSpec, register_workload

if TYPE_CHECKING:
    from repro.ir.program import CommProgram


class SplattWorkload:
    name = "splatt"
    description = "one CP-ALS mode's uniform pairwise alltoallv"
    params = (
        ParamSpec("p", "int", doc="layer-communicator size"),
        ParamSpec(
            "per_pair_bytes", "float",
            doc="uniform pairwise volume (alltoallv volume / (p - 1))",
        ),
        ParamSpec("mode", "int", default=0, doc="tensor mode (label only)"),
    )

    def lower(
        self, *, p: int, per_pair_bytes: float, mode: int = 0
    ) -> CommProgram:
        from repro.collectives.misc import alltoallv_pairwise_rounds
        import numpy as np

        from repro.ir.lower import from_rounds
        from repro.ir.program import ProgramMeta

        sizes = np.full((p, p), float(per_pair_bytes))
        np.fill_diagonal(sizes, 0.0)
        meta = ProgramMeta(
            source="splatt",
            collective="alltoallv",
            algorithm="pairwise",
            total_bytes=float(per_pair_bytes) * p * max(p - 1, 0),
            label=f"splatt-mode{mode}/p{p}",
        )
        return from_rounds(alltoallv_pairwise_rounds(sizes), n_ranks=p, meta=meta)


register_workload(SplattWorkload())
