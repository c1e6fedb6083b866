"""The collective workload: one MPI collective via the algorithm registry.

The registry body of what used to be the private
``repro.ir.lower._collective_program``;
:func:`repro.ir.lower.collective_program` is now a thin shim over this
workload, so lowered programs (and their goldens) stay bitwise identical.
Collective-shaped input (CLI flags, ``/advise`` bodies, the Python API)
enters the system through :func:`collective_cells`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.ir.program import CommProgram, ProgramMeta
from repro.workloads.base import (
    Cell,
    ParamSpec,
    WorkloadError,
    canonical_params,
    register_workload,
)


class CollectiveWorkload:
    name = "collective"
    description = "one MPI collective, auto-selecting the algorithm"
    params = (
        ParamSpec("collective", "str", doc="collective name (alltoall, ...)"),
        ParamSpec("p", "int", doc="communicator size"),
        ParamSpec(
            "total_bytes", "float",
            doc="total payload (communicator size x per-rank count)",
        ),
        ParamSpec(
            "algorithm", "str", default=None,
            doc="pin an algorithm (default: size-based selection)",
        ),
    )

    def lower(
        self,
        *,
        collective: str,
        p: int,
        total_bytes: float,
        algorithm: str | None = None,
    ) -> CommProgram:
        from repro.collectives.selector import rounds_for, select_algorithm
        from repro.ir.lower import from_rounds

        name = algorithm or select_algorithm(collective, p, total_bytes)
        rounds = rounds_for(collective, p, total_bytes, name)
        meta = ProgramMeta(
            source="collective",
            collective=collective,
            algorithm=name,
            total_bytes=float(total_bytes),
            label=f"{collective}/{name}",
        )
        return from_rounds(rounds, n_ranks=p, meta=meta)


register_workload(CollectiveWorkload())


def collective_params(
    collective: str, p: int, total_bytes: float, algorithm: str | None = None
) -> tuple[tuple[str, object], ...]:
    """Canonical ``collective`` workload params for one point."""
    return canonical_params(
        "collective",
        {
            "collective": collective,
            "p": p,
            "total_bytes": total_bytes,
            "algorithm": algorithm,
        },
    )


def collective_cells(
    comm_sizes: Sequence[int],
    collectives: Sequence[str],
    sizes: Sequence[float],
    algorithm: str | None = None,
) -> tuple[Cell, ...]:
    """Collective-shaped grids as ``collective`` workload cells.

    The translation every collective edge (sweep, advise, ``/advise``)
    applies where it enters the system: one cell per ``(comm_size,
    collective, size)``, comm-major and size-minor, with the params
    canonicalised once per cell.  Nothing is lowered here (evaluators
    lower on demand); ``total_bytes`` keeps the size as given, the
    figure-axis value sweep records report.  Duplicate comm sizes,
    collectives or sizes raise :class:`~repro.workloads.WorkloadError`
    (the grid is a set of distinct cells), as do sizes that are negative,
    infinite or nan (the IR refuses such payloads).
    """
    for label, values in (
        ("comm sizes", comm_sizes),
        ("collectives", collectives),
        ("sizes", sizes),
    ):
        if len(set(values)) != len(values):
            raise WorkloadError(f"duplicate {label} in {list(values)}")
    bad = [s for s in sizes if not 0 <= s < math.inf]
    if bad:
        raise WorkloadError(f"sizes must be finite and >= 0 bytes, got {bad}")
    return tuple(
        Cell(
            "collective",
            collective_params(collective, comm_size, total, algorithm),
            int(comm_size),
            total,
        )
        for comm_size in comm_sizes
        for collective in collectives
        for total in sizes
    )
