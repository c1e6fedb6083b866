"""The stencil workload: one halo exchange on a Cartesian process grid.

Reproduces :meth:`repro.apps.stencil.StencilModel.exchange_rounds`
bitwise without needing a :class:`~repro.simmpi.cart.CartTopology`
instance: ``Cart_shift`` destinations depend only on the grid shape and
the periodicity flags (coordinates are row-major, like MPI), never on
the hierarchy or the enumeration order -- placement happens later, when
the evaluator maps communicator ranks onto cores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.workloads.base import ParamSpec, WorkloadError, register_workload

if TYPE_CHECKING:
    from repro.ir.program import CommProgram


class StencilWorkload:
    name = "stencil"
    description = "one Cartesian halo exchange (+1/-1 shift per dimension)"
    params = (
        ParamSpec("dims", "int_tuple", doc="process-grid shape"),
        ParamSpec(
            "periodic", "int_tuple", default=(),
            doc="per-dimension wrap flags (0/1; default all open)",
        ),
        ParamSpec("cell_bytes", "float", default=8.0, doc="bytes per cell"),
        ParamSpec(
            "local_extent", "int", default=256,
            doc="cells per dimension per rank (halo face = extent^(d-1))",
        ),
    )

    def lower(
        self,
        *,
        dims: tuple[int, ...],
        periodic: tuple[int, ...] = (),
        cell_bytes: float = 8.0,
        local_extent: int = 256,
    ) -> CommProgram:
        import numpy as np

        from repro.ir.lower import from_rounds
        from repro.ir.program import CommRound, ProgramMeta

        if not dims or any(d < 1 for d in dims):
            raise WorkloadError(f"stencil dims must be positive, got {dims}")
        wrap = tuple(bool(f) for f in periodic) or (False,) * len(dims)
        if len(wrap) != len(dims):
            raise WorkloadError(
                f"periodic flags {periodic} must match the grid rank count"
            )
        p = int(np.prod(dims))
        face = local_extent ** (len(dims) - 1) * cell_bytes
        ranks = np.arange(p)
        coords = np.unravel_index(ranks, dims)  # row-major, like MPI
        rounds = []
        for dim in range(len(dims)):
            for disp in (+1, -1):
                shifted = coords[dim] + disp
                if wrap[dim]:
                    shifted = shifted % dims[dim]
                    valid = np.ones(p, dtype=bool)
                else:
                    valid = (shifted >= 0) & (shifted < dims[dim])
                if not valid.any():
                    continue
                neighbour = list(coords)
                neighbour[dim] = shifted
                dst = np.ravel_multi_index(
                    [c[valid] for c in neighbour], dims
                )
                rounds.append(CommRound(ranks[valid], dst, face))
        meta = ProgramMeta(source="stencil", label=f"stencil{tuple(dims)}")
        return from_rounds(rounds, n_ranks=p, meta=meta)


register_workload(StencilWorkload())
