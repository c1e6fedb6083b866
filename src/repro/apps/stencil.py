"""A halo-exchange stencil application on Cartesian topologies.

The third application class the paper's introduction motivates (alongside
the collective-heavy Splatt and the bandwidth-bound CG): nearest-neighbour
communication on a process grid, the classic beneficiary of
hierarchy-aware rank placement.  Built on :mod:`repro.simmpi.cart`:

- :func:`jacobi_rank_program` -- a functional 2-D Jacobi iteration on the
  simulated MPI (real halo exchanges of real NumPy rows/columns),
  validated against a single-process reference;
- :class:`StencilModel` -- the performance face: halo volumes per
  dimension priced by the round model, so different Cartesian
  reorderings can be compared the same way the paper compares
  subcommunicator orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Sequence

import numpy as np

from repro.collectives.base import RoundSpec
from repro.core.hierarchy import Hierarchy
from repro.core.orders import Order, all_orders
from repro.ir import from_rounds, get_backend
from repro.simmpi.cart import CartTopology
from repro.simmpi.communicator import Comm
from repro.topology.machine import MachineTopology


def jacobi_reference(grid: np.ndarray, iterations: int) -> np.ndarray:
    """Single-process 4-point Jacobi with fixed (frozen) boundary."""
    g = grid.astype(float).copy()
    for _ in range(iterations):
        interior = 0.25 * (
            g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
        )
        nxt = g.copy()
        nxt[1:-1, 1:-1] = interior
        g = nxt
    return g


def jacobi_rank_program(
    comm: Comm,
    cart: CartTopology,
    local: np.ndarray,
    iterations: int,
) -> Generator[Any, Any, np.ndarray]:
    """One rank of a 2-D Jacobi sweep with halo exchange.

    ``local`` is this rank's block *including* a one-cell halo ring.
    Non-periodic grid; edge halos keep their initial (boundary) values.
    """
    if len(cart.dims) != 2:
        raise ValueError("jacobi program is 2-D")
    me = cart.coords(comm.rank)
    field = local.astype(float).copy()
    for it in range(iterations):
        # Exchange along each dimension with sendrecv pairs (deadlock-free
        # because every rank posts both directions together).
        for dim in range(2):
            lo_src, lo_dst = cart.shift(comm.rank, dim, 1)
            # dim 0: rows; dim 1: columns.
            if dim == 0:
                send_lo, send_hi = field[1, :].copy(), field[-2, :].copy()
            else:
                send_lo, send_hi = field[:, 1].copy(), field[:, -2].copy()
            nbytes = send_lo.nbytes
            # Forward: send my high edge to the +1 neighbour, receive my
            # low halo from the -1 neighbour.
            if lo_dst is not None and lo_src is not None:
                got = yield comm.sendrecv(lo_dst, nbytes, send_hi, lo_src, tag=4 * it + dim)
                lo_halo = got
            elif lo_dst is not None:
                yield comm.send(lo_dst, nbytes, send_hi, tag=4 * it + dim)
                lo_halo = None
            elif lo_src is not None:
                lo_halo = yield comm.recv(lo_src, tag=4 * it + dim)
            else:
                lo_halo = None
            # Backward: send my low edge to the -1 neighbour, receive my
            # high halo from the +1 neighbour.
            if lo_src is not None and lo_dst is not None:
                hi_halo = yield comm.sendrecv(
                    lo_src, nbytes, send_lo, lo_dst, tag=4 * it + 2 + dim
                )
            elif lo_src is not None:
                yield comm.send(lo_src, nbytes, send_lo, tag=4 * it + 2 + dim)
                hi_halo = None
            elif lo_dst is not None:
                hi_halo = yield comm.recv(lo_dst, tag=4 * it + 2 + dim)
            else:
                hi_halo = None
            if dim == 0:
                if lo_halo is not None:
                    field[0, :] = lo_halo
                if hi_halo is not None:
                    field[-1, :] = hi_halo
            else:
                if lo_halo is not None:
                    field[:, 0] = lo_halo
                if hi_halo is not None:
                    field[:, -1] = hi_halo
        interior = 0.25 * (
            field[:-2, 1:-1] + field[2:, 1:-1] + field[1:-1, :-2] + field[1:-1, 2:]
        )
        nxt = field.copy()
        nxt[1:-1, 1:-1] = interior
        field = nxt
    return field


def scatter_blocks(grid: np.ndarray, dims: tuple[int, int]) -> list[np.ndarray]:
    """Split a global grid (with boundary) into per-rank haloed blocks."""
    n0, n1 = grid.shape[0] - 2, grid.shape[1] - 2
    if n0 % dims[0] or n1 % dims[1]:
        raise ValueError("interior must divide evenly among the grid")
    b0, b1 = n0 // dims[0], n1 // dims[1]
    blocks = []
    for i in range(dims[0]):
        for j in range(dims[1]):
            blocks.append(
                grid[i * b0 : i * b0 + b0 + 2, j * b1 : j * b1 + b1 + 2].copy()
            )
    return blocks


def gather_blocks(
    blocks: Sequence[np.ndarray], dims: tuple[int, int], shape: tuple[int, int]
) -> np.ndarray:
    """Reassemble per-rank interiors into the global grid's interior."""
    n0, n1 = shape[0] - 2, shape[1] - 2
    b0, b1 = n0 // dims[0], n1 // dims[1]
    out = np.zeros((n0, n1))
    k = 0
    for i in range(dims[0]):
        for j in range(dims[1]):
            out[i * b0 : (i + 1) * b0, j * b1 : (j + 1) * b1] = blocks[k][1:-1, 1:-1]
            k += 1
    return out


@dataclass
class StencilModel:
    """Halo-exchange cost of a Cartesian layout under the round model."""

    topology: MachineTopology
    hierarchy: Hierarchy
    dims: tuple[int, ...]
    cell_bytes: float = 8.0
    local_extent: int = 256  # cells per dimension per rank

    def exchange_rounds(self, cart: CartTopology) -> list[RoundSpec]:
        """One halo exchange: per dimension, the +1 then the -1 shift."""
        p = int(np.prod(self.dims))
        face = self.local_extent ** (len(self.dims) - 1) * self.cell_bytes
        rounds = []
        for dim in range(len(self.dims)):
            for disp in (+1, -1):
                src, dst = [], []
                for r in range(p):
                    _, fwd = cart.shift(r, dim, disp)
                    if fwd is not None:
                        src.append(r)
                        dst.append(fwd)
                if src:
                    rounds.append(
                        RoundSpec(np.array(src), np.array(dst), face)
                    )
        return rounds

    def exchange_time(self, cart: CartTopology) -> float:
        """One halo exchange under the round model, ranks on ``cart``'s cores."""
        cores = cart.core_of
        program = from_rounds(self.exchange_rounds(cart), n_ranks=cores.size)
        return get_backend("round").run(program, self.topology, [cores]).time

    def rank_orders(self, orders: Sequence[Order] | None = None) -> list[tuple[Order, float]]:
        """Halo-exchange time of every enumeration order, fastest first."""
        if orders is None:
            orders = all_orders(self.hierarchy.depth)
        out = []
        for order in orders:
            cart = CartTopology(self.hierarchy, self.dims, order)
            out.append((tuple(order), self.exchange_time(cart)))
        out.sort(key=lambda t: t[1])
        return out
