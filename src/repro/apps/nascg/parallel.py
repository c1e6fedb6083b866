"""Distributed CG performance model and the Figure 9 experiment.

NPB CG distributes the matrix on an ``nprows x npcols`` power-of-two
process grid; every CG iteration performs

- the local sparse matrix-vector product (memory-bandwidth bound),
- a sum-reduction of the partial result across each process row
  (``log2(npcols)`` pairwise exchange rounds of the row-local vector),
- a transpose exchange between grid-symmetric processes, and
- two scalar dot-product reductions across process rows.

On a single node (the Figure 9 setting) the SpMV dominates and its speed
is set by how much memory bandwidth each process can actually extract --
which depends on how many active cores share each L3/NUMA/socket, i.e. on
the *core selection*.  The communication terms are evaluated on the same
round model as the micro-benchmarks and grow with process count, which
is what ends the scaling beyond 16 processes.

The model is calibrated by class parameters only (``n``, ``nnz``); no
measured constants from the paper enter it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.apps.nascg.matrix import CGClass, CG_CLASSES
from repro.collectives.base import RoundSpec
from repro.core.coreselect import distinct_selections
from repro.core.hierarchy import Hierarchy
from repro.core.orders import Order, all_orders
from repro.ir import from_rounds, get_backend
from repro.topology.machine import MachineTopology

#: Bytes of matrix data streamed per nonzero in CSR SpMV (8B value + 4B col).
_BYTES_PER_NNZ = 12.0
#: Bytes of vector traffic per row per iteration (x, z, r, p, q updates).
_BYTES_PER_ROW = 80.0
#: Flops per nonzero (multiply-add) and per row (vector updates).
_FLOPS_PER_NNZ = 2.0
_FLOPS_PER_ROW = 10.0


def grid_shape(p: int) -> tuple[int, int]:
    """NPB's process grid: ``nprows x npcols``, powers of two,
    ``npcols == nprows`` or ``npcols == 2 * nprows``."""
    if p < 1 or p & (p - 1):
        raise ValueError(f"NPB CG needs a power-of-two process count, got {p}")
    log = p.bit_length() - 1
    nprows = 1 << (log // 2)
    npcols = p // nprows
    return nprows, npcols


def cg_comm_rounds(klass: CGClass, p: int) -> list[RoundSpec]:
    """The NAS CG exchange pattern for one iteration, in rank space.

    Rank layout follows NPB: ``row = rank // npcols``,
    ``col = rank % npcols``.  A pure function of the class parameters
    and the process count, so the ``nascg`` workload frontend can lower
    it without constructing a :class:`CGTimeModel`.
    """
    nprows, npcols = grid_shape(p)
    ranks = np.arange(p, dtype=np.int64)
    col = ranks % npcols
    rounds: list[RoundSpec] = []
    # Row-wise sum reduction of the SpMV partials (pairwise exchanges).
    row_vec_bytes = 8.0 * klass.n / nprows
    step = 1
    while step < npcols:
        rounds.append(RoundSpec(ranks, ranks ^ step, row_vec_bytes))
        step <<= 1
    # Transpose exchange (square grids swap (i,j) <-> (j,i); the 2:1
    # grid's equivalent exchange moves the same volume to the partner
    # offset half the row, which we use for both cases).
    if p > 1:
        if nprows == npcols:
            row = ranks // npcols
            partner = col * npcols + row
        else:
            partner = ranks ^ (npcols // 2)
        rounds.append(RoundSpec(ranks, partner, 8.0 * klass.n / npcols))
    # Two scalar reductions across each row (rho and p.q).
    step = 1
    while step < npcols:
        rounds.append(RoundSpec(ranks, ranks ^ step, 16.0))
        rounds.append(RoundSpec(ranks, ranks ^ step, 16.0))
        step <<= 1
    return rounds


@dataclass(frozen=True)
class CGRun:
    """Result of one modeled CG execution."""

    order: Order
    cores: tuple[int, ...]
    duration: float
    compute_time: float
    comm_time: float
    is_slurm_default: bool

    @property
    def core_set(self) -> frozenset[int]:
        return frozenset(self.cores)


class CGTimeModel:
    """Performance model of NPB CG on one machine."""

    def __init__(self, topology: MachineTopology, klass: CGClass | str = "C"):
        self.topology = topology
        self.klass = CG_CLASSES[klass] if isinstance(klass, str) else klass

    @cached_property
    def _total_inner_iterations(self) -> int:
        return self.klass.niter * self.klass.cg_iterations_per_outer

    def compute_time_per_iteration(self, cores: np.ndarray) -> float:
        """Slowest rank's local work in one CG iteration."""
        p = cores.size
        k = self.klass
        bytes_per_rank = (
            k.nnz_estimate * _BYTES_PER_NNZ + k.n * _BYTES_PER_ROW
        ) / p
        flops_per_rank = (
            k.nnz_estimate * _FLOPS_PER_NNZ + k.n * _FLOPS_PER_ROW
        ) / p
        bw = self.topology.effective_mem_bw(cores)
        times = bytes_per_rank / bw + flops_per_rank / self.topology.flop_rate
        return float(times.max())

    def comm_rounds_per_iteration(self, p: int) -> list[RoundSpec]:
        """One iteration's exchange pattern (see :func:`cg_comm_rounds`)."""
        return cg_comm_rounds(self.klass, p)

    def comm_time_per_iteration(self, cores: np.ndarray) -> float:
        rounds = self.comm_rounds_per_iteration(cores.size)
        if not rounds:
            return 0.0
        program = from_rounds(rounds, n_ranks=cores.size)
        return get_backend("round").run(program, self.topology, [cores]).time

    def run_time(self, cores: Sequence[int]) -> tuple[float, float, float]:
        """``(total, compute, comm)`` for the full benchmark."""
        cores = np.asarray(cores, dtype=np.int64)
        it = self._total_inner_iterations
        compute = self.compute_time_per_iteration(cores) * it
        comm = self.comm_time_per_iteration(cores) * it
        return compute + comm, compute, comm


def slurm_default_cores(p: int) -> tuple[int, ...]:
    """Without an explicit binding Slurm packs the first ``p`` cores."""
    return tuple(range(p))


def strong_scaling(
    topology: MachineTopology,
    node_hierarchy: Hierarchy,
    proc_counts: Sequence[int],
    klass: CGClass | str = "C",
    orders: Sequence[Order] | None = None,
) -> dict[int, list[CGRun]]:
    """The Figure 9 experiment.

    For every process count, evaluate every order that yields a distinct
    core *list* (set or rank order differ, exactly the figure's bar
    population) plus the Slurm default packing, and model the CG run time.
    """
    model = CGTimeModel(topology, klass)
    if orders is None:
        orders = all_orders(node_hierarchy.depth)
    results: dict[int, list[CGRun]] = {}
    for p in proc_counts:
        runs = []
        default = slurm_default_cores(p)
        for sel in distinct_selections(node_hierarchy, orders, p):
            duration, compute, comm = model.run_time(sel.cores)
            runs.append(
                CGRun(
                    order=sel.order,
                    cores=sel.cores,
                    duration=duration,
                    compute_time=compute,
                    comm_time=comm,
                    is_slurm_default=sel.cores == default,
                )
            )
        results[p] = runs
    return results


def perfect_scaling_reference(results: dict[int, list[CGRun]]) -> dict[int, float]:
    """Ideal duration per process count: best at the smallest count,
    scaled linearly (the dotted line of Figure 9)."""
    base_p = min(results)
    base = min(r.duration for r in results[base_p])
    return {p: base * base_p / p for p in results}
