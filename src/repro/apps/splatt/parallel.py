"""Distributed medium-grained CPD: the Figure 8 experiment.

Execution structure (matching what mpisee observed about Splatt on 1024
ranks, Section 4.2): processes form a 3-D grid (``(4, 4, 64)`` for
nell-1's aspect ratio at p=1024); one CP-ALS iteration performs, per
mode ``m``:

1. local MTTKRP over the rank's tensor block (memory-bound compute);
2. ``MPI_Alltoallv`` of computed partial factor rows within every
   mode-``m`` layer communicator, all ``grid[m]`` layers simultaneously;
3. a small world ``MPI_Allreduce`` (column norms) and ``MPI_Bcast``.

The paper's finding -- CPD duration is Pearson-0.92/0.98-correlated with
the Alltoallv time in the 16-process layer communicators -- emerges here
because the mode with ``grid[m] = 64`` produces 64 simultaneous 16-rank
alltoallvs whose locality is entirely decided by the rank reordering:
orders that pin ``reordered_rank mod 64`` inside one node keep that phase
NIC-free, orders that spread it pay full interconnect cost.

Rank reordering is applied exactly as the paper's black-box protocol: the
application addresses the *reordered* communicator; reordered rank ``r``
executes on the core whose canonical rank reorders to ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.apps.splatt.grid import all_layer_comms, choose_grid
from repro.apps.splatt.tensor import NELL1_DIMS, NELL1_NNZ
from repro.collectives.selector import rounds_for
from repro.core.hierarchy import Hierarchy
from repro.core.orders import Order, all_orders
from repro.core.reorder import RankReordering
from repro.ir import CommProgram, from_rounds, get_backend
from repro.workloads import lower_workload
from repro.profiling.mpisee import CommProfiler
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class CPDRun:
    """One modeled CPD execution under one rank reordering."""

    order: Order
    duration: float
    compute_time: float
    comm_time: float
    #: Alltoallv time aggregated by layer-communicator size, e.g. {16: t}.
    alltoallv_by_comm_size: dict[int, float]
    profile: CommProfiler = field(repr=False)


class CPDModel:
    """Performance model of medium-grained CP-ALS under rank reordering."""

    def __init__(
        self,
        topology: MachineTopology,
        hierarchy: Hierarchy,
        dims: tuple[int, ...] = NELL1_DIMS,
        nnz: int = NELL1_NNZ,
        cp_rank: int = 16,
        iterations: int = 50,
        row_overlap: float | tuple[float, ...] = (0.08, 0.08, 0.5),
        load_imbalance: float = 1.35,
    ):
        """``hierarchy`` describes the job (must match ``topology`` cores).

        ``row_overlap[m]`` is the fraction of a rank's local nonzero count
        that touches *distinct* mode-``m`` factor rows (and must therefore
        travel in the layer alltoallv).  The default reflects nell-1's
        index-multiplicity profile: mode-0/1 indices recur ~50-70x
        (popular entities, heavy in-block reuse -> few distinct rows)
        while mode-2 indices recur only ~5.6x (long tail -> most touched
        rows are distinct).  This is why the 16-process layer
        communicators of the largest mode carry the dominant Alltoallv
        volume, exactly what mpisee observed in the paper.
        ``load_imbalance`` is the max/mean nonzero ratio of the block
        distribution on the skewed tensor.
        """
        hierarchy.check_process_count(topology.n_cores)
        self.topology = topology
        self.hierarchy = hierarchy
        self.dims = dims
        self.nnz = nnz
        self.cp_rank = cp_rank
        self.iterations = iterations
        if isinstance(row_overlap, (int, float)):
            row_overlap = (float(row_overlap),) * len(dims)
        if len(row_overlap) != len(dims):
            raise ValueError("need one row_overlap per mode")
        self.row_overlap = tuple(row_overlap)
        self.load_imbalance = load_imbalance
        self.p = topology.n_cores
        self.grid = choose_grid(dims, self.p)
        self.layers = all_layer_comms(self.grid)

    # -- volumes -------------------------------------------------------------

    def alltoallv_volume_per_rank(self, mode: int) -> float:
        """Bytes each rank exchanges inside its mode layer per iteration."""
        nnz_local = self.nnz / self.p
        slice_rows = self.dims[mode] / self.grid[mode]
        touched = min(nnz_local * self.row_overlap[mode], slice_rows)
        return touched * self.cp_rank * 8.0

    def compute_seconds_per_mode(self) -> float:
        """Local MTTKRP time (slowest rank): flops + streamed bytes.

        Streamed volume per nonzero: the two gathered factor rows
        (reused rows hit cache, hence the 1.5x factor rather than 3x)
        plus the 12-byte compressed index.
        """
        nnz_local = self.nnz / self.p * self.load_imbalance
        flops = nnz_local * self.cp_rank * 3.0
        streamed = nnz_local * (self.cp_rank * 8.0 * 1.5 + 12.0)
        cores = np.arange(self.topology.n_cores)
        bw = float(self.topology.effective_mem_bw(cores).min())
        return flops / self.topology.flop_rate + streamed / bw

    # -- execution -------------------------------------------------------------

    def _mode_program(self, mode: int) -> CommProgram:
        """One layer communicator's alltoallv of ``mode`` (the ``splatt``
        workload): every layer of a mode has the same size, so each runs
        this program."""
        p = int(self.layers[mode][0].size)
        per_pair = self.alltoallv_volume_per_rank(mode) / max(p - 1, 1)
        return lower_workload("splatt", {"p": p, "per_pair_bytes": per_pair, "mode": mode})

    def run(self, order: Sequence[int]) -> CPDRun:
        """Model a full CPD under the given rank reordering."""
        order = tuple(order)
        reordering = RankReordering(self.hierarchy, order, self.hierarchy.size)
        # Core of each *reordered* rank (reordered rank r runs on the core
        # whose canonical rank reorders to r; canonical rank == core).
        core_of = reordering.canonical_rank
        round_model = get_backend("round")
        profile = CommProfiler()
        comm_time = 0.0
        a2av_by_size: dict[int, float] = {}
        for mode in range(len(self.grid)):
            # All the mode's alltoallvs run at once: the layer
            # communicators are the placements.
            member_cores = [core_of[m] for m in self.layers[mode]]
            comm_size = int(member_cores[0].size)
            program = self._mode_program(mode)
            t = round_model.run(program, self.topology, member_cores).time
            t *= self.iterations
            comm_time += t
            a2av_by_size[comm_size] = a2av_by_size.get(comm_size, 0.0) + t
            profile.record(
                comm_size=comm_size,
                n_comms=len(member_cores),
                op="MPI_Alltoallv",
                seconds=t,
            )
        # World-communicator bookkeeping collectives per iteration x mode:
        # an allreduce of the R column norms and a bcast of lambda.
        world_cores = core_of
        small = 8.0 * self.cp_rank * self.p  # paper-convention total bytes
        for op, coll in (("MPI_Allreduce", "allreduce"), ("MPI_Bcast", "bcast")):
            program = from_rounds(rounds_for(coll, self.p, small), n_ranks=self.p)
            t = round_model.run(program, self.topology, [world_cores]).time
            t *= self.iterations * len(self.grid)
            comm_time += t
            profile.record(comm_size=self.p, n_comms=1, op=op, seconds=t)
        compute_time = (
            self.compute_seconds_per_mode() * len(self.grid) * self.iterations
        )
        profile.record(comm_size=0, n_comms=0, op="compute", seconds=compute_time)
        return CPDRun(
            order=order,
            duration=compute_time + comm_time,
            compute_time=compute_time,
            comm_time=comm_time,
            alltoallv_by_comm_size=a2av_by_size,
            profile=profile,
        )


def reordering_study(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    orders: Sequence[Order] | None = None,
    **model_kwargs,
) -> list[CPDRun]:
    """Figure 8: CPD duration under every rank reordering."""
    model = CPDModel(topology, hierarchy, **model_kwargs)
    if orders is None:
        orders = all_orders(hierarchy.depth)
    return [model.run(o) for o in orders]
