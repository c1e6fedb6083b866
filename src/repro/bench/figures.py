"""One data generator per table/figure of the paper's evaluation.

Each ``figN_data`` function reproduces the corresponding experiment on the
simulated platform and returns structured results; the ``benchmarks/``
files time them, print the series, and assert the paper's qualitative
shapes (see EXPERIMENTS.md for the side-by-side record).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from repro.apps.nascg.parallel import CGRun, perfect_scaling_reference, strong_scaling
from repro.apps.splatt.parallel import CPDRun, reordering_study
from repro.bench.microbench import MicrobenchSeries, paper_sizes
from repro.core.hierarchy import Hierarchy
from repro.core.mixed_radix import MixedRadix
from repro.core.orders import all_orders
from repro.core.reorder import RankReordering
from repro.launcher.slurm import order_to_distribution
from repro.profiling.correlation import pearson
from repro.topology.machines import hydra, lumi, lumi_node

# -- hierarchies used throughout Section 4 ----------------------------------

HYDRA16 = Hierarchy((16, 2, 2, 8), ("node", "socket", "group", "core"))
HYDRA32 = Hierarchy((32, 2, 2, 8), ("node", "socket", "group", "core"))
LUMI16 = Hierarchy((16, 2, 4, 2, 8), ("node", "socket", "numa", "l3", "core"))
LUMI_NODE = Hierarchy((2, 4, 2, 8), ("socket", "numa", "l3", "core"))

#: Orders shown in each figure's legend (subset of all depth! orders).
FIG3_ORDERS = [(0, 1, 2, 3), (2, 1, 0, 3), (1, 3, 0, 2), (1, 3, 2, 0), (3, 1, 0, 2), (3, 2, 1, 0)]
FIG4_ORDERS = [(0, 1, 2, 3), (2, 1, 0, 3), (1, 3, 0, 2), (3, 1, 0, 2), (1, 3, 2, 0), (3, 2, 1, 0)]
FIG5_ORDERS = [(0, 1, 2, 3, 4), (1, 2, 3, 0, 4), (3, 2, 1, 4, 0), (3, 4, 0, 1, 2), (4, 3, 2, 1, 0)]
FIG6_ORDERS = FIG4_ORDERS
FIG7_ORDERS = [(0, 1, 2, 3, 4), (1, 2, 3, 0, 4), (3, 4, 0, 1, 2), (3, 2, 1, 4, 0), (4, 3, 2, 1, 0)]


# -- Table 1 / Figure 2 -------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    order: tuple[int, ...]
    permuted_coords: tuple[int, ...]
    permuted_hierarchy: tuple[int, ...]
    new_rank: int


def table1_rows(rank: int = 10) -> list[Table1Row]:
    """Table 1: all orders applied to one rank of the ``[[2,2,4]]`` machine."""
    h = Hierarchy((2, 2, 4))
    mr = MixedRadix(h)
    coords = mr.decompose(rank)
    rows = []
    for order in all_orders(3):
        rows.append(
            Table1Row(
                order=order,
                permuted_coords=tuple(coords[i] for i in order),
                permuted_hierarchy=h.permuted(order).radices,
                new_rank=mr.reorder(rank, order),
            )
        )
    return rows


@dataclass(frozen=True)
class Fig2Enumeration:
    order: tuple[int, ...]
    new_rank_of_core: tuple[int, ...]
    slurm_distribution: str | None
    subcomm_of_core: tuple[int, ...]


def fig2_enumerations(comm_size: int = 4) -> list[Fig2Enumeration]:
    """Figure 2: every order's enumeration of the ``[[2,2,4]]`` machine,
    with its Slurm ``--distribution`` equivalent (or None)."""
    h = Hierarchy((2, 2, 4), ("node", "socket", "core"))
    out = []
    for order in all_orders(3):
        r = RankReordering(h, order, comm_size)
        new = tuple(int(x) for x in r.new_rank)
        out.append(
            Fig2Enumeration(
                order=order,
                new_rank_of_core=new,
                slurm_distribution=order_to_distribution(h, order),
                subcomm_of_core=tuple(n // comm_size for n in new),
            )
        )
    return out


# -- Figures 3-7: micro-benchmarks -------------------------------------------


def _sweep_figure(
    topology, hierarchy, orders, comm_size, collective, sizes, algorithm=None,
    engine=None, backend="round",
) -> list[MicrobenchSeries]:
    """Evaluate one figure's (order x size) grid.

    The grid runs through the sweep layer's grid path as
    ``collective`` workload cells -- memoized, equivalence-pruned, and
    fanned out over ``engine``'s workers.  Without an engine a private
    worker-less one evaluates every order in-process (no pruning), the
    per-order computation of :func:`~repro.bench.microbench.size_sweep`
    bit for bit.  ``backend`` names the execution backend for every
    grid point (``round`` reproduces the paper figures bit-identically;
    ``logp`` trades absolute fidelity for speed; ``des`` replays every
    point on the flow-level simulator).
    """
    from repro.bench.microbench import MicrobenchPoint
    from repro.bench.sweeps import _sweep_cells
    from repro.collectives.selector import select_algorithm
    from repro.core.metrics import signature
    from repro.engine import SweepEngine
    from repro.workloads import collective_cells

    orders = [tuple(order) for order in orders]
    cells = collective_cells([comm_size], [collective], sizes, algorithm)
    rows = _sweep_cells(
        topology, hierarchy, cells, orders, engine or SweepEngine(prune=False),
        backend,
    )
    points = {
        (order, cell.total_bytes): MicrobenchPoint(
            cell.total_bytes, out["duration_single"], out["duration_all"]
        )
        for order, cell, out in rows
    }
    algo_label = algorithm or "+".join(
        sorted({select_algorithm(collective, comm_size, s) for s in sizes})
    )
    return [
        MicrobenchSeries(
            order=order,
            signature=signature(hierarchy, order, comm_size),
            collective=collective,
            algorithm=algo_label,
            comm_size=comm_size,
            n_comms=hierarchy.size // comm_size,
            points=tuple(points[order, s] for s in sizes),
        )
        for order in orders
    ]


def fig3_data(
    sizes: Sequence[float] | None = None, engine=None, backend: str = "round"
) -> list[MicrobenchSeries]:
    """Figure 3: Alltoall, 16 Hydra nodes, 512 ranks, 16 per communicator."""
    return _sweep_figure(
        hydra(16), HYDRA16, FIG3_ORDERS, 16, "alltoall",
        sizes or paper_sizes(n=9), engine=engine, backend=backend,
    )


def fig4_data(
    sizes: Sequence[float] | None = None, engine=None, backend: str = "round"
) -> list[MicrobenchSeries]:
    """Figure 4: Alltoall, 16 Hydra nodes, 512 ranks, 128 per communicator."""
    return _sweep_figure(
        hydra(16), HYDRA16, FIG4_ORDERS, 128, "alltoall",
        sizes or paper_sizes(n=7), engine=engine, backend=backend,
    )


def fig5_data(
    sizes: Sequence[float] | None = None, engine=None, backend: str = "round"
) -> list[MicrobenchSeries]:
    """Figure 5: Alltoall, 16 LUMI nodes, 2048 ranks, 16 per communicator."""
    return _sweep_figure(
        lumi(16), LUMI16, FIG5_ORDERS, 16, "alltoall",
        sizes or paper_sizes(n=7), engine=engine, backend=backend,
    )


def fig6_data(
    sizes: Sequence[float] | None = None, engine=None, backend: str = "round"
) -> list[MicrobenchSeries]:
    """Figure 6: Allreduce, 16 Hydra nodes, 512 ranks, 64 per communicator."""
    return _sweep_figure(
        hydra(16), HYDRA16, FIG6_ORDERS, 64, "allreduce",
        sizes or paper_sizes(n=9), engine=engine, backend=backend,
    )


def fig7_data(
    sizes: Sequence[float] | None = None, engine=None, backend: str = "round"
) -> list[MicrobenchSeries]:
    """Figure 7: Allgather, 16 LUMI nodes, 2048 ranks, 256 per communicator."""
    return _sweep_figure(
        lumi(16), LUMI16, FIG7_ORDERS, 256, "allgather",
        sizes or paper_sizes(n=7), engine=engine, backend=backend,
    )


# -- Figure 8: Splatt ----------------------------------------------------------


@dataclass(frozen=True)
class Fig8Data:
    nics: int
    runs: list[CPDRun]
    slurm_default_order: tuple[int, ...]
    correlation_cpd_vs_a2av16: float

    @property
    def best(self) -> CPDRun:
        return min(self.runs, key=lambda r: r.duration)

    @property
    def worst(self) -> CPDRun:
        return max(self.runs, key=lambda r: r.duration)

    @property
    def slurm_default(self) -> CPDRun:
        return next(r for r in self.runs if r.order == self.slurm_default_order)

    @property
    def improvement_vs_default(self) -> float:
        d = self.slurm_default.duration
        return (d - self.best.duration) / d


def fig8_data(nics: int = 1, iterations: int = 50) -> Fig8Data:
    """Figure 8 + the Section 4.2 correlation: Splatt CPD on 32 Hydra
    nodes (1024 ranks), every order, with 1 or 2 NICs per node."""
    runs = reordering_study(hydra(32, nics=nics), HYDRA32, iterations=iterations)
    durations = [r.duration for r in runs]
    a2av16 = [r.alltoallv_by_comm_size.get(16, 0.0) for r in runs]
    return Fig8Data(
        nics=nics,
        runs=runs,
        slurm_default_order=(1, 3, 2, 0),
        correlation_cpd_vs_a2av16=pearson(durations, a2av16),
    )


# -- Figure 9: CG strong scaling ------------------------------------------------


@dataclass(frozen=True)
class Fig9Data:
    results: dict[int, list[CGRun]]
    perfect: dict[int, float]

    def best(self, p: int) -> CGRun:
        return min(self.results[p], key=lambda r: r.duration)

    def worst(self, p: int) -> CGRun:
        return max(self.results[p], key=lambda r: r.duration)

    def slurm_default(self, p: int) -> CGRun:
        return next(r for r in self.results[p] if r.is_slurm_default)


def fig9_data(
    proc_counts: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
    klass: str = "C",
) -> Fig9Data:
    """Figure 9: CG strong scaling on one LUMI node, all distinct core
    selections x rank orders."""
    results = strong_scaling(lumi_node(), LUMI_NODE, proc_counts, klass)
    return Fig9Data(results=results, perfect=perfect_scaling_reference(results))
