"""Generic parameter sweeps with tabular/CSV output.

The figure generators are fixed to the paper's configurations; this module
is the open-ended counterpart for downstream users: sweep any subset of
{order, communicator size, collective, algorithm, data size, machine} on
the fast model and collect tidy records suitable for CSV export or
further analysis.

Collective sweeps and workload sweeps are one path: each front-end
translates its arguments into workload cells
(:class:`repro.workloads.Cell`), and one grid function and one ladder
search serve them all.  Every grid point runs through
:class:`repro.engine.SweepEngine` as a content-addressed
:class:`~repro.engine.EvalRequest`, so
repeated points are recalled from the cache, order-equivalent points are
evaluated once per class, and independent points fan out over a worker
pool (``jobs``).  Pass an existing engine to share its cache and
statistics across sweeps, or let each call build a private serial one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.core.hierarchy import Hierarchy
from repro.core.metrics import signature
from repro.core.orders import Order, all_orders, format_order
from repro.engine import EvalRequest, SweepEngine, is_failure
from repro.workloads import collective_cells, lower_workload, workload_cell
from repro.workloads.base import check_grid
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class SweepRecord:
    """One measurement of the sweep grid."""

    machine: str
    order: str
    ring_cost: int
    comm_size: int
    n_comms: int
    collective: str
    algorithm: str
    total_bytes: float
    duration_single: float
    duration_all: float
    bandwidth_single: float
    bandwidth_all: float


@dataclass(frozen=True)
class WorkloadRecord:
    """One (order, workload) measurement of a workload sweep."""

    machine: str
    order: str
    ring_cost: int
    workload: str
    label: str
    comm_size: int
    n_comms: int
    total_bytes: float
    duration_single: float
    duration_all: float


# -- the one grid path -------------------------------------------------------
#
# Every sweep front-end reduces to a tuple of workload cells
# (repro.workloads.Cell).  The grid is comm-major: for each communicator
# size (first-seen), every order crosses that size's cells in cell order.


def _sweep_cells(
    topology, hierarchy, cells, orders, engine, backend: str
) -> list[tuple[Order, object, dict]]:
    """Evaluate the grid; returns ``(order, cell, result)`` rows in grid
    order, without the quarantined points (they stay on
    ``engine.failures`` and are never cached, so a re-run retries them)."""
    check_grid(topology, hierarchy, cells, backend)
    if orders is None:
        orders = all_orders(hierarchy.depth)
    orders = [tuple(order) for order in orders]
    grid = [
        (order, cell)
        for comm_size in dict.fromkeys(c.comm_size for c in cells)
        for order in orders
        for cell in cells
        if cell.comm_size == comm_size
    ]
    results = engine.evaluate_many(
        [cell.request(backend, topology, hierarchy, order) for order, cell in grid]
    )
    return [
        (order, cell, point)
        for (order, cell), point in zip(grid, results)
        if not is_failure(point)
    ]


def _ladder_cells(
    topology,
    hierarchy,
    cells,
    orders,
    engine,
    records_of,
    backend: str = "round",
    scenario: str = "all",
    rungs: Sequence[str] | None = None,
    eta: float = 4.0,
    top_k: int = 10,
    probe: int = 16,
    tau_floor: float = 0.9,
    seed: int = 0,
    exhaustive_audit: bool = False,
):
    """The multi-fidelity search over a cell grid.

    Returns the ``top_k`` finalists' records (``records_of`` formats the
    rows, which the final rung left in the cache) and the ladder's
    audit trail."""
    from repro.engine.fidelity import FidelityLadder, LadderConfig, default_rungs

    check_grid(topology, hierarchy, cells, backend)
    if scenario not in ("all", "single"):
        raise ValueError("scenario must be 'all' or 'single'")
    if orders is None:
        orders = all_orders(hierarchy.depth)
    config = LadderConfig(
        rungs=tuple(rungs) if rungs is not None else default_rungs(backend),
        eta=eta,
        top_k=top_k,
        probe=probe,
        tau_floor=tau_floor,
        seed=seed,
        duration_key="duration_all" if scenario == "all" else "duration_single",
    )
    if config.rungs[-1] != backend:
        raise ValueError(
            f"the final rung {config.rungs[-1]!r} must match backend "
            f"{backend!r}: the finalists' records are materialized at the "
            "sweep backend's fidelity"
        )
    result = FidelityLadder(engine, config).search_cells(
        [tuple(order) for order in orders],
        topology,
        hierarchy,
        cells,
        exhaustive_audit=exhaustive_audit,
    )
    # Re-run the finalists through the plain grid (pure cache hits: the
    # final rung already evaluated these keys) to materialize records.
    rows = _sweep_cells(
        topology, hierarchy, cells, list(result.ranking), engine, backend
    )
    records = records_of(topology, hierarchy, rows)
    return top_k_records(records, top_k, scenario), result


def _collective_records(topology, hierarchy, rows) -> list[SweepRecord]:
    from repro.collectives.selector import select_algorithm

    sigs = {
        key: signature(hierarchy, key[1], key[0])
        for key in dict.fromkeys((cell.comm_size, order) for order, cell, _ in rows)
    }
    return [
        SweepRecord(
            machine=topology.name,
            order=format_order(order),
            ring_cost=sigs[cell.comm_size, order].ring_cost,
            comm_size=cell.comm_size,
            n_comms=hierarchy.size // cell.comm_size,
            collective=cell.name,
            algorithm=dict(cell.params)["algorithm"]
            or select_algorithm(cell.name, cell.comm_size, cell.total_bytes),
            total_bytes=cell.total_bytes,
            duration_single=point["duration_single"],
            duration_all=point["duration_all"],
            bandwidth_single=cell.total_bytes / point["duration_single"],
            bandwidth_all=cell.total_bytes / point["duration_all"],
        )
        for order, cell, point in rows
    ]


def _workload_records(topology, hierarchy, rows) -> list[WorkloadRecord]:
    labels = {
        cell: lower_workload(cell.workload, cell.params).meta.label
        or cell.workload
        for cell in dict.fromkeys(cell for _, cell, _ in rows)
    }
    return [
        WorkloadRecord(
            machine=topology.name,
            order=format_order(order),
            ring_cost=signature(hierarchy, order, cell.comm_size).ring_cost,
            workload=cell.workload,
            label=labels[cell],
            comm_size=cell.comm_size,
            n_comms=hierarchy.size // cell.comm_size,
            total_bytes=cell.total_bytes,
            duration_single=point["duration_single"],
            duration_all=point["duration_all"],
        )
        for order, cell, point in rows
    ]


# -- front-ends ----------------------------------------------------------------


def sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_sizes: Sequence[int],
    collectives: Sequence[str] = ("alltoall",),
    sizes: Sequence[float] = (1e6, 64e6),
    orders: Sequence[Order] | None = None,
    algorithm: str | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
    prune: bool = True,
    backend: str = "round",
) -> list[SweepRecord]:
    """Evaluate the full cross product; returns one record per point.

    The grid is materialized as engine requests and evaluated in one
    batch, so memoization, equivalence pruning, and the worker pool all
    apply; record order is comm-size-major, then order, collective and
    size.

    ``backend`` selects the execution backend per point: ``round`` (the
    default), ``logp`` (fast advisory rankings) or ``des`` (exact flow
    simulation; the all-communicators scenario is simulated too, so
    expect DES-scale runtimes).  Where the points run follows from the
    engine's workers: without them, ``round`` and ``logp`` points are
    scored in-process as one vectorized pass; with them, every point is
    a worker task.  Results are bitwise identical either way.
    """
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir, prune=prune)
    cells = collective_cells(comm_sizes, collectives, sizes, algorithm)
    rows = _sweep_cells(topology, hierarchy, cells, orders, engine, backend)
    return _collective_records(topology, hierarchy, rows)


def workload_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    workload: str,
    params: dict | None = None,
    orders: Sequence[Order] | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
    prune: bool = True,
    backend: str = "round",
) -> list[WorkloadRecord]:
    """Score every enumeration order against one lowered workload.

    The workload is lowered once through the registry (validated and
    memoized); its rank count is the communicator size, so the protocol's
    ``n_comms = hierarchy.size // n_ranks`` concurrent instances measure
    the ``all`` scenario.  Unknown workload names raise
    :class:`~repro.workloads.UnknownWorkloadError` (naming the registered
    set) before any request is issued.  Points run through the same grid
    path as :func:`sweep`.
    """
    cells = (workload_cell(workload, params),)
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir, prune=prune)
    rows = _sweep_cells(topology, hierarchy, cells, orders, engine, backend)
    return _workload_records(topology, hierarchy, rows)


def top_k_records(
    records: Sequence,
    k: int,
    scenario: str = "all",
) -> list:
    """The records of the ``k`` fastest orders, rank-major.

    An order's rank score is its summed duration across every grid cell
    (the same aggregation the advisor and the fidelity ladder use), ties
    broken by the order name, so the selection is deterministic.  Within
    an order the original record order is preserved -- the output is a
    stable, byte-reproducible top-k table for CSV comparison.
    """
    key_attr = "duration_all" if scenario == "all" else "duration_single"
    totals: dict[str, float] = {}
    groups: dict[str, list] = {}
    for rec in records:
        totals[rec.order] = totals.get(rec.order, 0.0) + getattr(rec, key_attr)
        groups.setdefault(rec.order, []).append(rec)
    ranked = sorted(totals, key=lambda o: (totals[o], o))[:k]
    out: list = []
    for order in ranked:
        out.extend(groups[order])
    return out


def ladder_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_sizes: Sequence[int],
    collectives: Sequence[str] = ("alltoall",),
    sizes: Sequence[float] = (1e6, 64e6),
    orders: Sequence[Order] | None = None,
    algorithm: str | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
    **options,
):
    """Multi-fidelity order search over the sweep grid.

    Instead of evaluating every order at full fidelity like
    :func:`sweep`, runs the error-calibrated successive-halving ladder
    (:meth:`~repro.engine.fidelity.FidelityLadder.search_cells`): orders
    are scored on the free analytic metric first, survivors promoted
    through progressively costlier models until ``backend`` ranks the
    finalists.  A candidate's score at any rung is its summed scenario
    duration over the full ``comm_sizes x collectives x sizes`` grid --
    exactly the aggregation :func:`top_k_records` applies to plain sweep
    output, and the engine requests carry the same content keys
    :func:`sweep` issues, so ladder and sweep share every cache record.

    ``options`` are the ladder's knobs: ``backend`` (``round``; the final
    rung), ``scenario`` (``all``), ``rungs`` (default: the stock ladder
    toward ``backend``), ``eta`` (4.0), ``top_k`` (10), ``probe`` (16),
    ``tau_floor`` (0.9), ``seed`` (0) and ``exhaustive_audit`` (False).
    ``exhaustive_audit`` additionally evaluates *every* order at the
    final rung and asserts the ladder's top-k matches -- the opt-in
    correctness gate, at full-sweep cost.

    Returns ``(records, result)``: the finalists' sweep records trimmed
    to the ``top_k`` fastest orders (rank-major, byte-comparable to
    ``top_k_records(sweep(...), top_k, scenario)``), and the
    :class:`~repro.engine.fidelity.LadderResult` audit trail (per-rung
    promotion counts, probe Kendall taus, request totals).
    """
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    cells = collective_cells(comm_sizes, collectives, sizes, algorithm)
    return _ladder_cells(
        topology, hierarchy, cells, orders, engine, _collective_records, **options
    )


def workload_ladder_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    workload: str,
    params: dict | None = None,
    orders: Sequence[Order] | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
    **options,
):
    """Multi-fidelity order search for one workload.

    The workload counterpart of :func:`ladder_sweep`, with the same
    ladder ``options`` and search: the metric rung prices the workload's
    declared traffic volume.  Returns ``(records, result)`` with the
    finalists' :class:`WorkloadRecord` rows (rank-major, the ``top_k``
    fastest) and the ladder's audit trail.  Requests carry the same
    content keys :func:`workload_sweep` issues, so ladder and plain
    sweeps share every cache record.
    """
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    cells = (workload_cell(workload, params),)
    return _ladder_cells(
        topology, hierarchy, cells, orders, engine, _workload_records, **options
    )


def to_csv(records: Sequence) -> str:
    """Render dataclass records as CSV (header + one row per record)."""
    if not records:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(asdict(records[0])))
    writer.writeheader()
    for rec in records:
        writer.writerow(asdict(rec))
    return buf.getvalue()


def best_per_group(
    records: Sequence[SweepRecord],
    scenario: str = "all",
) -> dict[tuple, SweepRecord]:
    """Fastest record per (comm_size, collective, total_bytes) group."""
    key_attr = "duration_all" if scenario == "all" else "duration_single"
    best: dict[tuple, SweepRecord] = {}
    for rec in records:
        key = (rec.comm_size, rec.collective, rec.total_bytes)
        if key not in best or getattr(rec, key_attr) < getattr(best[key], key_attr):
            best[key] = rec
    return best


# -- verification sweeps -----------------------------------------------------


@dataclass(frozen=True)
class VerifyRecord:
    """One (collective, algorithm, comm size) verification cell."""

    machine: str
    collective: str
    algorithm: str
    comm_size: int
    total_bytes: float
    n_rounds: int
    semantic_ok: bool
    differential_ok: bool
    differential_rel_err: float
    invariants_ok: bool
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.semantic_ok and self.differential_ok and self.invariants_ok


def verify_sweep(
    comm_sizes: Sequence[int],
    collectives: Sequence[str] | None = None,
    total_bytes: float = 65536.0,
    topology: MachineTopology | None = None,
    tolerance: float | None = None,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
) -> list[VerifyRecord]:
    """Run the verification stack over a grid of collectives x sizes.

    For every registered algorithm valid at each communicator size, runs
    the semantic checker on its round schedule, the round-model/DES
    differential on a packed placement, and the trace-invariant audit of
    the replay.  With no ``topology`` each size gets a flat single-switch
    machine (the differential is then exact); pass a real machine to sweep
    hierarchical placements.

    Cells run through the sweep engine: the expensive DES replays are
    memoized (repeated campaigns over the same cells become cache hits)
    and independent cells fan out over ``jobs`` workers.
    """
    from repro.topology.machines import generic_cluster
    from repro.verify import DEFAULT_TOLERANCE, checkable_algorithms

    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    cells = []
    for p in comm_sizes:
        topo = topology or generic_cluster((max(p, 2),))
        if p > topo.n_cores:
            raise ValueError(f"comm size {p} exceeds {topo.n_cores} cores")
        for collective, algorithm in checkable_algorithms(p):
            if collectives is not None and collective not in collectives:
                continue
            (cell,) = collective_cells([p], [collective], [total_bytes], algorithm)
            cells.append((topo, cell))
    results = engine.evaluate_many(
        [
            EvalRequest(
                model="verify",
                topology=topo,
                comm_size=cell.comm_size,
                workload=cell.workload,
                workload_params=cell.params,
                extras=(("tolerance", tol),),
            )
            for topo, cell in cells
        ]
    )
    return [
        VerifyRecord(
            machine=topo.name,
            collective=cell.name,
            algorithm=dict(cell.params)["algorithm"],
            comm_size=cell.comm_size,
            total_bytes=total_bytes,
            n_rounds=int(out["n_rounds"]),
            semantic_ok=bool(out["semantic_ok"]),
            differential_ok=bool(out["differential_ok"]),
            differential_rel_err=out["differential_rel_err"],
            invariants_ok=bool(out["invariants_ok"]),
            n_violations=int(out["n_violations"]),
        )
        for (topo, cell), out in zip(cells, results)
        if not is_failure(out)  # quarantined cells stay on engine.failures
    ]


# -- chaos sweeps ------------------------------------------------------------


@dataclass(frozen=True)
class ChaosRecord:
    """One (order, fault class) cell of a chaos sweep."""

    machine: str
    order: str
    fault_kind: str
    seed: int
    n_faults: int
    n_ranks: int
    survivors: int
    n_attempts: int
    total_backoff: float
    healthy_time: float
    faulty_time: float
    slowdown: float  # faulty / healthy makespan (inf when never completed)


#: Fault classes :class:`~repro.faults.ChaosGenerator` can sample.
CHAOS_KINDS = ("node_crash", "nic_fail", "link_degrade", "straggler")


def chaos_sweep(
    topology: MachineTopology,
    orders: Sequence[Order] | None = None,
    fault_kinds: Sequence[str] = CHAOS_KINDS,
    count: int = 8,
    seed: int = 0,
    rate: float = 1.0,
    n_ranks: int | None = None,
    compute: float = 1e-6,
    engine: SweepEngine | None = None,
    jobs: int = 1,
    cache_dir=None,
) -> list[ChaosRecord]:
    """Quantify how each fault class degrades an alltoall, per order.

    For every enumeration order and fault class, runs a pairwise alltoall
    (``count`` doubles per block, preceded by ``compute`` seconds of local
    work so stragglers have something to slow down) on the event-driven
    simulator twice: once healthy, once under a
    :class:`~repro.faults.ChaosGenerator` schedule (``rate`` expected
    faults of that class over the healthy makespan) with ULFM-style
    shrink-and-retry recovery.  The same seed is used for every order, so
    a cell differs between orders only through placement -- the
    ``slowdown`` column directly measures how much the order's locality
    structure shields the collective from that fault class.

    The sweep runs as two engine batches: the per-order healthy baselines
    first (their makespans parameterize the fault schedules), then the
    (order, fault kind) chaos cells.  Both batches are memoized and fan
    out over ``jobs`` workers.
    """
    if orders is None:
        orders = all_orders(topology.hierarchy.depth)
    orders = [tuple(order) for order in orders]
    for kind in fault_kinds:
        if kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos fault kind {kind!r}")
    if n_ranks is None:
        n_ranks = topology.n_cores
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir)
    workload = (
        ("n_ranks", n_ranks),
        ("count", count),
        ("compute", compute),
    )
    healthy_results = engine.evaluate_many(
        [
            EvalRequest(
                model="chaos_healthy",
                topology=topology,
                order=order,
                extras=workload,
            )
            for order in orders
        ]
    )
    healthy_of = {
        order: out["healthy_time"]
        for order, out in zip(orders, healthy_results)
        if not is_failure(out)  # orders whose baseline failed are skipped
    }
    cells = [
        (order, kind)
        for order in orders
        if order in healthy_of
        for kind in fault_kinds
    ]
    results = engine.evaluate_many(
        [
            EvalRequest(
                model="chaos_cell",
                topology=topology,
                order=order,
                seed=seed,
                extras=workload
                + (
                    ("kind", kind),
                    ("rate", rate),
                    ("healthy", healthy_of[order]),
                ),
            )
            for order, kind in cells
        ]
    )
    return [
        ChaosRecord(
            machine=topology.name,
            order=format_order(order),
            fault_kind=kind,
            seed=seed,
            n_faults=int(out["n_faults"]),
            n_ranks=n_ranks,
            survivors=int(out["survivors"]),
            n_attempts=int(out["n_attempts"]),
            total_backoff=out["total_backoff"],
            healthy_time=out["healthy_time"],
            faulty_time=out["faulty_time"],
            slowdown=out["slowdown"],
        )
        for (order, kind), out in zip(cells, results)
        if not is_failure(out)  # quarantined cells stay on engine.failures
    ]


def chaos_best_per_fault(
    records: Sequence[ChaosRecord],
) -> dict[str, ChaosRecord]:
    """Least-degraded record per fault class (the reordering benefit)."""
    best: dict[str, ChaosRecord] = {}
    for rec in records:
        if rec.fault_kind not in best or rec.slowdown < best[rec.fault_kind].slowdown:
            best[rec.fault_kind] = rec
    return best
