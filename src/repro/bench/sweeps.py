"""Generic parameter sweeps with tabular/CSV output.

The figure generators are fixed to the paper's configurations; this module
is the open-ended counterpart for downstream users: sweep any subset of
{order, communicator size, collective, algorithm, data size, machine} on
the fast model and collect tidy records suitable for CSV export or
further analysis.

Collective sweeps and workload sweeps are one path: each front-end
translates its arguments into workload cells
(:class:`repro.workloads.Cell`) and lowers them to a sweep
:class:`~repro.core.advisor.QueryPlan` (:func:`~repro.core.advisor.plan_sweep`),
whose grid and ladder (:func:`~repro.core.advisor.ladder_search`) are
the advisor's own.  Every grid point runs through
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
from dataclasses import dataclass, fields, replace
from typing import Sequence

from repro.core.advisor import QueryPlan, ladder_search, plan_sweep
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import ring_cost
from repro.core.orders import Order, format_order
from repro.engine import SweepEngine, is_failure
from repro.workloads import collective_cells, lower_workload, workload_cell
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


# -- rows of a sweep plan ----------------------------------------------------


def _rows(plan: QueryPlan, engine) -> list[tuple[Order, object, dict]]:
    """Evaluate the plan's grid; returns ``(order, cell, result)`` rows
    in grid order, without the quarantined points (they stay on
    ``engine.failures`` and are never cached, so a re-run retries them)."""
    results = engine.evaluate_many(list(plan.requests))
    return [
        (order, cell, point)
        for (order, cell), point in zip(plan.grid, results)
        if not is_failure(point)
    ]


def _ladder(
    topology, hierarchy, cells, orders, engine, records_of,
    backend="round", scenario="all", top_k=10, exhaustive_audit=False, **knobs,
):
    """The ladder search over a sweep plan: the ``top_k`` finalists'
    records and the ladder's audit trail.  The finalists' rows are read
    through the plan's grid (pure cache hits: the final rung evaluated
    these keys)."""
    plan = plan_sweep(topology, hierarchy, cells, scenario, orders, backend)
    result = ladder_search(plan, engine, dict(knobs, top_k=top_k), exhaustive_audit)
    finalists = replace(plan, orders=result.ranking)
    records = records_of(plan, _rows(finalists, engine))
    return top_k_records(records, top_k, scenario), result


def _collective_records(plan: QueryPlan, rows) -> list[SweepRecord]:
    from repro.collectives.selector import select_algorithm

    return [
        SweepRecord(
            machine=plan.topology.name,
            order=format_order(order),
            ring_cost=ring_cost(plan.hierarchy, order, cell.comm_size),
            comm_size=cell.comm_size,
            n_comms=plan.hierarchy.size // cell.comm_size,
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


def _workload_records(plan: QueryPlan, rows) -> list[WorkloadRecord]:
    labels = {
        cell: lower_workload(cell.workload, cell.params).meta.label
        or cell.workload
        for cell in dict.fromkeys(cell for _, cell, _ in rows)
    }
    return [
        WorkloadRecord(
            machine=plan.topology.name,
            order=format_order(order),
            ring_cost=ring_cost(plan.hierarchy, order, cell.comm_size),
            workload=cell.workload,
            label=labels[cell],
            comm_size=cell.comm_size,
            n_comms=plan.hierarchy.size // cell.comm_size,
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
    size.  ``orders`` defaults to every order; an empty or repeated
    order list raises :class:`ValueError` before anything is evaluated.

    ``backend`` selects the execution backend per point: ``round`` (the
    default), ``logp`` (fast advisory rankings) or ``des`` (exact flow
    simulation; the all-communicators scenario is simulated too, so
    expect DES-scale runtimes).  ``round`` and ``logp`` points are
    scored in chunks of whole placement groups, one batch-kernel call
    per model and chunk: one chunk in-process without workers, about
    four per worker with them; ``des`` points run one by one.  Results
    are bitwise identical either way.
    """
    engine = engine or SweepEngine(jobs=jobs, cache_dir=cache_dir, prune=prune)
    cells = collective_cells(comm_sizes, collectives, sizes, algorithm)
    plan = plan_sweep(topology, hierarchy, cells, orders=orders, backend=backend)
    return _collective_records(plan, _rows(plan, engine))


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
    plan = plan_sweep(topology, hierarchy, cells, orders=orders, backend=backend)
    return _workload_records(plan, _rows(plan, engine))


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
    (:func:`~repro.core.advisor.ladder_search`, the advisor's): orders
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
    return _ladder(
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
    return _ladder(
        topology, hierarchy, cells, orders, engine, _workload_records, **options
    )


def to_csv(records: Sequence) -> str:
    """Render dataclass records as CSV (header + one row per record)."""
    if not records:
        return ""
    names = [f.name for f in fields(records[0])]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    writer.writerows([getattr(rec, name) for name in names] for rec in records)
    return buf.getvalue()
