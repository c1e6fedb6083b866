"""Order recommendation ("which order should I use?").

The paper's conclusion sketches this as future work: *"This knowledge
could help to predict which order is the most suitable for the used system
and applications."*  The advisor operationalizes it with the machinery this
library already has:

1. prune the ``depth!`` orders to one representative per placement class
   (:func:`~repro.core.equivalence.placement_key`, which the sweep engine
   reuses results on: members run isomorphic simulations).  Section
   3.3's signature only labels each class in its legend;
2. score each representative on the fast contention model for the user's
   workload — collective, subcommunicator size, data sizes, and whether
   communicators run alone or concurrently;
3. return a ranking with the predicted durations and, for convenience,
   the Slurm ``--distribution`` equivalent when one exists.

Scoring a representative costs milliseconds, so exhaustive scoring of the
pruned space is practical even for 6-level hierarchies (720 orders, a few
dozen classes).

The query pipeline is split in two so other front-ends (notably the
placement-advisor service, :mod:`repro.service`) can interpose their own
evaluation step without forking the ranking logic: :func:`plan_query`
lowers a placement question (one or more workload cells, see
:class:`repro.workloads.Cell`) to a :class:`QueryPlan` — the
placement classes, whose flattened ``(representative, cell)``
:class:`~repro.engine.keys.EvalRequest` grid is ``plan.requests`` — and
:func:`advice_from_results` assembles the grid's results back into an
:class:`Advice`.  Any evaluator that returns the grid's results aligned
with ``plan.requests`` therefore produces rankings bitwise-identical to
:func:`advise` by construction.

Sweeps are plans whose candidates are orders (:func:`plan_sweep`), so
the plan's grid and :func:`ladder_search` serve every front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from repro.core.equivalence import placement_key
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import OrderSignature, signature
from repro.core.orders import Order, all_orders, format_order
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class PlacementClass:
    """One placement class of orders: ``members`` share a
    :func:`~repro.core.equivalence.placement_key`, representative first.

    Everything an answer shows of the class but its duration renders
    from the representative on first use and is kept, so every answer
    over a memoized class set shares one rendering and a class no answer
    shows is never rendered.
    """

    hierarchy: Hierarchy
    comm_size: int
    members: tuple[Order, ...]

    @property
    def order(self) -> Order:
        """The representative."""
        return self.members[0]

    @cached_property
    def signature(self) -> OrderSignature:
        return signature(self.hierarchy, self.order, self.comm_size)

    @cached_property
    def slurm_distribution(self) -> str | None:
        from repro.launcher.slurm import order_to_distribution

        return order_to_distribution(self.hierarchy, self.order)

    @cached_property
    def order_names(self) -> tuple[str, ...]:
        return tuple(format_order(o) for o in self.members)

    @cached_property
    def legend_prefix(self) -> str:
        """``"<signature legend>[ [slurm]] "``."""
        slurm = f" [{self.slurm_distribution}]" if self.slurm_distribution else ""
        return f"{self.signature.legend()}{slurm} "


@dataclass(frozen=True)
class Recommendation:
    """One scored placement class of orders."""

    placement_class: PlacementClass
    predicted_seconds: float

    @property
    def order(self) -> Order:
        """The class representative."""
        return self.placement_class.order

    @property
    def equivalent_orders(self) -> tuple[Order, ...]:
        return self.placement_class.members

    @property
    def signature(self) -> OrderSignature:
        return self.placement_class.signature

    @property
    def slurm_distribution(self) -> str | None:
        return self.placement_class.slurm_distribution

    def legend(self) -> str:
        return (
            f"{self.placement_class.legend_prefix}-> "
            f"{self.predicted_seconds * 1e3:.3f} ms"
        )

    def to_jsonable(self) -> dict:
        """JSON-safe form (floats round-trip exactly through ``json``)."""
        names = self.placement_class.order_names
        return {
            "order": list(self.order),
            "order_name": names[0],
            "equivalent_orders": list(names),
            "predicted_seconds": self.predicted_seconds,
            "slurm_distribution": self.slurm_distribution,
            "legend": self.legend(),
        }


@dataclass(frozen=True)
class Advice:
    """Ranked recommendations (fastest first) plus context."""

    recommendations: tuple[Recommendation, ...]
    collective: str
    comm_size: int
    scenario: str

    @property
    def best(self) -> Recommendation:
        return self.recommendations[0]

    @property
    def worst(self) -> Recommendation:
        return self.recommendations[-1]

    def spread_factor(self) -> float:
        """Predicted worst/best duration ratio — how much the choice matters.

        1.0 when every predicted time is 0 (e.g. one-rank communicators
        move no data): no choice matters.
        """
        best = self.best.predicted_seconds
        if best == 0 and all(r.predicted_seconds == 0 for r in self.recommendations):
            return 1.0
        return self.worst.predicted_seconds / best

    def report(self) -> str:
        lines = [
            f"advice for {self.collective} in {self.comm_size}-rank "
            f"communicators ({self.scenario} scenario):"
        ]
        for i, rec in enumerate(self.recommendations):
            n = len(rec.equivalent_orders)
            extra = f" (+{n - 1} equivalent)" if n > 1 else ""
            lines.append(f"  {i + 1}. {rec.legend()}{extra}")
        lines.append(f"worst/best factor: {self.spread_factor():.2f}x")
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "collective": self.collective,
            "comm_size": self.comm_size,
            "scenario": self.scenario,
            "recommendations": [r.to_jsonable() for r in self.recommendations],
            "spread_factor": self.spread_factor(),
        }


@dataclass(frozen=True)
class QueryPlan:
    """A placement question lowered to its candidates and their grid.

    ``orders`` holds one order per candidate.  An advice plan
    (:func:`plan_query`) ranks placement ``classes``, the memo's
    :class:`PlacementClass` objects shared by every plan over the class
    set, and evaluates each at its representative; a sweep plan
    (:func:`plan_sweep`) ranks the orders themselves and has no classes.
    ``cells`` is the query's traffic.  :attr:`requests` is the
    evaluable grid, built afresh on each read, so a memoized plan does
    not hold it.
    """

    topology: MachineTopology
    hierarchy: Hierarchy
    cells: tuple
    scenario: str
    backend: str
    orders: tuple[Order, ...]
    classes: tuple[PlacementClass, ...] = ()

    @property
    def comm_size(self) -> int:
        return self.cells[0].comm_size

    @property
    def name(self) -> str:
        """The report label (the collective, or the workload)."""
        return self.cells[0].name

    @property
    def duration_key(self) -> str:
        return "duration_all" if self.scenario == "all" else "duration_single"

    @property
    def grid(self) -> list[tuple[Order, object]]:
        """The ``(order, cell)`` points: comm-major (sizes first-seen),
        then candidate, then cell; with one size, point ``i`` scores
        candidate ``i // len(cells)`` on cell ``cells[i % len(cells)]``."""
        by_size: dict[int, list] = {}
        for cell in self.cells:
            by_size.setdefault(cell.comm_size, []).append(cell)
        return [
            (order, cell)
            for group in by_size.values()
            for order in self.orders
            for cell in group
        ]

    @property
    def requests(self) -> tuple:
        """The grid's requests, whose results -- aligned with it --
        :func:`advice_from_results` assembles into an :class:`Advice`."""
        return tuple(
            cell.request(self.backend, self.topology, self.hierarchy, order)
            for order, cell in self.grid
        )

    def __len__(self) -> int:
        return len(self.orders) * len(self.cells)


def _checked(topology, hierarchy, cells, scenario, orders, backend):
    """The checks every plan makes; returns ``(cells, orders)`` as
    tuples (``orders`` stays None: every order)."""
    from repro.workloads.base import check_grid

    if scenario not in ("all", "single"):
        raise ValueError("scenario must be 'all' or 'single'")
    cells = tuple(cells)
    if not cells:
        raise ValueError("a query needs at least one cell (payload size)")
    check_grid(topology, hierarchy, cells, backend)
    if orders is None:
        return cells, None
    orders = tuple(tuple(order) for order in orders)
    if not orders:
        raise ValueError("a query needs at least one order")
    seen: set[Order] = set()
    for order in orders:
        if order in seen:
            raise ValueError(f"duplicate order {format_order(order)} in orders")
        seen.add(order)
    return cells, orders


def plan_query(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    cells: Sequence,
    scenario: str = "all",
    orders: Sequence[Order] | None = None,
    backend: str = "round",
) -> QueryPlan:
    """Validate a placement query and lower it to a :class:`QueryPlan`
    over the placement classes of ``orders`` (default: every order).

    ``cells`` are the query's workload cells
    (:func:`repro.workloads.collective_cells` for a collective at
    several payload sizes, :func:`repro.workloads.workload_cell` for a
    registered workload); they must share one communicator size, which
    must divide the machine.  The request grid carries the same content
    keys the sweep layer issues, so advisor and sweeps share every cache
    record.
    """
    cells, orders = _checked(topology, hierarchy, cells, scenario, orders, backend)
    if len({c.comm_size for c in cells}) > 1:
        raise ValueError(
            "a query's cells must share one communicator size, got "
            f"{sorted({c.comm_size for c in cells})}"
        )
    classes = _order_classes(hierarchy, cells[0].comm_size, orders)
    orders = tuple(c.order for c in classes)
    return QueryPlan(topology, hierarchy, cells, scenario, backend, orders, classes)


def plan_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    cells: Sequence,
    scenario: str = "all",
    orders: Sequence[Order] | None = None,
    backend: str = "round",
) -> QueryPlan:
    """Validate a sweep and lower it to a :class:`QueryPlan` whose
    candidates are ``orders`` themselves (default: every order, in
    :func:`all_orders` order), over cells of any communicator sizes.
    Orders are not grouped into classes: the engine prunes equivalent
    points itself, and every order keeps its own row.
    """
    cells, orders = _checked(topology, hierarchy, cells, scenario, orders, backend)
    if orders is None:
        orders = tuple(all_orders(hierarchy.depth))
    return QueryPlan(topology, hierarchy, cells, scenario, backend, orders)


@lru_cache(maxsize=256)
def _order_classes(
    hierarchy: Hierarchy,
    comm_size: int,
    orders: tuple[Order, ...] | None,
) -> tuple[PlacementClass, ...]:
    """``orders`` (default :func:`all_orders`) grouped by
    :func:`~repro.core.equivalence.placement_key`, classes and members in
    input order, memoized.

    A query's classes, and everything its answer shows of them but their
    durations, depend only on these arguments, not on its payloads, so a
    service plan-memo miss for a novel payload reuses them and their
    renderings.
    """
    groups: dict[tuple[int, ...], list[Order]] = {}
    for order in all_orders(hierarchy.depth) if orders is None else orders:
        groups.setdefault(placement_key(hierarchy, order, comm_size), []).append(order)
    return tuple(
        PlacementClass(hierarchy, comm_size, tuple(members))
        for members in groups.values()
    )


def advice_from_results(plan: QueryPlan, results: Sequence[dict]) -> Advice:
    """Assemble a plan's evaluated grid (aligned with ``plan.requests``)
    into ranked :class:`Advice`.

    Quarantined :class:`~repro.engine.supervisor.EvalFailure` records in
    the grid raise a structured
    :class:`~repro.engine.batch.BatchEvaluationError` naming the failed
    (order, payload) points instead of a bare ``KeyError``.
    """
    from repro.engine.batch import BatchEvaluationError, failed_point
    from repro.engine.supervisor import is_failure

    if len(results) != len(plan):
        raise ValueError(
            f"expected {len(plan)} results for the plan's grid, "
            f"got {len(results)}"
        )
    n_cells = len(plan.cells)
    failed = [
        failed_point(
            results[i],
            order=plan.orders[i // n_cells],
            total_bytes=plan.cells[i % n_cells].total_bytes,
        )
        for i in range(len(results))
        if is_failure(results[i])
    ]
    if failed:
        raise BatchEvaluationError(
            failed, context=f"{plan.backend} advice grid for {plan.name}"
        )
    key = plan.duration_key
    totals = [
        sum(float(results[c * n_cells + j][key]) for j in range(n_cells))
        for c in range(len(plan.classes))
    ]
    return _assemble(plan, totals)


def _assemble(plan: QueryPlan, totals: Sequence[float | None]) -> Advice:
    """Ranked advice from one summed duration per placement class (None
    for a class the ladder eliminated: it has no duration to report)."""
    recs = sorted(
        (
            Recommendation(c, total)
            for c, total in zip(plan.classes, totals)
            if total is not None
        ),
        key=lambda r: r.predicted_seconds,
    )
    return Advice(
        recommendations=tuple(recs),
        collective=plan.name,
        comm_size=plan.comm_size,
        scenario=plan.scenario,
    )


def ladder_search(plan: QueryPlan, engine=None, config=None, exhaustive_audit=False):
    """Rank a plan's candidates through the fidelity ladder
    (:meth:`~repro.engine.fidelity.FidelityLadder.search`); returns its
    :class:`~repro.engine.fidelity.LadderResult`.

    Candidates are scored on the free analytic metric first and
    survivors promoted through costlier models until the plan's backend,
    the final rung, ranks the finalists.  An engine rung sums the plan's
    scenario duration over one request per cell, so the final rung
    issues the plan grid's keys; the ``metric`` rung sums
    :func:`~repro.engine.fidelity.analytic_order_score` over the
    distinct ``(comm_size, total_bytes)`` pairs, first-seen.  ``config``
    is a :class:`~repro.engine.fidelity.LadderConfig` or a mapping of its
    fields (rungs left out or None: the stock ladder toward the backend).
    A class is keyed by its index, so tied classes keep the order plain
    advice lists them in, and an order by itself; the probe choice
    hashes that key.
    """
    # The metric rung binds its own `signature`: the module-level name is
    # the one a class renders its legend through.
    from repro.core.metrics import signature
    from repro.engine import SweepEngine
    from repro.engine.fidelity import (
        FidelityLadder,
        LadderConfig,
        analytic_order_score,
        default_rungs,
    )

    if not isinstance(config, LadderConfig):
        knobs = dict(config or {})
        knobs["rungs"] = knobs.get("rungs") or default_rungs(plan.backend)
        config = LadderConfig(**knobs)
    if config.rungs[-1] != plan.backend:
        raise ValueError(
            f"the final rung {config.rungs[-1]!r} must match the plan's "
            f"backend {plan.backend!r}: it scores the finalists"
        )
    keys = range(len(plan.orders)) if plan.classes else plan.orders
    order_of = dict(zip(keys, plan.orders))
    topology, hierarchy, cells = plan.topology, plan.hierarchy, plan.cells
    pairs = list(dict.fromkeys((c.comm_size, c.total_bytes) for c in cells))
    comm_sizes = list(dict.fromkeys(comm_size for comm_size, _ in pairs))

    def requests_for(model: str, key) -> list:
        order = order_of[key]
        return [cell.request(model, topology, hierarchy, order) for cell in cells]

    def metric_score(key) -> float:
        order = order_of[key]
        sigs = {c: signature(hierarchy, order, c) for c in comm_sizes}
        return sum(
            analytic_order_score(
                topology, hierarchy, order, comm_size, total, sig=sigs[comm_size]
            )
            for comm_size, total in pairs
        )

    return FidelityLadder(engine or SweepEngine(), config, plan.duration_key).search(
        keys, requests_for, metric_score, exhaustive_audit
    )


def ladder_advise(
    plan: QueryPlan,
    engine=None,
    config=None,
    exhaustive_audit: bool = False,
):
    """Rank a plan's placement classes through the fidelity ladder
    (:func:`ladder_search`).

    Returns ``(advice, result)`` — the :class:`Advice` over the
    *finalist* classes only (eliminated classes carry no duration to
    report) and the :class:`~repro.engine.fidelity.LadderResult` audit
    trail.  Finalist durations are bitwise-identical to a full
    :func:`advise` at the same backend: the final rung issues the same
    request keys as ``plan.requests``.
    """
    result = ladder_search(plan, engine, config, exhaustive_audit)
    if not result.ranking:
        raise ValueError(
            "ladder search produced no finalists (every class evaluation "
            "failed)"
        )
    totals = [result.scores.get(ci) for ci in range(len(plan.classes))]
    return _assemble(plan, totals), result


def advise(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    comm_size: int | None = None,
    collective: str | None = None,
    total_bytes: Sequence[float] | None = None,
    scenario: str = "all",
    algorithm: str | None = None,
    orders: Sequence[Order] | None = None,
    backend: str = "round",
    batch: bool = False,  # ignored; the engine picks its path
    engine=None,
    ladder=False,
    cells: Sequence | None = None,
) -> Advice:
    """Rank the orders' placement classes by predicted duration.

    The query is either a collective -- ``comm_size``, ``collective``
    (default ``alltoall``), the payload sizes ``total_bytes`` (default
    ``(1e6, 64e6)``) and an optional pinned ``algorithm``, translated
    here into ``collective`` workload cells -- or explicit ``cells``
    (e.g. ``(workload_cell("dnn", params),)``), which must not be
    combined with any collective argument.  ``scenario`` is
    ``"all"`` (every subcommunicator runs concurrently — the common
    production case) or ``"single"``.  The score is the summed duration
    across the cells (one slow size cannot hide a pathological
    small-size regime).  ``backend`` selects the execution backend that
    scores each representative: ``round`` (the default contention
    model), ``logp`` (faster, rankings-only fidelity) or ``des``
    (slowest, per-flow exact).

    Every class representative is scored through a
    :class:`~repro.engine.SweepEngine` (pass ``engine`` to share its
    cache across calls; otherwise a private worker-less one is used).
    The frontier runs as the engine's chunks: one in-process chunk
    without workers, chunks on the workers with them.
    ``batch`` is accepted and ignored.

    ``ladder`` routes the ranking through the multi-fidelity search
    instead (``True`` for the stock ladder toward ``backend``, or a
    :class:`~repro.engine.fidelity.LadderConfig`); the returned advice
    then covers only the ladder's finalist classes — see
    :func:`ladder_advise` for the audit trail.
    """
    if cells is None:
        from repro.workloads import collective_cells

        if comm_size is None:
            raise ValueError("comm_size is required for collective queries")
        sizes = (1e6, 64e6) if total_bytes is None else total_bytes
        cells = collective_cells([comm_size], [collective or "alltoall"], sizes, algorithm)
    else:
        named = [
            name
            for name, value in zip(
                ("algorithm", "collective", "comm_size", "total_bytes"),
                (algorithm, collective, comm_size, total_bytes),
            )
            if value is not None
        ]
        if named:
            raise ValueError(
                f"workload queries must not name {named}: the lowered "
                "workload defines the communicator size and traffic volume"
            )
    plan = plan_query(
        topology, hierarchy, cells, scenario=scenario, orders=orders,
        backend=backend,
    )
    if ladder:
        advice, _ = ladder_advise(plan, engine, None if ladder is True else ladder)
        return advice
    from repro.engine import SweepEngine

    engine = engine or SweepEngine()
    return advice_from_results(plan, engine.evaluate_many(list(plan.requests)))
