"""Order recommendation ("which order should I use?").

The paper's conclusion sketches this as future work: *"This knowledge
could help to predict which order is the most suitable for the used system
and applications."*  The advisor operationalizes it with the machinery this
library already has:

1. prune the ``depth!`` orders to one representative per equivalence class
   (Section 3.3's metrics);
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
equivalence classes plus the flattened ``(representative, cell)``
:class:`~repro.engine.keys.EvalRequest` grid — and
:func:`advice_from_results` assembles the grid's results back into an
:class:`Advice`.  Any evaluator that returns the grid's results aligned
with ``plan.requests`` therefore produces rankings bitwise-identical to
:func:`advise` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.equivalence import equivalence_classes
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import OrderSignature
from repro.core.orders import Order, format_order
from repro.launcher.slurm import order_to_distribution
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class Recommendation:
    """One scored equivalence class of orders."""

    order: Order  # representative
    equivalent_orders: tuple[Order, ...]
    signature: OrderSignature
    predicted_seconds: float
    slurm_distribution: str | None

    def legend(self) -> str:
        slurm = f" [{self.slurm_distribution}]" if self.slurm_distribution else ""
        return (
            f"{self.signature.legend()}{slurm} "
            f"-> {self.predicted_seconds * 1e3:.3f} ms"
        )

    def to_jsonable(self) -> dict:
        """JSON-safe form (floats round-trip exactly through ``json``)."""
        return {
            "order": list(self.order),
            "order_name": format_order(self.order),
            "equivalent_orders": [format_order(o) for o in self.equivalent_orders],
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
        """Predicted worst/best duration ratio — how much the choice matters."""
        return self.worst.predicted_seconds / self.best.predicted_seconds

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
    """A placement query lowered to its evaluable request grid.

    ``cells`` is the query's traffic (workload cells sharing one
    communicator size); ``classes`` holds the order equivalence classes
    (representative first); ``requests`` is the flattened
    representative-major ``(representative, cell)`` grid whose results
    -- aligned with ``requests`` -- :func:`advice_from_results`
    assembles into an :class:`Advice`.  Index arithmetic: request ``i``
    scores class ``i // len(cells)`` on cell ``cells[i % len(cells)]``.
    """

    topology: MachineTopology
    hierarchy: Hierarchy
    cells: tuple
    scenario: str
    backend: str
    classes: tuple[tuple[OrderSignature, ...], ...]
    requests: tuple = ()

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

    def __len__(self) -> int:
        return len(self.requests)


def plan_query(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    cells: Sequence,
    scenario: str = "all",
    orders: Sequence[Order] | None = None,
    backend: str = "round",
) -> QueryPlan:
    """Validate a placement query and lower it to a :class:`QueryPlan`.

    ``cells`` are the query's workload cells
    (:func:`repro.workloads.collective_cells` for a collective at
    several payload sizes, :func:`repro.workloads.workload_cell` for a
    registered workload); they must share one communicator size, which
    must divide the machine.  The request grid carries the same content
    keys the sweep layer issues, so advisor and sweeps share every cache
    record.
    """
    from repro.workloads.base import check_grid

    if scenario not in ("all", "single"):
        raise ValueError("scenario must be 'all' or 'single'")
    cells = tuple(cells)
    if not cells:
        raise ValueError("a query needs at least one cell (payload size)")
    comm_size = cells[0].comm_size
    if any(c.comm_size != comm_size for c in cells):
        raise ValueError(
            "a query's cells must share one communicator size, got "
            f"{sorted({c.comm_size for c in cells})}"
        )
    check_grid(topology, hierarchy, cells, backend)
    classes = tuple(
        tuple(sigs)
        for sigs in equivalence_classes(hierarchy, comm_size, orders=orders).values()
    )
    requests = tuple(
        cell.request(backend, topology, hierarchy, tuple(sigs[0].order))
        for sigs in classes
        for cell in cells
    )
    return QueryPlan(
        topology=topology,
        hierarchy=hierarchy,
        cells=cells,
        scenario=scenario,
        backend=backend,
        classes=classes,
        requests=requests,
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

    if len(results) != len(plan.requests):
        raise ValueError(
            f"expected {len(plan.requests)} results for the plan's grid, "
            f"got {len(results)}"
        )
    n_cells = len(plan.cells)
    failed = [
        failed_point(
            results[i],
            order=tuple(plan.classes[i // n_cells][0].order),
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


def _assemble(plan: QueryPlan, totals: Sequence[float]) -> Advice:
    """Ranked advice from one summed duration per equivalence class."""
    recs = []
    for sigs, total in zip(plan.classes, totals):
        rep = sigs[0]
        recs.append(
            Recommendation(
                order=rep.order,
                equivalent_orders=tuple(s.order for s in sigs),
                signature=rep,
                predicted_seconds=total,
                slurm_distribution=order_to_distribution(plan.hierarchy, rep.order),
            )
        )
    recs.sort(key=lambda r: r.predicted_seconds)
    return Advice(
        recommendations=tuple(recs),
        collective=plan.name,
        comm_size=plan.comm_size,
        scenario=plan.scenario,
    )


def ladder_advise(
    plan: QueryPlan,
    engine=None,
    config=None,
    exhaustive_audit: bool = False,
):
    """Rank a plan's equivalence classes through the fidelity ladder.

    Instead of scoring every class representative at the plan's backend
    like :func:`advice_from_results`, runs the error-calibrated
    successive-halving search
    (:meth:`~repro.engine.fidelity.FidelityLadder.search_cells`, the
    search ladder sweeps use): classes are scored on the free analytic
    metric first and survivors promoted through progressively costlier
    models until the plan's backend ranks the finalists.  Returns
    ``(advice, result)`` — the :class:`Advice` over the *finalist*
    classes only (eliminated classes carry no duration to report) and
    the :class:`~repro.engine.fidelity.LadderResult` audit trail.
    Finalist durations are bitwise-identical to a full :func:`advise`
    at the same backend: the final rung issues the exact request keys
    ``plan.requests`` holds.

    ``config`` defaults to the stock ladder toward ``plan.backend`` with
    the plan's scenario duration key; a custom config must agree with
    the plan on both.
    """
    import dataclasses

    from repro.engine import SweepEngine
    from repro.engine.fidelity import FidelityLadder, LadderConfig, default_rungs

    engine = engine or SweepEngine()
    if config is None:
        config = LadderConfig(
            rungs=default_rungs(plan.backend),
            duration_key=plan.duration_key,
        )
    if config.rungs[-1] != plan.backend:
        raise ValueError(
            f"ladder final rung {config.rungs[-1]!r} must match the plan's "
            f"backend {plan.backend!r}"
        )
    if config.duration_key != plan.duration_key:
        raise ValueError(
            f"ladder duration_key {config.duration_key!r} must match the "
            f"plan's scenario key {plan.duration_key!r}"
        )
    result = FidelityLadder(engine, config).search_cells(
        range(len(plan.classes)),
        plan.topology,
        plan.hierarchy,
        plan.cells,
        order_of=lambda ci: tuple(plan.classes[ci][0].order),
        exhaustive_audit=exhaustive_audit,
    )
    if not result.ranking:
        raise ValueError(
            "ladder search produced no finalists (every class evaluation "
            "failed)"
        )
    finalists = tuple(result.ranking)
    reduced = dataclasses.replace(
        plan,
        classes=tuple(plan.classes[ci] for ci in finalists),
        requests=(),
    )
    totals = [result.scores[ci] for ci in finalists]
    return _assemble(reduced, totals), result


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
    """Rank order equivalence classes by predicted duration.

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
    The engine's workers decide where the frontier runs: in-process as
    one vectorized pass without workers, on the workers with them.
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
        from repro.engine.fidelity import LadderConfig

        config = ladder if isinstance(ladder, LadderConfig) else None
        advice, _ = ladder_advise(plan, engine=engine, config=config)
        return advice
    from repro.engine import SweepEngine

    engine = engine or SweepEngine()
    return advice_from_results(plan, engine.evaluate_many(list(plan.requests)))
