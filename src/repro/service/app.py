"""The placement-advisor service core (transport-independent).

:class:`AdvisorService` answers the paper's end-product question — which
rank order should this (machine, communicator structure, payload) use? —
as a long-running query service:

- **planning** reuses :func:`repro.core.advisor.plan_query`, so a query
  lowers to exactly the equivalence-class request grid the offline
  :func:`~repro.core.advisor.advise` evaluates; plans are memoized per
  query shape (the class enumeration is pure);
- **evaluation** goes through a :class:`~repro.service.coalesce.KeyCoalescer`
  over one shared :class:`~repro.engine.SweepEngine`, so concurrent
  queries whose grids overlap share in-flight work per content key, and
  every completed point lands in the engine's two-tier cache (the LRU
  plus, with a ``cache_dir``, the on-disk warm tier sweeps and other
  service processes also see);
- **assembly** reuses :func:`repro.core.advisor.advice_from_results`,
  making served rankings bitwise-identical to offline ``advise()`` on
  the same inputs by construction.

The engine runs on a single-threaded executor: the event loop never
blocks on a simulation, and engine internals see one caller at a time.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.advisor import QueryPlan, advice_from_results, plan_query
from repro.core.hierarchy import Hierarchy
from repro.engine import SweepEngine
from repro.service.coalesce import CallStats, KeyCoalescer
from repro.topology.hwloc import parse_synthetic
from repro.topology.machine import MachineTopology

#: Machine presets a query may name.
MACHINES = ("generic", "hydra", "lumi")


class QueryError(ValueError):
    """A malformed or unanswerable placement query (HTTP 400)."""


def known_collectives() -> tuple[str, ...]:
    from repro.collectives.selector import list_algorithms

    return tuple(sorted({c for c, _ in list_algorithms()}))


def topology_for(machine: str, hierarchy: Hierarchy) -> MachineTopology:
    """The queried machine model, validated against the hierarchy."""
    from repro.topology.machines import generic_cluster, hydra, lumi

    if machine == "hydra":
        topology = hydra(hierarchy.radices[0])
    elif machine == "lumi":
        topology = lumi(hierarchy.radices[0])
    elif machine == "generic":
        topology = generic_cluster(hierarchy.radices, hierarchy.names)
    else:
        raise QueryError(
            f"unknown machine {machine!r} (available: {', '.join(MACHINES)})"
        )
    if topology.hierarchy.radices != hierarchy.radices:
        raise QueryError(
            f"hierarchy {hierarchy} does not match the {machine} preset "
            f"{topology.hierarchy}"
        )
    return topology


@dataclass(frozen=True)
class PlacementQuery:
    """One parsed ``/advise`` request body, translated into cells.

    Two body shapes enter here and leave as one: collective bodies name
    ``comm_size`` (+ ``collective``, ``total_bytes``, ``algorithm``) and
    become one ``collective`` workload cell per payload size; workload
    bodies name a registered workload frontend and its parameters and
    become that workload's cell (the lowered program then defines the
    communicator size and traffic volume, so those fields are mutually
    exclusive with ``workload``).  ``echo`` carries the body's shape
    fields back into the response provenance.
    """

    hierarchy: str
    cells: tuple
    machine: str = "generic"
    scenario: str = "all"
    backend: str | None = None  # None: the service default
    echo: dict = field(default_factory=dict, compare=False)

    FIELDS = frozenset(
        {
            "hierarchy",
            "comm_size",
            "machine",
            "collective",
            "total_bytes",
            "scenario",
            "backend",
            "algorithm",
            "workload",
            "workload_params",
        }
    )

    @classmethod
    def from_doc(cls, doc: Any) -> "PlacementQuery":
        """Parse and validate a JSON body; raises :class:`QueryError`."""
        from repro.workloads import collective_cells, workload_cell

        if not isinstance(doc, dict):
            raise QueryError("query body must be a JSON object")
        unknown = set(doc) - cls.FIELDS
        if unknown:
            raise QueryError(
                f"unknown query field(s) {sorted(unknown)} "
                f"(known: {sorted(cls.FIELDS)})"
            )
        missing = [f for f in ("hierarchy",) if f not in doc]
        if "workload" not in doc and "comm_size" not in doc:
            missing.append("comm_size")
        if missing:
            raise QueryError(f"missing required field(s) {missing}")
        hierarchy = doc["hierarchy"]
        if not isinstance(hierarchy, str) or not hierarchy.strip():
            raise QueryError("hierarchy must be a non-empty string")
        machine = str(doc.get("machine", "generic"))
        if machine not in MACHINES:
            raise QueryError(
                f"unknown machine {machine!r} (available: {', '.join(MACHINES)})"
            )
        scenario = str(doc.get("scenario", "all"))
        if scenario not in ("all", "single"):
            raise QueryError("scenario must be 'all' or 'single'")
        backend = doc.get("backend")
        if backend is not None:
            backend = str(backend)
        shape = dict(
            hierarchy=hierarchy, machine=machine, scenario=scenario,
            backend=backend,
        )

        workload = doc.get("workload")
        if workload is not None:
            workload = str(workload)
            conflicting = sorted(
                f
                for f in ("collective", "algorithm", "total_bytes", "comm_size")
                if f in doc
            )
            if conflicting:
                raise QueryError(
                    f"workload queries must not name {conflicting}: the "
                    "lowered workload defines the communicator size and "
                    "traffic volume"
                )
            raw_params = doc.get("workload_params", {})
            if not isinstance(raw_params, dict):
                raise QueryError(
                    "workload_params must be a JSON object of parameter "
                    "name/value pairs"
                )
            try:
                cell = workload_cell(workload, raw_params)
            except ValueError as err:  # a WorkloadError or a lowering error
                raise QueryError(str(err)) from None
            echo = {
                "algorithm": None,
                "workload": workload,
                "workload_params": dict(cell.params),
            }
            return cls(cells=(cell,), echo=echo, **shape)
        if "workload_params" in doc:
            raise QueryError("workload_params requires a workload")

        try:
            comm_size = int(doc["comm_size"])
        except (TypeError, ValueError):
            raise QueryError("comm_size must be an integer") from None
        if comm_size < 1:
            raise QueryError("comm_size must be >= 1")
        collective = str(doc.get("collective", "alltoall"))
        if collective not in known_collectives():
            raise QueryError(
                f"unknown collective {collective!r} "
                f"(available: {', '.join(known_collectives())})"
            )
        raw_sizes = doc.get("total_bytes", [1e6, 64e6])
        if isinstance(raw_sizes, (int, float)):
            raw_sizes = [raw_sizes]
        if not isinstance(raw_sizes, list) or not raw_sizes:
            raise QueryError("total_bytes must be a non-empty list of byte sizes")
        try:
            sizes = tuple(float(s) for s in raw_sizes)
        except (TypeError, ValueError):
            raise QueryError("total_bytes entries must be numbers") from None
        if any(s <= 0 for s in sizes):
            raise QueryError("total_bytes entries must be positive")
        algorithm = doc.get("algorithm")
        if algorithm is not None:
            algorithm = str(algorithm)
            from repro.collectives.selector import list_algorithms

            if (collective, algorithm) not in list_algorithms():
                known = ", ".join(a for c, a in list_algorithms(collective))
                raise QueryError(
                    f"unknown algorithm {algorithm!r} for {collective!r} "
                    f"(known: {known or 'none'})"
                )
        try:
            cells = collective_cells([comm_size], [collective], sizes, algorithm)
        except ValueError as err:  # duplicate sizes
            raise QueryError(str(err)) from None
        return cls(cells=cells, echo={"algorithm": algorithm}, **shape)


class AdvisorService:
    """Query planning, coalesced evaluation, and stats for the service.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.engine.SweepEngine` (cache + journal +
        stats).  Default: a fresh in-process engine with no disk tier.
    default_backend:
        Backend for queries that do not name one.  ``logp`` is the fast
        path the service exists to serve.
    plan_cache_size:
        Memoized query plans kept (equivalence-class enumeration and the
        request grid are pure functions of the query shape).
    evaluate:
        Override for the blocking batch evaluator (tests use this to
        gate evaluations); default ``engine.evaluate_batch``.
    """

    def __init__(
        self,
        engine: SweepEngine | None = None,
        default_backend: str = "logp",
        plan_cache_size: int = 128,
        evaluate=None,
    ):
        self.engine = engine if engine is not None else SweepEngine()
        self.default_backend = default_backend
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )
        self.coalescer = KeyCoalescer(
            evaluate if evaluate is not None else self.engine.evaluate_batch,
            executor=self._executor,
            probe=self.engine.cache.warm,
        )
        self._plans: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self._plan_cache_size = plan_cache_size
        self.plan_cache_hits = 0
        self.started_monotonic = time.monotonic()
        self.advise_requests = 0
        self.errors = 0
        self._active = 0
        self.last_activity = time.monotonic()
        # Populated by repro.service.prewarm when a worker is attached.
        from repro.service.prewarm import PrewarmState

        self.prewarm_state = PrewarmState()

    # -- idleness (drives the pre-warm workers) ----------------------------

    @property
    def active_requests(self) -> int:
        return self._active

    def idle_for(self) -> float:
        """Seconds since the last client activity (0 while serving)."""
        if self._active:
            return 0.0
        return time.monotonic() - self.last_activity

    # -- planning ----------------------------------------------------------

    def plan(self, query: PlacementQuery) -> QueryPlan:
        """The (memoized) evaluable plan for a query."""
        backend = query.backend or self.default_backend
        key = (query.machine, query.hierarchy, query.cells, query.scenario, backend)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.plan_cache_hits += 1
            return plan
        try:
            hierarchy = parse_synthetic(query.hierarchy)
        except Exception as err:
            raise QueryError(f"bad hierarchy {query.hierarchy!r}: {err}") from None
        topology = topology_for(query.machine, hierarchy)
        try:
            plan = plan_query(
                topology,
                hierarchy,
                query.cells,
                scenario=query.scenario,
                backend=backend,
            )
        except ValueError as err:
            raise QueryError(str(err)) from None
        self._plans[key] = plan
        while len(self._plans) > self._plan_cache_size:
            self._plans.popitem(last=False)
        return plan

    # -- serving -----------------------------------------------------------

    async def advise(self, doc: Any) -> dict:
        """Answer one ``/advise`` body; returns the response document."""
        t0 = time.perf_counter()
        self._active += 1
        self.last_activity = time.monotonic()
        try:
            query = PlacementQuery.from_doc(doc)
            plan = self.plan(query)
            results, call = await self.coalescer.evaluate(plan.requests)
            advice = advice_from_results(plan, results)
            self.advise_requests += 1
            return {
                "advice": advice.to_jsonable(),
                "provenance": self._provenance(query, plan),
                "stats": {
                    "wall_ms": (time.perf_counter() - t0) * 1e3,
                    "grid_points": call.keys,
                    "deduped": call.deduped,
                    "submitted": call.submitted,
                    "coalesced": call.coalesced,
                },
            }
        finally:
            self._active -= 1
            self.last_activity = time.monotonic()

    async def evaluate_plan(
        self, plan: QueryPlan
    ) -> tuple[list[dict], CallStats]:
        """Evaluate a plan's grid through the coalescer (pre-warm path)."""
        return await self.coalescer.evaluate(plan.requests)

    async def evaluate_plan_ladder(self, plan: QueryPlan):
        """Warm a plan through the multi-fidelity ladder (pre-warm path).

        Runs :func:`repro.core.advisor.ladder_advise` on the engine
        executor: the screening rungs and the finalists' full-fidelity
        keys land in the shared cache without evaluating every class at
        the plan's backend.  Returns ``(advice, ladder_result)``.
        """
        import asyncio

        from repro.core.advisor import ladder_advise

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, lambda: ladder_advise(plan, engine=self.engine)
        )

    def _provenance(self, query: PlacementQuery, plan: QueryPlan) -> dict:
        from repro import __version__
        from repro.engine.keys import CACHE_SCHEMA

        return {
            "backend": plan.backend,
            "machine": query.machine,
            "topology": plan.topology.name,
            "hierarchy": query.hierarchy,
            **query.echo,
            "version": __version__,
            "cache_schema": CACHE_SCHEMA,
            "n_classes": len(plan.classes),
            "n_requests": len(plan.requests),
        }

    # -- introspection endpoints -------------------------------------------

    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    def healthz_doc(self) -> dict:
        return {"status": "ok", "uptime_s": self.uptime_s()}

    def stats_doc(self) -> dict:
        return {
            "service": {
                "uptime_s": self.uptime_s(),
                "advise_requests": self.advise_requests,
                "errors": self.errors,
                "active_requests": self._active,
                "default_backend": self.default_backend,
                "plan_cache_entries": len(self._plans),
                "plan_cache_hits": self.plan_cache_hits,
            },
            "coalescing": self.coalescer.stats.to_jsonable(),
            "engine": self.engine.stats.to_jsonable(),
            "cache": self.engine.cache.stats(),
            "prewarm": self.prewarm_state.to_jsonable(),
        }

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


def build_service(
    backend: str = "logp",
    cache_dir: str | None = None,
    jobs: int = 1,
    lru_size: int = 65536,
) -> AdvisorService:
    """An :class:`AdvisorService` over a fresh engine.

    ``cache_dir`` enables the on-disk warm tier (shared with
    ``repro-mrd sweep`` runs and other service processes) and the
    completion journal.  ``lru_size`` is generous by default: the
    in-memory tier is the service's serving tier.
    """
    engine = SweepEngine(jobs=jobs, cache_dir=cache_dir, lru_size=lru_size)
    return AdvisorService(engine=engine, default_backend=backend)


__all__ = [
    "AdvisorService",
    "MACHINES",
    "PlacementQuery",
    "QueryError",
    "build_service",
    "known_collectives",
    "topology_for",
]
