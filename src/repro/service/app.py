"""The placement-advisor service core (transport-independent).

:class:`AdvisorService` answers the paper's end-product question — which
rank order should this (machine, communicator structure, payload) use? —
as a long-running query service:

- **planning** reuses :func:`repro.core.advisor.plan_query`, so a query
  lowers to exactly the placement-class request grid the offline
  :func:`~repro.core.advisor.advise` evaluates; plans are memoized per
  query shape (the class enumeration is pure), each with its encoded
  answer once one has been given: a repeated query is answered from the
  memo without touching the engine, and a byte-identical repeat of a
  body without parsing it either;
- **evaluation** runs every grid on one single-thread executor over one
  shared :class:`~repro.engine.SweepEngine`.  Grids are evaluated one
  after another, and the engine caches each result before the next grid
  is looked up, so a key a concurrent query shares is a cache hit: each
  key is evaluated once.  Completed points land in the engine's two-tier
  cache (the LRU plus, with a ``cache_dir``, the append-only record log
  that sweeps and other service processes also read, synced as each
  batch settles);
- **assembly** reuses :func:`repro.core.advisor.advice_from_results`,
  making served rankings bitwise-identical to offline ``advise()`` on
  the same inputs by construction.

The event loop never blocks on a simulation, and engine internals see
one caller at a time.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.advisor import QueryPlan, advice_from_results, plan_query
from repro.engine import SweepEngine
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import MACHINES, topology_for


class QueryError(ValueError):
    """A malformed or unanswerable placement query (HTTP 400)."""


def _is_integer(value: Any) -> bool:
    # JSON has one number type: 8.0 is the integer 8; 16.7, inf and
    # true are not integers.
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_string(value: Any) -> bool:
    return isinstance(value, str)


def _is_string_or_null(value: Any) -> bool:
    return value is None or isinstance(value, str)


#: The JSON type each body field must have: a check, and the refusal
#: when it fails.  Nothing is converted: ``"8"`` is not a communicator
#: size and ``7`` is not a backend name.  ``null`` stands for "the
#: default" in the two fields that have one only as ``None``.
_FIELD_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "hierarchy": (
        lambda v: _is_string(v) and bool(v.strip()),
        "hierarchy must be a non-empty string",
    ),
    "comm_size": (_is_integer, "comm_size must be an integer"),
    "machine": (_is_string, "machine must be a string"),
    "collective": (_is_string, "collective must be a string"),
    "total_bytes": (
        lambda v: _is_number(v) or isinstance(v, list) and all(map(_is_number, v)),
        "total_bytes entries must be numbers",
    ),
    "scenario": (_is_string, "scenario must be 'all' or 'single'"),
    "backend": (_is_string_or_null, "backend must be a string"),
    "algorithm": (_is_string_or_null, "algorithm must be a string"),
    "workload": (_is_string, "workload must be a string"),
    "workload_params": (
        lambda v: isinstance(v, dict),
        "workload_params must be a JSON object of parameter name/value pairs",
    ),
}


def known_collectives() -> tuple[str, ...]:
    from repro.collectives.selector import list_algorithms

    return tuple(sorted({c for c, _ in list_algorithms()}))


def _decode(body: bytes) -> Any:
    """A request body's JSON document (an empty body is ``{}``)."""
    try:
        return json.loads(body) if body else {}
    except (ValueError, RecursionError) as err:  # RecursionError: deep nesting
        raise QueryError(f"request body is not valid JSON: {err}") from None


def _response(advice: bytes, provenance: bytes, stats: dict) -> bytes:
    """The encoded ``/advise`` response: exactly ``json.dumps`` of
    ``{"advice": ..., "provenance": ..., "stats": ...}``, from the first
    two already encoded."""
    return b"".join((
        b'{"advice": ', advice,
        b', "provenance": ', provenance,
        b', "stats": ', json.dumps(stats).encode(), b"}",
    ))


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

    FIELDS = frozenset(_FIELD_TYPES)

    @classmethod
    def from_doc(cls, doc: Any) -> "PlacementQuery":
        """Parse and validate a JSON body; raises :class:`QueryError`."""
        from repro.collectives.selector import is_registered, list_algorithms
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
        for name, value in doc.items():
            accepts, refusal = _FIELD_TYPES[name]
            if not accepts(value):
                raise QueryError(refusal)
        hierarchy = doc["hierarchy"]
        machine = doc.get("machine", "generic")
        if machine not in MACHINES:
            raise QueryError(
                f"unknown machine {machine!r} (available: {', '.join(MACHINES)})"
            )
        scenario = doc.get("scenario", "all")
        if scenario not in ("all", "single"):
            raise QueryError("scenario must be 'all' or 'single'")
        backend = doc.get("backend")
        shape = dict(
            hierarchy=hierarchy, machine=machine, scenario=scenario,
            backend=backend,
        )

        workload = doc.get("workload")
        if workload is not None:
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
            try:
                cell = workload_cell(workload, doc.get("workload_params", {}))
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

        comm_size = int(doc["comm_size"])
        if comm_size < 1:
            raise QueryError("comm_size must be >= 1")
        collective = doc.get("collective", "alltoall")
        if not is_registered(collective):
            raise QueryError(
                f"unknown collective {collective!r} "
                f"(available: {', '.join(known_collectives())})"
            )
        raw_sizes = doc.get("total_bytes", [1e6, 64e6])
        if not isinstance(raw_sizes, list):
            raw_sizes = [raw_sizes]
        if not raw_sizes:
            raise QueryError("total_bytes must be a non-empty list of byte sizes")
        sizes = tuple(float(s) for s in raw_sizes)
        if any(s <= 0 for s in sizes):
            raise QueryError("total_bytes entries must be positive")
        algorithm = doc.get("algorithm")
        if algorithm is not None:
            if not is_registered(collective, algorithm):
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


@dataclass
class _PlanEntry:
    """A plan-memo entry: the plan, and its ``advice`` document encoded
    as JSON bytes once a query over it has been answered with no failed
    point.  The plan key holds everything the answer depends on and
    every result is content-keyed and deterministic, so the answer never
    goes stale; bytes are immutable, so responses share it safely."""

    plan: QueryPlan
    advice: bytes | None = None


class AdvisorService:
    """Query planning, evaluation, and stats for the service.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.engine.SweepEngine` (cache, record log and
        stats).  Default: a fresh in-process engine with no disk tier.
    default_backend:
        Backend for queries that do not name one.  ``logp`` is the fast
        path the service exists to serve.
    plan_cache_size:
        Memoized query plans kept, each with its answer once it has one
        (placement classes and rankings are pure functions of the query
        shape); evicting a plan drops its answer.  The body index, which
        finds an answered plan from a request body's digest, keeps as
        many bodies.
    evaluate:
        Override for the blocking grid evaluator (tests use this to
        gate evaluations); default ``engine.evaluate_many``.
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
        self._evaluate = (
            evaluate if evaluate is not None else self.engine.evaluate_many
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )
        self._plans: OrderedDict[tuple, _PlanEntry] = OrderedDict()
        #: SHA-256 of an answered body -> (its plan key, its encoded
        #: provenance); keyed by digest, so a large body is never pinned.
        self._bodies: OrderedDict[bytes, tuple[tuple, bytes]] = OrderedDict()
        self._plan_cache_size = plan_cache_size
        self.plan_cache_hits = 0
        self.answer_hits = 0
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
        return self._entry(query)[1].plan

    def _memo_hit(self, key: tuple) -> _PlanEntry | None:
        entry = self._plans.get(key)
        if entry is not None:
            self._plans.move_to_end(key)
            self.plan_cache_hits += 1
        return entry

    def _entry(self, query: PlacementQuery) -> tuple[tuple, _PlanEntry]:
        """The plan key and memo entry for a query (planned on a miss)."""
        backend = query.backend or self.default_backend
        key = (query.machine, query.hierarchy, query.cells, query.scenario, backend)
        entry = self._memo_hit(key)
        if entry is not None:
            return key, entry
        try:
            hierarchy = parse_synthetic(query.hierarchy)
        except Exception as err:
            raise QueryError(f"bad hierarchy {query.hierarchy!r}: {err}") from None
        try:
            topology = topology_for(query.machine, hierarchy)
            plan = plan_query(
                topology,
                hierarchy,
                query.cells,
                scenario=query.scenario,
                backend=backend,
            )
        except ValueError as err:
            raise QueryError(str(err)) from None
        entry = self._plans[key] = _PlanEntry(plan)
        while len(self._plans) > self._plan_cache_size:
            self._plans.popitem(last=False)
        return key, entry

    def _indexed(self, digest: bytes) -> tuple[_PlanEntry, bytes] | None:
        """The answered plan entry and encoded provenance of a body seen
        before, or None: an unseen body, or one whose plan was evicted
        or has no answer, takes the parsing path."""
        indexed = self._bodies.get(digest)
        if indexed is None:
            return None
        key, provenance = indexed
        entry = self._plans.get(key)
        if entry is None or entry.advice is None:
            return None
        self._memo_hit(key)
        self._bodies.move_to_end(digest)
        return entry, provenance

    # -- serving -----------------------------------------------------------

    async def advise(self, body: bytes) -> bytes:
        """Answer one ``/advise`` request body; returns the encoded
        response document (``advice``, ``provenance``, ``stats``).

        A body byte-identical to one answered before is found by its
        SHA-256 digest in the body index: the response splices the
        plan's stored ``advice`` bytes and the body's stored
        ``provenance`` bytes around the query's ``stats``, with no JSON
        parsing, validation or encoding of the answer.  Any other body
        is decoded and validated (:class:`QueryError` when it is not
        JSON or not an answerable query); a plan answered before gets
        its stored answer, and a new one is evaluated and its answer
        stored.  A stored answer reports every grid point as a cache
        hit.
        """
        t0 = time.perf_counter()
        self._active += 1
        self.last_activity = time.monotonic()
        try:
            digest = hashlib.sha256(body).digest()
            indexed = self._indexed(digest)
            if indexed is not None:
                entry, provenance = indexed
            else:
                query = PlacementQuery.from_doc(_decode(body))
                key, entry = self._entry(query)
                provenance = json.dumps(self._provenance(query, entry.plan)).encode()
            plan = entry.plan
            if entry.advice is not None:
                self.answer_hits += 1
                evaluated, cache_hits = 0, len(plan)
            else:
                results, evaluated, cache_hits = await self.evaluate_plan(plan)
                entry.advice = json.dumps(
                    advice_from_results(plan, results).to_jsonable()
                ).encode()
            if indexed is None:
                self._bodies[digest] = (key, provenance)
                self._bodies.move_to_end(digest)
                while len(self._bodies) > self._plan_cache_size:
                    self._bodies.popitem(last=False)
            self.advise_requests += 1
            return _response(entry.advice, provenance, {
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "grid_points": len(plan),
                "evaluated": evaluated,
                "cache_hits": cache_hits,
            })
        finally:
            self._active -= 1
            self.last_activity = time.monotonic()

    async def evaluate_plan(self, plan: QueryPlan) -> tuple[list[dict], int, int]:
        """Evaluate a plan's grid; returns ``(results, evaluated,
        cache_hits)`` (see :meth:`_on_executor`)."""
        return await self._on_executor(self._evaluate, plan.requests)

    async def evaluate_plan_ladder(self, plan: QueryPlan) -> tuple[Any, int, int]:
        """Warm a plan through the multi-fidelity ladder (pre-warm path).

        Runs :func:`repro.core.advisor.ladder_advise`: the screening rungs
        and the finalists' full-fidelity keys land in the shared cache
        without evaluating every class at the plan's backend.  Returns
        ``((advice, ladder_result), evaluated, cache_hits)``.
        """
        from repro.core.advisor import ladder_advise

        return await self._on_executor(ladder_advise, plan, self.engine)

    async def _on_executor(self, fn: Callable, *args) -> tuple[Any, int, int]:
        """Run ``fn(*args)`` on the single-thread engine executor.

        Returns its value plus how many keys the engine evaluated and how
        many it recalled from its cache during the call.  Jobs run one at
        a time, so both deltas belong to this call alone -- and a key an
        earlier job evaluated is already cached when this one looks it up.
        """

        def job():
            stats = self.engine.stats
            evaluated, cache_hits = stats.evaluated, stats.cache_hits
            value = fn(*args)
            return (
                value,
                stats.evaluated - evaluated,
                stats.cache_hits - cache_hits,
            )

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, job)

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
            "n_requests": len(plan),
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
                "answer_hits": self.answer_hits,
            },
            "engine": self.engine.stats.to_jsonable(),
            "cache": self.engine.cache.stats(),
            "prewarm": self.prewarm_state.to_jsonable(),
        }

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


def build_service(
    backend: str = "logp",
    cache_dir: str | None = None,
    lru_size: int = 65536,
) -> AdvisorService:
    """An :class:`AdvisorService` over a fresh engine.

    ``cache_dir`` enables the on-disk warm tier: one append-only record
    log shared with ``repro-mrd sweep`` runs and other service
    processes.  ``lru_size`` is generous by default: the
    in-memory tier is the service's serving tier.  The engine has no
    workers, so it scores the ``logp`` frontier in-process.
    """
    engine = SweepEngine(cache_dir=cache_dir, lru_size=lru_size)
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
