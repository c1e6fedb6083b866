"""The typed workload-frontend protocol and registry.

A *workload* is a traffic producer: anything that can lower a set of
JSON-able parameters to a :class:`~repro.ir.program.CommProgram`.  Before
this package, every producer (collectives, splatt, NAS-CG, stencil, raw
round lists) reached the IR through its own ad-hoc entry point in
:mod:`repro.ir.lower`; the registry here gives them one front door, the
same way :mod:`repro.ir.backends` gives execution one:

- :func:`register_workload` / :func:`get_workload` / :func:`workload_names`
  mirror the backend registry's shape (``repro-mrd workloads list`` is the
  CLI face);
- :func:`canonical_params` validates a parameter mapping against the
  workload's :class:`ParamSpec` schema and returns the sorted, hashable
  ``(name, value)`` tuple the engine keys cache records on -- two
  call sites that mean the same program produce the same content key by
  construction;
- :func:`lower_workload` is the one lowering path: canonicalise, lower,
  **validate** (:func:`repro.ir.validate.check_program`), freeze, and
  memoize, so every consumer past the first gets the cached
  write-protected program.

Parameters must stay JSON-able (int/float/str/bool/tuples thereof): they
travel through :class:`~repro.engine.keys.EvalRequest` canonical
documents, the service's ``/advise`` body, and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.ir.program import CommProgram


class WorkloadError(ValueError):
    """A malformed workload invocation (bad name or parameters)."""


class UnknownWorkloadError(WorkloadError):
    """A workload name nobody registered; carries the registered set."""

    def __init__(self, name: str):
        self.name = name
        self.known = workload_names()
        super().__init__(
            f"unknown workload {name!r} (registered: {', '.join(self.known)})"
        )


#: Sentinel for parameters with no default (the caller must supply them).
REQUIRED = object()


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of a workload's schema.

    ``kind`` names the JSON-able type the canonicaliser coerces to:
    ``int``, ``float``, ``str``, ``bool``, ``int_tuple`` (a sequence of
    ints, e.g. a process-grid shape), or ``json`` (any JSON-able value,
    recursively frozen to hashable tuples).  ``default`` is the value
    used when the caller omits the parameter; :data:`REQUIRED` marks
    parameters that must be supplied.
    """

    name: str
    kind: str
    default: Any = REQUIRED
    doc: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this parameter's canonical (hashable) form."""
        try:
            if value is None and not self.required:
                return None if self.default is None else self.coerce(self.default)
            if self.kind == "int":
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                return int(value)
            if self.kind == "float":
                return float(value)
            if self.kind == "str":
                if not isinstance(value, str):
                    raise ValueError(value)
                return value
            if self.kind == "bool":
                return bool(value)
            if self.kind == "int_tuple":
                if isinstance(value, (str, bytes)):
                    raise ValueError(value)
                return tuple(int(v) for v in value)
            if self.kind == "json":
                return _freeze_json(value)
        except (TypeError, ValueError):
            raise WorkloadError(
                f"parameter {self.name!r} expects {self.kind}, got {value!r}"
            ) from None
        raise WorkloadError(
            f"parameter {self.name!r} has unknown kind {self.kind!r}"
        )


def _freeze_json(value: Any) -> Any:
    """Recursively convert a JSON-able value to a hashable canonical form
    (lists/tuples -> tuples, mappings -> sorted key/value pair tuples)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze_json(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_json(v) for v in value)
    raise ValueError(value)


@runtime_checkable
class Workload(Protocol):
    """The pluggable traffic-producer interface.

    ``params`` is the declared schema; ``lower`` receives every schema
    parameter as a keyword argument (defaults filled in) and returns a
    :class:`~repro.ir.program.CommProgram` whose
    :class:`~repro.ir.program.ProgramMeta` records the provenance.
    Implementations must be pure functions of their parameters -- the
    registry memoizes and the engine content-addresses on them.
    """

    name: str
    description: str
    params: tuple[ParamSpec, ...]

    def lower(self, **params: Any) -> CommProgram: ...


# -- registry ----------------------------------------------------------------

_WORKLOADS: dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    """Register a workload instance under its name (last wins)."""
    _WORKLOADS[workload.name] = workload
    _lower_cached.cache_clear()
    return workload


def workload_names() -> tuple[str, ...]:
    return tuple(sorted(_WORKLOADS))


def get_workload(name: str) -> Workload:
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(str(name)) from None


def describe_workloads() -> list[tuple[str, Workload]]:
    return [(name, _WORKLOADS[name]) for name in workload_names()]


def canonical_params(
    name: str, params: Mapping[str, Any] | tuple[tuple[str, Any], ...] | None = None
) -> tuple[tuple[str, Any], ...]:
    """Validate ``params`` against the workload's schema.

    Returns the canonical sorted ``(name, value)`` tuple -- hashable,
    JSON-able, and unique per distinct program, so it can serve directly
    as cache-key material (:class:`~repro.engine.keys.EvalRequest`
    ``workload_params``).  Unknown parameter names and missing required
    parameters raise a structured :class:`WorkloadError` naming the
    schema.
    """
    workload = get_workload(name)
    given = dict(params or ())
    schema = {spec.name: spec for spec in workload.params}
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise WorkloadError(
            f"unknown parameter(s) {unknown} for workload {name!r} "
            f"(schema: {sorted(schema)})"
        )
    out = []
    for pname, spec in schema.items():
        if pname in given:
            out.append((pname, spec.coerce(given[pname])))
        elif spec.required:
            raise WorkloadError(
                f"workload {name!r} requires parameter {pname!r}"
            )
        else:
            default = spec.default
            out.append(
                (pname, default if default is None else spec.coerce(default))
            )
    return tuple(sorted(out))


@dataclass(frozen=True)
class Cell:
    """One traffic pattern of a query or sweep grid: the request shape's
    traffic half.

    ``workload`` and ``params`` (canonical pairs) are what an
    :class:`~repro.engine.keys.EvalRequest` keys on.  ``comm_size`` is
    the lowered program's rank count and ``total_bytes`` its declared
    volume (the figure-axis payload for collectives).  Neither is keyed
    separately: each follows from the params.
    """

    workload: str
    params: tuple[tuple[str, Any], ...]
    comm_size: int
    total_bytes: float

    @property
    def name(self) -> str:
        """The report label: the collective for collective cells, the
        workload otherwise."""
        if self.workload == "collective":
            return dict(self.params)["collective"]
        return self.workload

    def request(self, model: str, topology, hierarchy, order):
        """The micro-benchmark request scoring this cell for one order;
        ``des`` requests also simulate the all-communicators scenario."""
        from repro.engine.keys import EvalRequest

        return EvalRequest(
            model=model,
            topology=topology,
            hierarchy=hierarchy,
            order=order,
            comm_size=self.comm_size,
            workload=self.workload,
            workload_params=self.params,
            extras=(("des_all", True),) if model == "des" else (),
        )


def check_grid(topology, hierarchy, cells, backend: str) -> None:
    """Refuse a cell grid the machine cannot run: an unknown backend, a
    hierarchy that does not match the machine, or a cell whose rank
    count is below 1 or does not divide the machine's processes (a
    :class:`WorkloadError`)."""
    from repro.ir.registry import check_backend

    check_backend(backend)  # unknown names raise, listing the registry
    hierarchy.check_process_count(topology.n_cores)
    for cell in cells:
        if cell.comm_size < 1:
            raise WorkloadError(
                f"{cell.name} needs {cell.comm_size} ranks; a communicator "
                "needs at least 1"
            )
        if hierarchy.size % cell.comm_size:
            raise WorkloadError(
                f"{cell.name} needs {cell.comm_size} ranks, which does not "
                f"divide the machine's {hierarchy.size} processes"
            )


def workload_cell(
    name: str,
    params: Mapping[str, Any] | tuple[tuple[str, Any], ...] | None = None,
) -> Cell:
    """The cell of one workload invocation: canonicalised and lowered
    once, so its rank count and traffic volume are known up front."""
    canonical = canonical_params(name, params)
    program = lower_workload(name, canonical)
    total = program.meta.total_bytes
    if total is None:
        total = program.total_bytes
    return Cell(name, canonical, program.n_ranks, float(total))


def lower_workload(
    name: str,
    params: Mapping[str, Any] | tuple[tuple[str, Any], ...] | None = None,
) -> CommProgram:
    """Lower one workload invocation to a validated, frozen program.

    The single conversion path every front-end (sweeps, the advisor, the
    service, the CLI) shares: parameters are canonicalised against the
    schema, the program is lowered once per distinct
    ``(workload, params)``, checked by the IR validation pass, its arrays
    write-protected, and the result memoized -- a sweep revisiting the
    same workload cell per order and scenario pays for one lowering.
    """
    return _lower_cached(name, canonical_params(name, params))


@lru_cache(maxsize=1024)
def _lower_cached(name: str, canonical: tuple[tuple[str, Any], ...]) -> CommProgram:
    import numpy as np

    from repro.ir.validate import check_program

    program = get_workload(name).lower(**dict(canonical))
    check_program(program)
    for r in program.rounds:
        # Shared across callers: freeze the arrays so no consumer can
        # mutate another's rounds through the cache.
        r.src.setflags(write=False)
        r.dst.setflags(write=False)
        if isinstance(r.nbytes, np.ndarray) and r.nbytes.flags.writeable:
            r.nbytes.setflags(write=False)
    return program
