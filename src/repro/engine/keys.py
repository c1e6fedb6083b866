"""Canonical, content-addressed evaluation requests.

Every simulation the sweep layer runs -- a round-model micro-benchmark
point, a DES schedule replay, a verification cell, a chaos cell -- is
described by an :class:`EvalRequest`.  The request canonicalises all
inputs that influence the result (hierarchy, order, communicator size,
the workload and its canonical parameters, fault schedule, seed, *and*
every performance parameter of the machine topology) into a
deterministic JSON document, whose SHA-256 digest is the cache key.
This module also owns the request's JSON wire form
(:func:`request_to_wire` / :func:`request_from_wire`), so the field
list lives in one place.

Key properties:

- **Content-addressed**: two requests with identical physics share a key
  regardless of how their objects were constructed.
- **Self-invalidating**: the canonical document embeds the package
  version and a cache schema number, so upgrading either silently
  invalidates stale on-disk entries instead of replaying them.
- **Exact**: floats are keyed via ``repr`` (shortest round-tripping
  form), never via rounding, mirroring the exact-rational equivalence
  keys of :mod:`repro.core.equivalence`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.hierarchy import Hierarchy
from repro.topology.machine import LevelParams, MachineTopology

#: Bump when the canonical layout or any evaluator's semantics change in a
#: way that should invalidate previously cached results.
#: Schema history:
#:   1 -> 2: the IR/backend refactor extended the ``des`` evaluator's
#:           result keys (``duration_single``, optional ``duration_all``)
#:           and added the ``logp`` model, so pre-IR cached documents are
#:           missing keys the new consumers read.
#:   2 -> 3: on-disk cache records gained mandatory integrity fields
#:           (``schema`` + ``checksum`` of the result payload); pre-3
#:           records would be quarantined as corrupt, so retire their
#:           keys instead.
#:   3 -> 4: one request shape.  The ``collective``/``algorithm``/
#:           ``total_bytes`` fields are gone; collective points are
#:           ``collective`` workload requests, so their keys change
#:           while their results do not.
CACHE_SCHEMA = 4


def _package_version() -> str:
    from repro import __version__

    return __version__


def _jsonify(value: Any) -> Any:
    """Deterministic JSON-friendly form of one request field."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips exactly and distinguishes inf/-inf; NaN would
        # break key equality and is rejected outright.  Coerce subclasses
        # (np.float64 reprs as "np.float64(...)") to plain float first.
        if math.isnan(value):
            raise ValueError("NaN cannot appear in an evaluation request")
        return repr(float(value))
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    # numpy scalars and anything else with .item()
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonify(item())
    raise TypeError(f"cannot canonicalise {type(value).__name__} in a request")


def topology_fingerprint(topology: MachineTopology) -> dict:
    """Every performance-relevant parameter of a machine topology."""
    return {
        "name": topology.name,
        "flop_rate": _jsonify(topology.flop_rate),
        "root_bw": _jsonify(topology.root_bw),
        "levels": [
            {
                "name": lv.name,
                "radix": lv.radix,
                "link_bw": _jsonify(lv.link_bw),
                "link_lat": _jsonify(lv.link_lat),
                "mem_bw": _jsonify(lv.mem_bw),
            }
            for lv in topology.levels
        ],
    }


def hierarchy_fingerprint(hierarchy: Hierarchy) -> dict:
    return {
        "radices": list(hierarchy.radices),
        "names": list(hierarchy.names),
        "masked": hierarchy.masked,
    }


def schedule_fingerprint(schedule) -> list[dict]:
    """Canonical form of a :class:`repro.faults.FaultSchedule`."""
    return [
        {
            "kind": s.kind,
            "start": _jsonify(s.start),
            "target": s.target,
            "level": s.level,
            "end": _jsonify(s.end),
            "bw_factor": _jsonify(s.bw_factor),
            "lat_factor": _jsonify(s.lat_factor),
            "slowdown": _jsonify(s.slowdown),
        }
        for s in schedule
    ]


@dataclass(frozen=True)
class EvalRequest:
    """One memoizable simulation, with its full provenance.

    ``model`` names the registered evaluator (``round``, ``des``,
    ``verify``, ``chaos_healthy``, ``chaos_cell``, ...); ``extras`` holds
    model-specific knobs as a sorted tuple of ``(name, value)`` pairs so
    the dataclass stays hashable and canonicalisation stays stable.

    Traffic has one shape: the registered ``workload`` plus its
    canonical parameter pairs (see ``repro.workloads.canonical_params``;
    a collective point is a ``collective`` workload request), with
    ``comm_size`` set to the lowered program's rank count.
    """

    model: str
    topology: MachineTopology
    hierarchy: Hierarchy | None = None
    order: tuple[int, ...] | None = None
    comm_size: int | None = None
    seed: int = 0
    schedule: Any = None  # FaultSchedule | None (kept loose to avoid a cycle)
    extras: tuple[tuple[str, Any], ...] = field(default=())
    workload: str | None = None
    workload_params: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.order is not None:
            object.__setattr__(self, "order", tuple(int(i) for i in self.order))
        object.__setattr__(
            self, "extras", tuple(sorted((str(k), v) for k, v in self.extras))
        )
        object.__setattr__(
            self,
            "workload_params",
            tuple(sorted((str(k), v) for k, v in self.workload_params)),
        )

    def extra(self, name: str, default: Any = None) -> Any:
        return dict(self.extras).get(name, default)

    def param(self, name: str, default: Any = None) -> Any:
        """One workload parameter (``default`` when absent)."""
        return dict(self.workload_params).get(name, default)

    def canonical(self) -> dict:
        """The deterministic provenance document behind :attr:`key`."""
        doc: dict[str, Any] = {
            "schema": CACHE_SCHEMA,
            "version": _package_version(),
            "model": self.model,
            "topology": topology_fingerprint(self.topology),
            "seed": self.seed,
        }
        if self.hierarchy is not None:
            doc["hierarchy"] = hierarchy_fingerprint(self.hierarchy)
        if self.order is not None:
            doc["order"] = list(self.order)
        if self.comm_size is not None:
            doc["comm_size"] = self.comm_size
        if self.schedule is not None and len(self.schedule):
            doc["schedule"] = schedule_fingerprint(self.schedule)
        if self.extras:
            doc["extras"] = {k: _jsonify(v) for k, v in self.extras}
        if self.workload:  # chaos cells carry no traffic workload
            doc["workload"] = self.workload
            doc["workload_params"] = {
                k: _jsonify(v) for k, v in self.workload_params
            }
        return doc

    @property
    def key(self) -> str:
        """SHA-256 hex digest of the canonical document (memoized).

        Every field is frozen, so the digest is computed once per
        instance; the engine, the journal and :meth:`worker_seed` all
        read the same cached string instead of re-canonicalising.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            blob = json.dumps(
                self.canonical(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def worker_seed(self) -> int:
        """Deterministic per-request RNG seed for pool workers.

        Derived from the content key so it is stable across runs, job
        counts and dispatch order, and mixed with the declared ``seed`` so
        two requests differing only in seed draw different streams.
        """
        return (int(self.key[:12], 16) ^ (self.seed * 0x9E3779B1)) % (2**31)


# -- request wire form -------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _wire_fields(value: Any) -> dict:
    """``dataclasses.asdict`` of a topology or hierarchy, once per value."""
    return dataclasses.asdict(value)


def request_to_wire(request: EvalRequest) -> dict:
    """JSON-portable form of a request, key-preserving by construction.

    Floats ride as raw JSON numbers: Python serializes them via their
    ``repr`` shortest form and parses that back to the identical double,
    so the reconstructed request canonicalises -- and therefore hashes --
    exactly like the original.  Topology, hierarchy and fault specs
    travel as their dataclass fields.  The topology and hierarchy
    documents are shared between calls for equal values: treat the
    returned document as read-only.
    """
    doc: dict = {
        "model": request.model,
        "topology": _wire_fields(request.topology),
        "seed": request.seed,
    }
    if request.hierarchy is not None:
        doc["hierarchy"] = _wire_fields(request.hierarchy)
    if request.order is not None:
        doc["order"] = list(request.order)
    if request.comm_size is not None:
        doc["comm_size"] = request.comm_size
    if request.schedule is not None and len(request.schedule):
        doc["schedule"] = [dataclasses.asdict(s) for s in request.schedule]
    if request.extras:
        doc["extras"] = [[k, v] for k, v in request.extras]
    if request.workload:
        doc["workload"] = request.workload
        doc["workload_params"] = [[k, v] for k, v in request.workload_params]
    return doc


def request_from_wire(doc: dict) -> EvalRequest:
    """Reconstruct an :class:`EvalRequest` from its wire form."""
    t = doc["topology"]
    topology = MachineTopology(
        **{**t, "levels": tuple(LevelParams(**lv) for lv in t["levels"])}
    )
    hierarchy = None
    if "hierarchy" in doc:
        h = doc["hierarchy"]
        hierarchy = Hierarchy(
            tuple(h["radices"]), tuple(h["names"]), masked=h["masked"]
        )
    schedule = None
    if "schedule" in doc:
        from repro.faults.model import FaultSchedule, FaultSpec

        schedule = FaultSchedule(tuple(FaultSpec(**s) for s in doc["schedule"]))
    return EvalRequest(
        model=doc["model"],
        topology=topology,
        hierarchy=hierarchy,
        order=tuple(doc["order"]) if "order" in doc else None,
        comm_size=doc.get("comm_size"),
        seed=int(doc["seed"]),
        schedule=schedule,
        extras=tuple((k, _unlist(v)) for k, v in doc.get("extras", [])),
        workload=doc.get("workload"),
        workload_params=tuple(
            (k, _unlist(v)) for k, v in doc.get("workload_params", [])
        ),
    )


def _unlist(value):
    """JSON turned extras and parameter tuples into lists; restore
    hashable tuples.

    Canonicalisation treats lists and tuples identically, so this only
    matters for the dataclass's own hashability, not for the key.
    """
    if isinstance(value, list):
        return tuple(_unlist(v) for v in value)
    return value
