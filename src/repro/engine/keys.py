"""Canonical, content-addressed evaluation requests.

Every simulation the sweep layer runs -- a round-model or logp
micro-benchmark point, a DES replay -- is described by an
:class:`EvalRequest`.  The request canonicalises all inputs that
influence the result (hierarchy, order, communicator size, the workload
and its canonical parameters, seed, *and* every performance parameter
of the machine topology) into a
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


#: The last fingerprint built per kind, with the object it was built from.
_LAST_FINGERPRINT: dict[str, tuple[Any, Any]] = {}


def _shared_fingerprint(kind: str, value: Any, build) -> Any:
    """``build(value)``, reused while consecutive requests carry the very
    same object (a sweep's requests share one topology and hierarchy),
    so their memoized documents share one read-only copy."""
    last = _LAST_FINGERPRINT.get(kind)
    if last is not None and last[0] is value:
        return last[1]
    doc = build(value)
    _LAST_FINGERPRINT[kind] = (value, doc)
    return doc


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


@dataclass(frozen=True)
class EvalRequest:
    """One memoizable simulation, with its full provenance.

    ``model`` names the registered evaluator (``round``, ``logp``,
    ``des``, ...); ``extras`` holds
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
        """The deterministic provenance document behind :attr:`key`.

        Not memoized: a request can outlive its evaluation (the advisor
        service keeps planned requests), and the document is several
        times the size of the key.  Topology and hierarchy parts are
        shared read-only between requests carrying the same objects.
        """
        doc = {
            "schema": CACHE_SCHEMA,
            "version": _package_version(),
            "model": self.model,
            "topology": _shared_fingerprint(
                "topology", self.topology, topology_fingerprint
            ),
            "seed": self.seed,
        }
        if self.hierarchy is not None:
            doc["hierarchy"] = _shared_fingerprint(
                "hierarchy", self.hierarchy, hierarchy_fingerprint
            )
        if self.order is not None:
            doc["order"] = list(self.order)
        if self.comm_size is not None:
            doc["comm_size"] = self.comm_size
        if self.extras:
            doc["extras"] = {k: _jsonify(v) for k, v in self.extras}
        if self.workload:
            doc["workload"] = self.workload
            doc["workload_params"] = {
                k: _jsonify(v) for k, v in self.workload_params
            }
        return doc

    @property
    def key(self) -> str:
        """SHA-256 hex digest of the canonical document (memoized).

        Every field is frozen, so the digest is computed once per
        instance; the engine and :meth:`worker_seed` read the same cached
        string instead of re-canonicalising.
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
    exactly like the original.  Topology and hierarchy travel as their
    dataclass fields, in documents shared between calls for equal
    values: treat the returned document as read-only.
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
    if request.extras:
        doc["extras"] = [[k, v] for k, v in request.extras]
    if request.workload:
        doc["workload"] = request.workload
        doc["workload_params"] = [[k, v] for k, v in request.workload_params]
    return doc


def _topology_from_wire(t: dict) -> MachineTopology:
    return MachineTopology(
        **{**t, "levels": tuple(LevelParams(**lv) for lv in t["levels"])}
    )


def _hierarchy_from_wire(h: dict) -> Hierarchy:
    return Hierarchy(tuple(h["radices"]), tuple(h["names"]), masked=h["masked"])


def _decoded(memo: dict | None, part: dict, build):
    """``build(part)``, once per distinct document when ``memo`` is set."""
    if memo is None:
        return build(part)
    tag = (build, json.dumps(part, sort_keys=True))
    value = memo.get(tag)
    if value is None:
        value = memo[tag] = build(part)
    return value


def request_from_wire(doc: dict, memo: dict | None = None) -> EvalRequest:
    """Reconstruct an :class:`EvalRequest` from its wire form.

    Requests decoded with the same ``memo`` dict share one topology and
    one hierarchy object per distinct document (see
    :func:`requests_from_wire`).
    """
    topology = _decoded(memo, doc["topology"], _topology_from_wire)
    hierarchy = None
    if "hierarchy" in doc:
        hierarchy = _decoded(memo, doc["hierarchy"], _hierarchy_from_wire)
    return EvalRequest(
        model=doc["model"],
        topology=topology,
        hierarchy=hierarchy,
        order=tuple(doc["order"]) if "order" in doc else None,
        comm_size=doc.get("comm_size"),
        seed=int(doc["seed"]),
        extras=tuple((k, _unlist(v)) for k, v in doc.get("extras", [])),
        workload=doc.get("workload"),
        workload_params=tuple(
            (k, _unlist(v)) for k, v in doc.get("workload_params", [])
        ),
    )


def requests_from_wire(docs: list[dict]) -> list[EvalRequest]:
    """Reconstruct a chunk of requests, decoding each distinct topology
    and hierarchy document once: the chunk's requests share those
    objects, and with them what is memoized on them (properties, key
    fingerprints)."""
    memo: dict = {}
    return [request_from_wire(doc, memo) for doc in docs]


def _unlist(value):
    """JSON turned extras and parameter tuples into lists; restore
    hashable tuples.

    Canonicalisation treats lists and tuples identically, so this only
    matters for the dataclass's own hashability, not for the key.
    """
    if isinstance(value, list):
        return tuple(_unlist(v) for v in value)
    return value
