"""Fast synchronized-round contention model.

A *round* is a batch of point-to-point flows that start together (the
execution model of round-structured collective algorithms: pairwise
alltoall, ring allgather, recursive doubling, ...).  For each flow the
model computes the set of tree links it traverses, counts how many flows
share each link, and assigns the flow its *bottleneck fair share*::

    rate(f) = min over links l on f's path of  bw(l) / n_flows(l)

The round lasts until its slowest flow completes::

    T(round) = max over flows f of  latency(f) + bytes(f) / rate(f)

This is the classic bottleneck approximation of max-min fairness; the
tests cross-validate it against the exact progressive-filling computation
in :mod:`repro.netsim.flows` (they agree exactly whenever every flow in the
round carries equal bytes, which round-structured collectives guarantee).

A :class:`Fabric` holds the payload-independent half of that formula for
one machine: per placed ``(src, dst)`` pattern, each live flow's latency
and fair share (:meth:`Fabric.round_structures`), plus the logp model's
``(alpha, rate_coeff)`` pairs, each in an LRU memo.  It prices nothing
itself: the ``round`` and ``logp`` backends of :mod:`repro.ir.backends`
own one fabric per topology and evaluate whole programs against it, so
every caller of the round model goes through
``get_backend("round").run(program, topology, placements)``.  A pattern
is analysed in ~10 NumPy passes even at 2048 ranks, and a 255-round ring
allgather has one distinct pattern.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.topology.machine import MachineTopology

T = TypeVar("T")


@dataclass
class FabricCacheStats:
    """Hit/miss/eviction counters of a family of fabric memos.

    :data:`STRUCTURE_CACHE_STATS` counts the structure memos of both
    analytic kernels (:func:`lru_structures`) and appears in the engine's
    ``/stats``.  Advisory counters only, never control flow.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def to_jsonable(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


#: Aggregate structure-memo counters (:func:`lru_structures`) across every
#: fabric in the process.
STRUCTURE_CACHE_STATS = FabricCacheStats()


#: Payload-independent part of one round pattern's fair-share pricing:
#: ``(live, lat, share)`` with ``live`` indexing the pattern's non-self
#: flows and ``lat``/``share`` per live flow (empty when every flow is a
#: self-flow).
RoundStructure = tuple["np.ndarray | slice", np.ndarray, np.ndarray]

#: ``live`` of a pattern without self-flows (the common case), which
#: spares the structure memo one mask per entry.
ALL_FLOWS = slice(None)

#: What the logp model keeps of one placed round pattern:
#: ``(alpha, rate_coeff)``, the largest first-hop latency and the largest
#: inverse fair share over the pattern's live flows.
LogPCoefficients = tuple[float, float]

#: ``(alpha, rate_coeff)`` of a pattern whose flows are all self-flows;
#: NaN marks it, and its rounds price at ``0.0``.
NO_FLOWS: LogPCoefficients = (float("nan"), float("nan"))


class Fabric:
    """Memoized fair-share structures of placed round patterns on one
    machine topology (built by the analytic backends, one per topology)."""

    #: Pattern structures kept per fabric; each key embeds the
    #: pattern's src/dst arrays, so unbounded growth would cost real memory
    #: on studies that evaluate thousands of distinct patterns.
    CACHE_LIMIT = 4096

    #: logp ``(alpha, rate_coeff)`` pairs kept per fabric.  One pass over
    #: the served advise shape set adds 15,340 pairs, 10,392 of them on the
    #: lumi(2) fabric and 4,948 on hydra(4), so the set stays warm with 2x
    #: headroom even on one fabric.  An entry measures ~310 bytes: key
    #: tuple, float pair and ordered-dict slot, plus its share of the
    #: pattern bytes, which every placement of a program shares.  A full
    #: memo holds ~10 MB.
    COEFFICIENT_LIMIT = 1 << 15

    #: Flows plus tally cells one stacked structural pass holds.  A
    #: pattern weighs its flow count plus the machine's core count (the
    #: most ``(pattern, component)`` tally cells it can add at one
    #: level), which bounds the transient arrays of a large miss set; a
    #: heavier pattern is analysed on its own.
    STACK_FLOWS = 1 << 12

    def __init__(self, topology: MachineTopology):
        self.topology = topology
        self._structures: OrderedDict[tuple, RoundStructure] = OrderedDict()
        self._coefficients: OrderedDict[tuple, LogPCoefficients] = OrderedDict()

    def round_structures(
        self, patterns: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[RoundStructure]:
        """Fair-share structures of placed ``(src, dst)`` flow patterns.

        Per live flow (self-flows dropped), the first-hop latency and the
        bottleneck fair share of the busiest link on its path
        (:meth:`fair_shares`).  The link counts depend only on
        ``src``/``dst``, so one structure serves every payload size the
        pattern is evaluated at.  Structures are cached per fabric with
        LRU eviction; the patterns missing from the cache are analysed
        together in one stacked pass.
        """
        keys = [(src.tobytes(), dst.tobytes()) for src, dst in patterns]
        return lru_structures(
            self._structures,
            keys,
            self.CACHE_LIMIT,
            lambda missing: self.fair_shares([patterns[i] for i in missing]),
        )

    def logp_coefficients(
        self,
        placement: tuple[bytes, ...],
        keys: Sequence[tuple[bytes, bytes]],
        placed: Callable[[list[int]], Iterable[tuple[np.ndarray, np.ndarray]]],
    ) -> list[LogPCoefficients]:
        """The logp model's ``(alpha, rate_coeff)`` of rank-space patterns.

        ``keys`` are the patterns' ``(src bytes, dst bytes)`` and
        ``placement`` the bytes of their placement's core arrays; the
        fabric's topology is the rest of the identity, so it stays out of
        the key.  ``placed(missing)`` yields the core-space ``(src, dst)``
        of the patterns at positions ``missing``, which the LRU memo's
        misses share one stacked :meth:`fair_shares` pass over.  Only the
        two maxima are kept: per-flow payloads re-derive the per-flow
        shares uncached.
        """

        def analyse(missing: list[int]) -> Iterator[LogPCoefficients]:
            for _, lat, inv_share in self.fair_shares(placed(missing), inverse=True):
                yield (float(lat.max()), float(inv_share.max())) if lat.size else NO_FLOWS

        return lru_structures(
            self._coefficients,
            [(placement, *key) for key in keys],
            self.COEFFICIENT_LIMIT,
            analyse,
        )

    def fair_shares(
        self,
        patterns: Iterable[tuple[np.ndarray, np.ndarray]],
        inverse: bool = False,
    ) -> Iterator[RoundStructure]:
        """Uncached fair-share analysis of many placed patterns, stacked.

        Yields ``(live, lat, share)`` per pattern, in input order:
        ``live`` masks the pattern's non-self flows (:data:`ALL_FLOWS`
        when it has none), and per live flow ``lat`` is the first-hop
        latency and ``share`` the bottleneck fair share -- at every
        crossed level, the level's link bandwidth over the larger of the
        flow's up-link (source component) and down-link (destination
        component) loads, and for flows meeting at the root, ``root_bw``
        over the pattern's root-crossing flows.
        ``inverse`` yields the reciprocal share the logp model prices
        with, built as ``load * (1 / bw)`` so its float rounding is the
        logp model's own.

        Patterns stack in chunks of at most :attr:`STACK_FLOWS` flows and
        tally cells, and each chunk is analysed in one numpy pass.
        """
        weight = self.topology.n_cores
        chunk: list[tuple[np.ndarray, np.ndarray]] = []
        cells = 0
        for pattern in patterns:
            if chunk and cells + pattern[0].size + weight > self.STACK_FLOWS:
                yield from self._stacked_shares(chunk, inverse)
                chunk, cells = [], 0
            chunk.append(pattern)
            cells += pattern[0].size + weight
        if chunk:
            yield from self._stacked_shares(chunk, inverse)

    def _stacked_shares(
        self, chunk: list[tuple[np.ndarray, np.ndarray]], inverse: bool
    ) -> Iterator[RoundStructure]:
        topo = self.topology
        depth = topo.depth
        sizes = [src.size for src, _ in chunk]
        src = np.concatenate([src for src, _ in chunk])
        dst = np.concatenate([dst for _, dst in chunk])
        lca = topo.lca_level(src, dst)
        live = lca < depth  # drop self-flows
        flows = np.flatnonzero(live)
        lca = lca[flows]
        lat = topo.hop_latency(lca)
        # Flows are tallied per ``(pattern, component)`` compound id, so
        # stacked patterns never share a link.  The level-``L`` crossing
        # sets nest (``lca <= 0`` within ``lca <= 1`` within ...), so one
        # stable sort by ``lca`` turns every per-level selection into a
        # prefix slice: the loop runs on contiguous views and scatters
        # back once.  Tallies and elementwise extrema are
        # order-insensitive over the same multiset, so each flow's share
        # does not depend on what it is stacked with.
        order = np.argsort(lca, kind="stable")
        bounds = np.searchsorted(lca[order], np.arange(depth), side="right")
        by_level = flows[order]
        src_s, dst_s = src[by_level], dst[by_level]
        pid_s = np.repeat(np.arange(len(chunk)), sizes)[by_level]
        del src, dst, lca, by_level
        acc = np.zeros(order.shape) if inverse else np.full(order.shape, np.inf)
        for level in range(depth):
            m = int(bounds[level])
            if not m:
                continue
            base = pid_s[:m] * topo.component_counts[level]
            up = src_s[:m] // topo.strides[level]
            up += base
            down = dst_s[:m] // topo.strides[level]
            down += base
            load = np.maximum(np.bincount(up)[up], np.bincount(down)[down])
            cap = topo.link_bw[level]
            if inverse:
                np.maximum(acc[:m], load * (1.0 / cap), out=acc[:m])
            else:
                np.minimum(acc[:m], cap / load, out=acc[:m])
        m = int(bounds[0])
        if topo.root_bw > 0 and m:
            n_root = np.bincount(pid_s[:m])[pid_s[:m]]
            if inverse:
                np.maximum(acc[:m], n_root / topo.root_bw, out=acc[:m])
            else:
                np.minimum(acc[:m], topo.root_bw / n_root, out=acc[:m])
        share = np.empty(order.shape)
        share[order] = acc
        del src_s, dst_s, pid_s, acc, order
        ends = np.cumsum(sizes)
        starts = ends - sizes
        spans = zip(
            starts.tolist(),
            ends.tolist(),
            np.searchsorted(flows, starts).tolist(),
            np.searchsorted(flows, ends).tolist(),
        )
        for start, end, a, b in spans:
            # Owned copies, made once the stack's temporaries are freed: a
            # cached structure must not pin the stack.
            yield (
                ALL_FLOWS if b - a == end - start else live[start:end].copy(),
                lat[a:b].copy(),
                share[a:b].copy(),
            )


def lru_structures(
    memo: OrderedDict[tuple, T],
    keys: Sequence[tuple],
    limit: int,
    analyse: Callable[[list[int]], Iterable[T]],
) -> list[T]:
    """Structures of ``keys`` from an LRU ``memo`` of at most ``limit``
    entries; ``analyse(missing)`` yields the structures of the missing
    keys' positions, in order, so all misses share one stacked pass.
    Lookups count into :data:`STRUCTURE_CACHE_STATS`."""
    out: list = []
    missing = []
    for i, key in enumerate(keys):
        hit = memo.get(key)
        if hit is None:
            missing.append(i)
        else:
            memo.move_to_end(key)
        out.append(hit)
    stats = STRUCTURE_CACHE_STATS
    stats.hits += len(keys) - len(missing)
    stats.misses += len(missing)
    if missing:
        for i, struct in zip(missing, analyse(missing)):
            out[i] = memo[keys[i]] = struct
            if len(memo) > limit:
                memo.popitem(last=False)
                stats.evictions += 1
    return out
