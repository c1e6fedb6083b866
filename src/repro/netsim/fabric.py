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

Everything is vectorized: a round on 2048 ranks with a 5-level hierarchy
costs ~10 NumPy passes.  A :class:`RoundSchedule` additionally deduplicates
repeated rounds (a 255-round ring allgather has one distinct round pattern)
so whole size sweeps stay cheap.
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
    """Hit/miss/eviction counters of one family of fabric memos.

    :data:`FABRIC_CACHE_STATS` counts the round-time cache of every
    fabric (surfaced in ``BENCH_sweep.json``), :data:`STRUCTURE_CACHE_STATS`
    the structure memos of both analytic kernels (:func:`lru_structures`);
    both appear in the engine's ``/stats``.  Advisory counters only,
    never control flow.
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


#: Aggregate round-time cache counters across every :class:`Fabric` in
#: the process.
FABRIC_CACHE_STATS = FabricCacheStats()

#: Aggregate structure-memo counters (:func:`lru_structures`) across every
#: fabric in the process.
STRUCTURE_CACHE_STATS = FabricCacheStats()


@dataclass(frozen=True)
class Round:
    """One batch of concurrent flows.

    ``src``/``dst`` are core IDs, ``nbytes`` is per-flow payload (scalar or
    per-flow array), ``repeat`` collapses consecutive identical rounds.
    """

    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray | float
    repeat: int = 1

    def __post_init__(self) -> None:
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")

    @property
    def n_flows(self) -> int:
        return int(self.src.size)

    def key(self) -> tuple:
        """Hashable identity for schedule-level deduplication."""
        nbytes = self.nbytes
        if isinstance(nbytes, np.ndarray):
            nb_key: tuple | float = (nbytes.tobytes(),)
        else:
            nb_key = float(nbytes)
        return (self.src.tobytes(), self.dst.tobytes(), nb_key)


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
    """Vectorized round-time evaluation on one machine topology."""

    #: Round-pattern cache entries kept per fabric; each key embeds the
    #: round's src/dst arrays, so unbounded growth would cost real memory
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
        self._cache: OrderedDict[tuple, float] = OrderedDict()
        self._structures: OrderedDict[tuple, RoundStructure] = OrderedDict()
        self._coefficients: OrderedDict[tuple, LogPCoefficients] = OrderedDict()
        self.cache_stats = FabricCacheStats()

    def uncontended_time(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray | float
    ) -> np.ndarray:
        """Per-flow time with no competing traffic (latency + serialization).

        The serialization bandwidth is the slowest link on the path.
        """
        topo = self.topology
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        lca = topo.lca_level(src, dst)
        bw = np.full(src.shape, np.inf)
        for level in range(topo.depth):
            crossing = lca <= level
            bw = np.where(crossing, np.minimum(bw, topo.link_bw[level]), bw)
        lat = topo.hop_latency(lca)
        nb = np.broadcast_to(np.asarray(nbytes, dtype=float), src.shape)
        out = lat + np.where(np.isfinite(bw), nb / bw, 0.0)
        return np.where(lca == topo.depth, 0.0, out)

    def round_time(self, rnd: Round) -> float:
        """Duration of one round under bottleneck fair sharing.

        Distinct patterns are cached per fabric with true LRU eviction
        (the seed wholesale-cleared the cache at the limit, so a sweep
        cycling through ``CACHE_LIMIT + 1`` patterns recomputed all of
        them every pass).  Hit/miss/eviction counters accumulate on both
        this fabric's :attr:`cache_stats` and the process-wide
        :data:`FABRIC_CACHE_STATS`.
        """
        key = rnd.key()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_stats.hits += 1
            FABRIC_CACHE_STATS.hits += 1
            return cached
        self.cache_stats.misses += 1
        FABRIC_CACHE_STATS.misses += 1
        t = self._round_time_impl(rnd)
        self._cache[key] = t
        if len(self._cache) > self.CACHE_LIMIT:
            self._cache.popitem(last=False)
            self.cache_stats.evictions += 1
            FABRIC_CACHE_STATS.evictions += 1
        return t

    def _round_time_impl(self, rnd: Round) -> float:
        live, lat, share = self.round_structures([(rnd.src, rnd.dst)])[0]
        if not lat.size:
            return 0.0
        nb = np.broadcast_to(np.asarray(rnd.nbytes, dtype=float), rnd.src.shape)[live]
        times = lat + nb / share
        return float(times.max())

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


@dataclass
class RoundSchedule:
    """An ordered sequence of rounds, evaluated with pattern deduplication."""

    rounds: list[Round]

    def total_time(self, fabric: Fabric) -> float:
        """Sum of round durations (each distinct pattern computed once)."""
        total = 0.0
        for rnd in self.rounds:
            total += fabric.round_time(rnd) * rnd.repeat
        return total

    @property
    def n_rounds(self) -> int:
        return sum(r.repeat for r in self.rounds)

    @property
    def total_bytes(self) -> float:
        total = 0.0
        for r in self.rounds:
            nb = np.broadcast_to(np.asarray(r.nbytes, dtype=float), r.src.shape)
            total += float(nb.sum()) * r.repeat
        return total

    @staticmethod
    def merge(schedules: Sequence["RoundSchedule"]) -> "RoundSchedule":
        """Synchronized concurrent execution of several schedules.

        Round ``i`` of the merged schedule is the union of every schedule's
        round ``i`` -- the model of "all subcommunicators execute the
        collective simultaneously" in the paper's micro-benchmarks.
        Schedules shorter than the longest simply finish early.  Repeat
        compression is preserved only when all schedules agree on the
        repeat structure (true for same-algorithm same-size
        subcommunicators, the only case the harness produces); otherwise
        rounds are expanded.
        """
        if not schedules:
            return RoundSchedule([])
        if len(schedules) == 1:
            return schedules[0]
        repeats = [tuple(r.repeat for r in s.rounds) for s in schedules]
        if all(r == repeats[0] for r in repeats):
            merged = []
            for i, proto in enumerate(schedules[0].rounds):
                merged.append(
                    Round(
                        np.concatenate([s.rounds[i].src for s in schedules]),
                        np.concatenate([s.rounds[i].dst for s in schedules]),
                        _concat_nbytes([s.rounds[i] for s in schedules]),
                        repeat=proto.repeat,
                    )
                )
            return RoundSchedule(merged)
        expanded = [
            [rnd for r in s.rounds for rnd in [r] * r.repeat] for s in schedules
        ]
        longest = max(len(e) for e in expanded)
        merged = []
        for i in range(longest):
            parts = [e[i] for e in expanded if i < len(e)]
            merged.append(
                Round(
                    np.concatenate([p.src for p in parts]),
                    np.concatenate([p.dst for p in parts]),
                    _concat_nbytes(parts),
                )
            )
        return RoundSchedule(merged)


def _concat_nbytes(rounds: Iterable[Round]) -> np.ndarray | float:
    rounds = list(rounds)
    scalars = {
        float(r.nbytes) for r in rounds if not isinstance(r.nbytes, np.ndarray)
    }
    if len(scalars) == 1 and all(
        not isinstance(r.nbytes, np.ndarray) for r in rounds
    ):
        return scalars.pop()
    return np.concatenate(
        [np.broadcast_to(np.asarray(r.nbytes, dtype=float), r.src.shape) for r in rounds]
    )
