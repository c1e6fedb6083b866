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
one machine, in two LRU memos: per placed ``(src, dst)`` pattern, each
live flow's latency and fair share (:meth:`Fabric.round_structures`),
and per (placement, pattern table), the logp model's ``(alpha,
rate_coeff)`` pair of every pattern (:meth:`Fabric.logp_coefficients`).
The pair is the maximum of the per-flow latencies and inverse shares,
but a miss never builds those: it reduces each pattern's per-component
link tallies to their maxima (:meth:`Fabric.tally_coefficients`).
It prices nothing itself: the ``round`` and ``logp`` backends of
:mod:`repro.ir.backends` own one fabric per topology and evaluate whole
programs against it, so every caller of the round model goes through
``get_backend("round").run(program, topology, placements)``.  A pattern
is analysed in ~10 NumPy passes even at 2048 ranks, and a 255-round ring
allgather has one distinct pattern.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.netsim.cachestats import STRUCTURE_CACHE_STATS
from repro.topology.machine import MachineTopology

T = TypeVar("T")


#: Payload-independent part of one round pattern's fair-share pricing:
#: ``(live, lat, share)`` with ``live`` indexing the pattern's non-self
#: flows and ``lat``/``share`` per live flow (empty when every flow is a
#: self-flow).
RoundStructure = tuple["np.ndarray | slice", np.ndarray, np.ndarray]

#: ``live`` of a pattern without self-flows (the common case), which
#: spares the structure memo one mask per entry.
ALL_FLOWS = slice(None)

#: Core-space flows of many tally units: ``(src, dst, units, n_units)``,
#: ``units[f]`` numbering flow ``f``'s unit in ``range(n_units)``.
FlowChunk = tuple[np.ndarray, np.ndarray, np.ndarray, int]

#: The logp model's ``(alpha, rate_coeff)`` of a pattern whose flows are
#: all self-flows (elsewhere the largest first-hop latency and the
#: largest inverse fair share over its live flows); NaN marks it, and
#: its rounds price at ``0.0``.
NO_FLOWS = (float("nan"), float("nan"))


class Fabric:
    """Memoized fair-share structures of placed round patterns on one
    machine topology (built by the analytic backends, one per topology).

    The round kernel's memo holds one structure per placed pattern; the
    logp kernel's one array of pairs per (placement, pattern table), so
    a placement costs it one lookup per alignment group of a call.
    """

    #: Pattern structures kept per fabric; each key embeds the
    #: pattern's src/dst arrays, so unbounded growth would cost real memory
    #: on studies that evaluate thousands of distinct patterns.
    CACHE_LIMIT = 4096

    #: logp entries kept per fabric, one ``(P, 2)`` array per (placement,
    #: pattern table).  One pass over the served advise shape set adds
    #: 1,208 entries (22,780 pattern pairs), 700 of them on the hydra(4)
    #: fabric and 508 on lumi(2), so the set stays warm with 3x headroom
    #: even on one fabric.  An entry measures ~1.7 KB on that set: the
    #: placement's core bytes (8 per core of every instance, 2 KB for a
    #: lumi(2) all-instances placement), the pair array, the key tuple
    #: and the ordered-dict slot; the pattern keys are the program's
    #: table's own.  A full memo holds ~7 MB.
    COEFFICIENT_LIMIT = 1 << 12

    #: Flows plus tally cells one stacked structural pass holds, in
    #: both passes: the round kernel's :meth:`fair_shares` and the logp
    #: kernel's :meth:`tally_coefficients`.  A placed pattern weighs its
    #: flow count plus the machine's core count (the most ``(pattern,
    #: component)`` tally cells it can add at one level), which bounds
    #: the transient arrays of a large miss set; a heavier pattern is
    #: analysed on its own.  On the 256-rank dnn ladder (2-vCPU host),
    #: 4096 left the logp misses about twice as slow as 16384, and 65536
    #: added ~0.5 MB of peak RSS over 16384 for no measurable time.
    STACK_FLOWS = 1 << 14

    def __init__(self, topology: MachineTopology):
        self.topology = topology
        self._structures: OrderedDict[tuple, RoundStructure] = OrderedDict()
        self._coefficients: OrderedDict[tuple, np.ndarray] = OrderedDict()

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
        placements: Sequence[tuple[bytes, ...]],
        patterns: tuple[tuple[bytes, bytes], ...],
        placed: Callable[[list[int]], Iterable[FlowChunk]],
    ) -> list[np.ndarray]:
        """The logp model's ``(alpha, rate_coeff)`` of one pattern table
        under many placements.

        ``patterns`` are the table's rank-space ``(src bytes, dst
        bytes)`` pattern keys and each of ``placements`` the bytes of one
        placement's core arrays; the fabric's topology is the rest of the
        identity, so it stays out of the key.  Each memo entry holds one
        read-only ``(P, 2)`` array, row ``p`` pattern ``p``'s pair
        (:data:`NO_FLOWS` when it has no live flows).  ``placed(missing)``
        yields the core-space flows of every pattern under the placements
        at positions ``missing``, in :data:`FlowChunk` form with one unit
        per (placement, pattern), placement-major; each chunk's
        pairs come straight from its link tallies
        (:meth:`tally_coefficients`), with no per-flow shares.  Per-flow
        payloads re-derive the per-flow shares uncached
        (:meth:`fair_shares`).
        """
        n = len(patterns)

        def analyse(missing: list[int]) -> list[np.ndarray]:
            rows = [self.tally_coefficients(*chunk) for chunk in placed(missing)]
            stacked = np.concatenate([np.empty((0, 2)), *rows]).reshape(len(missing), n, 2)
            out = []
            for coefficients in stacked:
                coefficients = coefficients.copy()  # owned: must not pin the stack
                coefficients.setflags(write=False)
                out.append(coefficients)
            return out

        return lru_structures(
            self._coefficients,
            [(placement, patterns) for placement in placements],
            self.COEFFICIENT_LIMIT,
            analyse,
        )

    @cached_property
    def _components(self) -> list[np.ndarray]:
        """Per level, the component index of every core (``cores //
        strides[level]``), so the tallies gather instead of dividing."""
        cores = np.arange(self.topology.n_cores)
        return [cores // stride for stride in self.topology.strides]

    def tally_coefficients(
        self, src: np.ndarray, dst: np.ndarray, units: np.ndarray, n_units: int
    ) -> np.ndarray:
        """``(n_units, 2)``: the logp ``(alpha, rate_coeff)`` of each unit
        of core-space flows (``units[f]`` is flow ``f``'s unit).

        The pairs equal the maxima of ``fair_shares(..., inverse=True)``
        over each unit's live flows, bit for bit, without a per-flow
        share.  At level ``L`` a flow crosses iff its cores'
        level-``L`` components differ, and the crossing sets nest
        outward, so the loop walks the levels from the innermost and
        keeps only the flows still crossing.  ``rate_coeff`` is the
        largest, over levels, of the unit's busiest up- or down-link
        tally times ``1 / link_bw`` (and its root-crossing flows over
        ``root_bw``): rounding ``x * c`` is monotone for ``c > 0``, so
        the maximum of the products is the product of the maximum
        tally.  ``alpha`` is the largest ``link_lat`` of a level some
        flow of the unit first crosses at.  A unit without live flows
        gets :data:`NO_FLOWS`.
        """
        topo = self.topology
        first = np.zeros((topo.depth, n_units), dtype=bool)
        live = np.zeros(n_units, dtype=bool)
        rate = np.zeros(n_units)
        for level in range(topo.depth - 1, -1, -1):
            comp = self._components[level]
            up, down = comp[src], comp[dst]
            cross = up != down
            if not cross.all():
                if level + 1 < topo.depth:  # else self-flows
                    first[level + 1, units[~cross]] = True  # they first cross one level in
                src, dst, units, up, down = (a[cross] for a in (src, dst, units, up, down))
            if level == topo.depth - 1:
                live[units] = True
            if not units.size:
                break
            width = topo.component_counts[level]
            cells = n_units * width
            base = units * width
            up += base
            down += base
            load = np.maximum(
                np.bincount(up, minlength=cells).reshape(n_units, width).max(axis=1),
                np.bincount(down, minlength=cells).reshape(n_units, width).max(axis=1),
            )
            np.maximum(rate, load * (1.0 / topo.link_bw[level]), out=rate)
        first[0, units] = True
        if topo.root_bw > 0 and units.size:
            n_root = np.bincount(units, minlength=n_units)
            np.maximum(rate, n_root / topo.root_bw, out=rate)
        out = np.empty((n_units, 2))
        out[:, 0] = np.where(first, topo.link_lat[:, None], -np.inf).max(axis=0)
        out[:, 1] = rate
        out[~live] = NO_FLOWS
        return out

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
