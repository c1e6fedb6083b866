"""Exact max-min fair flow rates: incremental progressive filling.

The discrete-event MPI runtime keeps a set of *active flows* that start and
finish asynchronously.  Whenever the set changes, rates are recomputed with
the textbook progressive-filling algorithm: repeatedly find the most
congested link (smallest remaining-capacity / unfixed-flow ratio), freeze
its flows at that fair share, remove the capacity, repeat.  The result is
the unique max-min fair allocation on the tree.

The seed implementation re-ran a Python dict/set version of that loop --
O(links x flows) of interpreter work -- from scratch on every flow
arrival, completion, and fault event, which made the DES ~48x slower than
the fast round model and capped how much differential / chaos coverage a
CI run can afford.  This module now keeps the *same exact allocation*
(bit-identical floats, locked by golden regressions) but computes it
through three layers of reuse:

1. **Cached paths, per machine.**  Paths are pure functions of the
   topology, so per-(src, dst) edge-ID arrays and lists and base
   latencies are computed once per machine and shared by every network
   on it; collective phases hit the same few hundred pairs over and over.
2. **Two exact solvers.**  Small active sets (under
   :data:`VECTOR_MIN_FLOWS`) run progressive filling on plain Python
   floats over per-edge flow lists; larger ones run a NumPy fixpoint:
   fair shares are one vectorized divide over edges, the bottleneck edge
   is an argmin, and all flows on the saturated edge are frozen in one
   batch through CSR incidence arrays.  Both renumber edges by first
   appearance to replicate the seed's insertion-order tie-breaking, so
   float trajectories match bit for bit.
3. **Lazy, memoized recomputation.**  :meth:`FlowNetwork.apply_rates`
   keys the active set by its (fault-state, flow-pair sequence) signature:
   an unchanged signature skips the recompute outright, and a previously
   seen signature replays the memoized rate vector (repeated phases --
   ring rounds, barriers, retry loops -- pay for one solve).  The memo is
   per machine, so the networks of successive DES evaluations reuse each
   other's solves.  Fault installation via :meth:`set_link_faults` rotates
   the signature token to the canonical fault tuple, which fixes the
   capacities, so memo entries never leak across capacity states, and
   restoring the healthy state revalidates the healthy memo entries.

An opt-in audit mode (``audit=True``, surfaced as ``--no-incremental`` on
the CLI, mirroring the sweep engine's ``--no-prune``) cross-checks every
memoized or freshly solved allocation against the retained reference
implementation (:meth:`FlowNetwork.max_min_rates_reference`) at
``rtol=1e-12`` and raises :class:`RateAuditError` on any divergence.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.topology.machine import MachineTopology

#: Relative tolerance the audit mode allows between the incremental kernel
#: and the from-scratch reference.  The two are designed to be bit-identical;
#: anything past a few ulps means the kernel broke.
AUDIT_RTOL = 1e-12

#: Memoized rate vectors kept per machine (LRU).  Keys embed the active
#: flow pairs, so unbounded growth would cost real memory on fuzz
#: campaigns that visit millions of distinct phases.
RATE_MEMO_LIMIT = 8192

#: Flow-count threshold below which a fresh solve runs the plain-float
#: solver (:meth:`FlowNetwork._solve_small`) instead of the vectorized
#: fixpoint.  The two are bit-identical; this is purely a constant-factor
#: dispatch.  NumPy call overhead (~5-10us per ufunc) dominates the
#: vectorized kernel's setup on small active sets, while the plain-float
#: loop's O(iterations x touched edges) interpreter cost wins out past a
#: few dozen flows.  Where exactly depends on the machine and the set:
#: measured, drawn sets cross over near 24-32 flows on a 2048-core LUMI
#: and past 64-128 on hydra(4); 48 sits between.
VECTOR_MIN_FLOWS = 48


class RateAuditError(AssertionError):
    """Incremental and from-scratch max-min rates disagreed."""


@dataclass
class KernelStats:
    """Global counters for the max-min kernel (all networks, this process).

    Reset/read by ``benchmarks/bench_des_kernel.py``; counters are advisory
    (perf telemetry), never control flow.
    """

    solves: int = 0  # fresh kernel solves (true recomputes)
    memo_hits: int = 0  # active-set signature answered from the memo
    signature_skips: int = 0  # recompute skipped: signature unchanged
    deferrals: int = 0  # reprices absorbed by same-timestamp event bursts
    completion_deferrals: int = 0  # completions taken at ``now`` without a solve
    reference_solves: int = 0  # from-scratch reference runs (audit/off mode)
    audits: int = 0  # incremental-vs-reference cross-checks
    sim_events: int = 0  # DES event-loop iterations (all simulators)

    def reset(self) -> None:
        self.solves = 0
        self.memo_hits = 0
        self.signature_skips = 0
        self.deferrals = 0
        self.completion_deferrals = 0
        self.reference_solves = 0
        self.audits = 0
        self.sim_events = 0

    def to_jsonable(self) -> dict:
        recomputes = self.solves + self.reference_solves
        reprices = recomputes + self.memo_hits + self.signature_skips
        return {
            "solves": self.solves,
            "memo_hits": self.memo_hits,
            "signature_skips": self.signature_skips,
            "deferrals": self.deferrals,
            "completion_deferrals": self.completion_deferrals,
            "reference_solves": self.reference_solves,
            "audits": self.audits,
            "sim_events": self.sim_events,
            "reprices": reprices,
            "recompute_count": recomputes,
            "memo_hit_rate": (
                (self.memo_hits + self.signature_skips) / reprices if reprices else 0.0
            ),
        }


#: Process-wide kernel telemetry (benchmarks reset and read this).
KERNEL_STATS = KernelStats()


@dataclass
class Flow:
    """One in-flight message."""

    src: int
    dst: int
    nbytes: float
    remaining: float = field(default=-1.0)
    rate: float = 0.0
    start_time: float = 0.0
    flow_id: int = -1

    def __post_init__(self) -> None:
        if self.remaining < 0:
            self.remaining = float(self.nbytes)


class _TopoCaches(NamedTuple):
    """Shared per-topology caches.

    Paths and base latencies are pure functions of the (frozen, hashable)
    topology; a rate vector is a pure function of the topology, the
    canonical fault tuple and the active pair sequence; a lockstep round
    on the healthy machine is a pure function of its flows.  So every
    FlowNetwork on the same machine -- e.g. the networks of successive
    DES evaluations -- shares them.
    """

    paths: dict  # (src, dst) -> read-only edge-ID array
    path_lists: dict  # (src, dst) -> edge-ID list
    base_lat: dict  # (src, dst) -> healthy latency
    rate_memo: OrderedDict  # (fault token, pairs) -> rate vector (LRU)
    round_memo: OrderedDict  # lockstep round results (LRU)


_TOPO_CACHES: dict[MachineTopology, _TopoCaches] = {}


def _topo_caches(topology: MachineTopology) -> _TopoCaches:
    hit = _TOPO_CACHES.get(topology)
    if hit is None:
        hit = _TopoCaches({}, {}, {}, OrderedDict(), OrderedDict())
        _TOPO_CACHES[topology] = hit
    return hit


class FlowNetwork:
    """Tree fabric with exact max-min fair sharing among active flows.

    Parameters
    ----------
    topology:
        Machine model providing link structure and latencies.
    incremental:
        Use the kernel's solvers with signature skipping and the
        per-machine rate memo (default).  ``False`` recomputes from
        scratch with the reference progressive-filling loop on every call
        -- the seed behavior, kept as the benchmark baseline.
    audit:
        Cross-check every incremental allocation against the reference at
        ``rtol=1e-12`` and raise :class:`RateAuditError` on divergence.
        Implies the incremental kernel runs (there must be two results to
        compare).
    """

    def __init__(
        self,
        topology: MachineTopology,
        *,
        incremental: bool = True,
        audit: bool = False,
    ):
        self.topology = topology
        self.incremental = bool(incremental) or bool(audit)
        self.audit = bool(audit)
        counts = topology.component_counts
        self._offsets = np.concatenate(([0], np.cumsum(counts)))[:-1].astype(np.int64)
        self._n_edges = int(sum(counts))
        # Per-edge capacity: up-links then down-links, then optional root.
        caps = []
        for level, lv in enumerate(topology.levels):
            caps.extend([lv.link_bw] * counts[level])
        self._capacity = np.array(caps + caps, dtype=float)
        self._root_edge: int | None = None
        if topology.root_bw > 0:
            self._capacity = np.append(self._capacity, topology.root_bw)
            self._root_edge = self._capacity.size - 1
        # Healthy capacities; fault injection rescales _capacity from these.
        self._base_capacity = self._capacity.copy()
        # The same capacities as Python floats, for the small-set solver.
        self._capacity_list: list[float] = self._capacity.tolist()
        #: Largest and smallest current link capacity.  The largest bounds
        #: any flow's rate and the smallest tells whether a link is stalled;
        #: the simulator's lazy-reprice deferral proofs use both.
        self.max_capacity = float(self._capacity.max(initial=0.0))
        self.min_capacity = float(self._capacity.min(initial=np.inf))
        self._lat_faults: dict[tuple[int, int], float] = {}
        # -- incremental-kernel state -------------------------------------
        caches = _topo_caches(topology)
        self._path_cache = caches.paths
        self._path_list_cache = caches.path_lists
        self._base_lat_cache = caches.base_lat
        #: Per-topology LRU of healthy lockstep round results, shared by
        #: every network on the machine (see :mod:`repro.netsim.lockstep`).
        self.round_memo = caches.round_memo
        #: Latency cache valid for the *current* fault state only.
        self._lat_cache: dict[tuple[int, int], float] = {}
        #: Distinguishes capacity states in memo keys.  () is the healthy
        #: machine; a non-empty token is the canonical active-fault tuple,
        #: so revisiting an identical fault state reuses its memo entries.
        self._fault_token: tuple = ()
        #: Per-topology LRU of solved rate vectors, shared by every network
        #: on the machine: its keys carry the fault token, and capacities
        #: are a pure function of the topology and that token.
        self.rate_memo: OrderedDict[tuple, np.ndarray] = caches.rate_memo
        self._last_key: tuple | None = None
        self._last_rates: np.ndarray | None = None

    # -- fault injection ------------------------------------------------------

    def edge_ids(self, level: int, component: int) -> tuple[int, int]:
        """``(up, down)`` edge IDs of one level-``level`` component's link."""
        if not 0 <= level < self.topology.depth:
            raise IndexError(f"level {level} outside hierarchy")
        if not 0 <= component < self.topology.component_counts[level]:
            raise IndexError(f"component {component} outside level {level}")
        base = int(self._offsets[level] + component)
        return base, self._n_edges + base

    def set_link_faults(
        self, faults: Sequence[tuple[int, int, float, float]]
    ) -> None:
        """Install the active ``(level, component, bw_factor, lat_factor)`` set.

        Replaces any previously installed set: capacities are recomputed
        from the healthy baseline, so repeated calls do not compound.  A
        ``bw_factor`` of 0 stalls the link (its flows drop to rate 0 at the
        next recompute); callers must re-trigger
        :meth:`apply_rates` afterwards -- the simulator does so on every
        fault event.

        Only the touched edges change capacity, but any change invalidates
        the current rate signature: the fault token rotates to the
        canonical fault tuple, so memo entries of *other* capacity states
        stay dormant rather than wrong, and reinstalling an identical
        fault set (or clearing back to health) revalidates that state's
        memo entries.
        """
        self._capacity = self._base_capacity.copy()
        self._lat_faults = {}
        for level, component, bw_factor, lat_factor in faults:
            up, down = self.edge_ids(level, component)
            self._capacity[up] *= bw_factor
            self._capacity[down] *= bw_factor
            if lat_factor > 1.0:
                key = (level, component)
                self._lat_faults[key] = max(self._lat_faults.get(key, 1.0), lat_factor)
        self._fault_token = tuple(
            (int(lv), int(comp), float(bw), float(lat))
            for lv, comp, bw, lat in faults
        )
        self._capacity_list = self._capacity.tolist()
        self.max_capacity = float(self._capacity.max(initial=0.0))
        self.min_capacity = float(self._capacity.min(initial=np.inf))
        # Latencies depend on the active latency-fault set; the base cache
        # (pure topology) survives, the faulted overlay does not.
        self._lat_cache = {}
        self._last_key = None
        self._last_rates = None

    @property
    def healthy(self) -> bool:
        """Whether no fault set is installed (the machine's own capacities
        and latencies are in force)."""
        return not self._fault_token

    # -- paths and latency ----------------------------------------------------

    def _lca_scalar(self, src: int, dst: int) -> int:
        """First differing level of two cores (``depth`` for a self-flow)."""
        if src == dst:
            return self.topology.depth
        strides = self.topology.strides
        for level in range(self.topology.depth):
            if src // strides[level] != dst // strides[level]:
                return level
        return self.topology.depth  # pragma: no cover - src == dst handled above

    def _path_array(self, src: int, dst: int) -> np.ndarray:
        """Cached edge-ID array of a ``src -> dst`` flow (shared per topology)."""
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            topo = self.topology
            lca = self._lca_scalar(src, dst)
            edges: list[int] = []
            for level in range(lca, topo.depth):
                edges.append(int(self._offsets[level] + src // topo.strides[level]))
                edges.append(
                    int(self._n_edges + self._offsets[level] + dst // topo.strides[level])
                )
            if self._root_edge is not None and lca == 0:
                edges.append(self._root_edge)
            path = np.array(edges, dtype=np.int64)
            path.setflags(write=False)
            self._path_cache[key] = path
        return path

    def path_edges(self, src: int, dst: int) -> list[int]:
        """Edge IDs a ``src -> dst`` flow occupies (empty for a self-flow).

        Returns a fresh shallow copy of the cached list: callers may
        mutate their copy, the cache entry stays pristine.
        """
        key = (src, dst)
        hit = self._path_list_cache.get(key)
        if hit is None:
            hit = [int(e) for e in self._path_array(src, dst)]
            self._path_list_cache[key] = hit
        return hit.copy()

    def latency(self, src: int, dst: int) -> float:
        """One-way latency of a ``src -> dst`` message under active faults.

        Scalar fast path: no throwaway arrays per message.  Base latencies
        (pure topology) are cached per pair and shared across networks;
        fault-degraded values are cached per fault state.
        """
        key = (src, dst)
        if not self._lat_faults:
            base = self._base_lat_cache.get(key)
            if base is None:
                base = self._base_latency(src, dst)
                self._base_lat_cache[key] = base
            return base
        hit = self._lat_cache.get(key)
        if hit is not None:
            return hit
        base = self._base_lat_cache.get(key)
        if base is None:
            base = self._base_latency(src, dst)
            self._base_lat_cache[key] = base
        topo = self.topology
        factor = 1.0
        for level in range(self._lca_scalar(src, dst), topo.depth):
            for comp in (src // topo.strides[level], dst // topo.strides[level]):
                factor = max(factor, self._lat_faults.get((level, comp), 1.0))
        value = base * factor
        self._lat_cache[key] = value
        return value

    def _base_latency(self, src: int, dst: int) -> float:
        topo = self.topology
        lca = self._lca_scalar(src, dst)
        if lca == topo.depth:
            return 0.0
        return float(topo.link_lat[lca])

    # -- max-min kernel -------------------------------------------------------

    def max_min_rates(self, flows: Sequence[Flow]) -> np.ndarray:
        """Exact max-min fair rate per flow (progressive filling).

        Below :data:`VECTOR_MIN_FLOWS` active flows the plain-float solver
        (:meth:`_solve_small`) runs, where NumPy call overhead would
        dominate; past it the vectorized fixpoint (:meth:`_solve`).  The
        allocation is bitwise the reference's either way.
        """
        n = len(flows)
        if n == 0:
            return np.zeros(0)
        if n < VECTOR_MIN_FLOWS:
            return self._solve_small(flows)
        paths = [self._path_array(f.src, f.dst) for f in flows]
        return self._solve(paths)

    def max_min_rates_reference(self, flows: Sequence[Flow]) -> np.ndarray:
        """The seed's dict/set progressive-filling loop, kept verbatim.

        This is the semantic ground truth both kernel solvers are audited
        against (and the baseline the DES-kernel benchmark measures the
        speedup from).  O(links x flows) per call.
        """
        n = len(flows)
        rates = np.zeros(n)
        if n == 0:
            return rates
        paths = [self.path_edges(f.src, f.dst) for f in flows]
        # Self-flows (src == dst) are instantaneous; mark with inf rate.
        unfixed = set()
        for i, p in enumerate(paths):
            if p:
                unfixed.add(i)
            else:
                rates[i] = np.inf

        cap = self._capacity.copy()
        edge_flows: dict[int, set[int]] = {}
        for i in unfixed:
            for e in paths[i]:
                edge_flows.setdefault(e, set()).add(i)

        while unfixed:
            # Most congested link: smallest fair share among loaded links.
            best_share = np.inf
            best_edge = -1
            for e, fl in edge_flows.items():
                if not fl:
                    continue
                share = cap[e] / len(fl)
                if share < best_share:
                    best_share = share
                    best_edge = e
            if best_edge < 0:  # pragma: no cover - defensive
                break
            for i in list(edge_flows[best_edge]):
                rates[i] = best_share
                unfixed.discard(i)
                for e in paths[i]:
                    cap[e] -= best_share
                    edge_flows[e].discard(i)
                cap[best_edge] = max(cap[best_edge], 0.0)
        return rates

    def _solve_small(self, flows: Sequence[Flow]) -> np.ndarray:
        """Progressive filling on plain Python floats, for small active sets.

        The reference's loop without its numpy scalars and sets: edges are
        renumbered by first appearance in (flow order, path order), which
        is the reference's ``edge_flows`` insertion order, so its strict-<
        first-minimum scan picks the same bottleneck, and each frozen flow
        subtracts the share from its edges, as in the reference.  Python
        floats are IEEE doubles like ``np.float64``, so every intermediate
        value, and the result, is bitwise the reference's.  The
        reference's clamp of the bottleneck at 0 is left out: once its
        flows are frozen that edge is never scanned again.
        """
        capacity = self._capacity_list
        path_lists = self._path_list_cache
        n = len(flows)
        rates = [0.0] * n
        slot_of: dict[int, int] = {}
        cap: list[float] = []  # remaining capacity per compact edge
        count: list[int] = []  # unfrozen flows per compact edge
        members: list[list[int]] = []  # flows per compact edge, ascending
        flow_slots: list[list[int]] = []
        live = 0
        for i, f in enumerate(flows):
            path = path_lists.get((f.src, f.dst))
            if path is None:
                path = self.path_edges(f.src, f.dst)
            slots = []
            for e in path:
                s = slot_of.get(e)
                if s is None:
                    s = slot_of[e] = len(cap)
                    cap.append(capacity[e])
                    count.append(0)
                    members.append([])
                count[s] += 1
                members[s].append(i)
                slots.append(s)
            flow_slots.append(slots)
            if slots:
                live += 1
            else:  # a self-flow is instantaneous
                rates[i] = math.inf
        frozen = [False] * n
        while live:
            best_share = math.inf
            best = -1
            for s, c in enumerate(count):
                if c:
                    share = cap[s] / c
                    if share < best_share:
                        best_share = share
                        best = s
            if best < 0:  # pragma: no cover - defensive, as in the reference
                break
            for i in members[best]:
                if frozen[i]:
                    continue
                frozen[i] = True
                rates[i] = best_share
                live -= 1
                for s in flow_slots[i]:
                    cap[s] -= best_share
                    count[s] -= 1
        return np.array(rates)

    def _solve(self, paths: list[np.ndarray]) -> np.ndarray:
        """Vectorized progressive filling over cached path arrays.

        Bit-identical to :meth:`max_min_rates_reference`: the bottleneck
        edge is chosen by (share, first-appearance rank), replicating the
        reference's dict-insertion-order scan with strict ``<``, and each
        freeze applies the same per-edge sequence of equal-value
        subtractions, so every intermediate float matches.
        """
        n = len(paths)
        rates = np.zeros(n)
        lens = np.fromiter((p.size for p in paths), dtype=np.int64, count=n)
        live = lens > 0
        rates[~live] = np.inf
        if not live.any():
            return rates

        # Compact, rank-ordered edge space: renumber the edges that appear
        # on any path by *first appearance* in (flow order, path order).
        # The reference's ``edge_flows`` dict preserves exactly that
        # insertion order and its strict-< minimum scan keeps the first
        # minimum, so in this numbering a plain ``argmin`` reproduces the
        # reference's tie-breaking -- no rank bookkeeping in the loop --
        # and every per-iteration array shrinks from |all edges| to
        # |touched edges|.
        edge_idx = np.concatenate(paths)
        n_entries = edge_idx.size
        uniq, inv = np.unique(edge_idx, return_inverse=True)
        m = uniq.size
        first = np.empty(m, dtype=np.int64)
        first[inv[::-1]] = np.arange(n_entries - 1, -1, -1)
        order = np.argsort(first)
        slot_of = np.empty(m, dtype=np.int64)
        slot_of[order] = np.arange(m)
        slots = slot_of[inv]  # per-entry compact edge id, appearance-ordered

        cap = self._capacity[uniq[order]]
        per_edge = np.bincount(slots, minlength=m)
        count = per_edge.copy()
        # CSR both ways: entries of flow i are slots[ptr[i]:ptr[i+1]]
        # (paths concatenate flow-major), flows on edge e are
        # eflows[eptr[e]:eptr[e+1]] (stable sort keeps them ascending).
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        eptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(per_edge, out=eptr[1:])
        flow_of_entry = np.repeat(np.arange(n, dtype=np.int64), lens)
        eflows = flow_of_entry[np.argsort(slots, kind="stable")]

        frozen = np.zeros(n, dtype=bool)
        n_unfrozen = int(live.sum())
        shares = np.empty(m)
        while n_unfrozen:
            shares.fill(np.inf)
            np.divide(cap, count, out=shares, where=count > 0)
            best = int(shares.argmin())
            best_share = float(shares[best])
            cand = eflows[eptr[best]:eptr[best + 1]]
            newly = cand[~frozen[cand]]
            rates[newly] = best_share
            frozen[newly] = True
            n_unfrozen -= int(newly.size)
            if newly.size == 1:
                i = int(newly[0])
                touched = slots[ptr[i]:ptr[i + 1]]
            else:
                touched = np.concatenate(
                    [slots[ptr[i]:ptr[i + 1]] for i in newly]
                )
            # np.add.at applies duplicates sequentially; every summand is
            # the same best_share, matching the reference's repeated
            # ``cap[e] -= best_share`` rounding exactly.
            np.add.at(cap, touched, -best_share)
            np.subtract.at(count, touched, 1)
            if cap[best] < 0.0:
                cap[best] = 0.0
        return rates

    # -- incremental repricing ------------------------------------------------

    def _signature(self, flows: Sequence[Flow]) -> tuple:
        """Memo key of an active set: fault state + exact pair sequence.

        The pair sequence is deliberately *not* canonicalized (sorted):
        progressive filling's float trajectory can differ by ulps between
        orderings of the same multiset, and the golden regressions lock
        timings bitwise.  Deterministic simulators replay identical phases
        in identical order, so exact-sequence keys still hit.
        """
        return (self._fault_token, tuple((f.src, f.dst) for f in flows))

    def apply_rates(self, flows: Sequence[Flow]) -> None:
        """Recompute (or recall) and store each flow's current max-min rate.

        With ``incremental=True`` the recompute is skipped when the active
        set's signature is unchanged, replayed from the memo when the
        signature was seen before (under the same fault state), and solved
        by the vectorized kernel otherwise.  With ``audit=True`` every
        allocation is additionally cross-checked against the reference.
        """
        if not self.incremental:
            rates = self.max_min_rates_reference(flows)
            KERNEL_STATS.reference_solves += 1
            for f, r in zip(flows, rates):
                f.rate = float(r)
            return

        key = self._signature(flows)
        if key == self._last_key:
            rates = self._last_rates
            KERNEL_STATS.signature_skips += 1
        else:
            rates = self.rate_memo.get(key)
            if rates is not None:
                self.rate_memo.move_to_end(key)
                KERNEL_STATS.memo_hits += 1
            else:
                rates = self.max_min_rates(flows)
                rates.setflags(write=False)
                self.rate_memo[key] = rates
                if len(self.rate_memo) > RATE_MEMO_LIMIT:
                    self.rate_memo.popitem(last=False)
                KERNEL_STATS.solves += 1
            self._last_key = key
            self._last_rates = rates
        assert rates is not None

        if self.audit:
            reference = self.max_min_rates_reference(flows)
            KERNEL_STATS.reference_solves += 1
            KERNEL_STATS.audits += 1
            if not np.allclose(rates, reference, rtol=AUDIT_RTOL, atol=0.0):
                worst = (
                    int(np.nanargmax(np.abs(rates - reference)))
                    if len(flows)
                    else -1
                )
                raise RateAuditError(
                    "incremental max-min rates diverge from the from-scratch "
                    f"reference (rtol={AUDIT_RTOL}): flow {worst} "
                    f"incremental={rates[worst]!r} reference={reference[worst]!r} "
                    f"over {len(flows)} active flow(s)"
                )

        for f, r in zip(flows, rates):
            f.rate = float(r)
