"""The discrete-event simulator driving rank programs.

Every rank is a generator; the simulator advances ranks until they block on
an operation, matches sends to receives (FIFO per ``(src, dst, comm, tag)``
channel, like MPI ordering semantics), turns matched pairs into network
flows, and lets the exact max-min model of
:class:`~repro.netsim.flows.FlowNetwork` decide how long each flow takes
under whatever traffic is concurrently in flight.  Payloads are delivered
to the receiver when the flow completes, so algorithms running on top are
functionally correct, not just timed.

Flow lifecycle: a matched message waits ``latency`` seconds (pipeline
setup, determined by the deepest level it crosses), then transfers its
bytes at the flow's current max-min rate, recomputed whenever any flow
starts or ends.  Ranks have *local* clocks (a rank busy computing does not
advance others); the global clock is the event clock.

Fault injection: an optional :class:`~repro.faults.model.FaultSchedule`
degrades the machine while programs run.  Link degradations rescale the
flow network's capacities (re-triggering the max-min recompute; a failed
link stalls its flows at rate 0), node crashes and rank kills terminate
rank programs, and straggler windows multiply ``Compute`` durations.  A
rank whose matched peer dies receives :class:`RankFailedError` *thrown
into its generator* at the point of the blocked ``yield`` -- ULFM-style,
the program may catch it and recover (shrink, retry) or let it propagate,
which aborts the whole run.  With ``timeout`` set, a blocking operation
pending longer than that many simulated seconds raises
:class:`SimTimeout` instead of stalling into :class:`DeadlockError`.
With no schedule and no timeout installed, the event stream is exactly
the pre-fault one -- timings are bit-identical (locked by a golden
regression test).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Mapping

import numpy as np

from repro.netsim.engine import EventQueue
from repro.netsim.flows import KERNEL_STATS, Flow, FlowNetwork, RateAuditError
from repro.simmpi.errors import RankFailedError, SimTimeout
from repro.simmpi.ops import Compute, Irecv, Isend, Recv, Request, Send, Sendrecv, Wait
from repro.topology.machine import MachineTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.model import FaultSchedule

RankProgram = Generator[Any, Any, Any]

#: Relative slack when deciding a flow has finished transferring.
_EPS = 1e-12


class DeadlockError(RuntimeError):
    """No runnable rank, no pending event, yet programs are unfinished."""


@dataclass
class _Half:
    """One matched or pending half-operation (a send or a receive)."""

    kind: str  # "send" | "recv"
    rank: int  # world rank owning this half
    peer: int  # world rank of the other side
    key: tuple
    nbytes: float = 0.0
    payload: Any = None
    post_time: float = 0.0
    request: Request | None = None  # set for nonblocking halves
    timeout_event: Any = None  # EventQueue handle when a timeout is armed


@dataclass
class _RankState:
    gen: RankProgram
    local_time: float = 0.0
    blocking: set[int] = field(default_factory=set)  # ids of pending halves
    recv_result: Any = None
    finished: bool = False
    failed: bool = False  # killed by a fault (not a normal completion)
    return_value: Any = None
    waiting: tuple | None = None  # Requests a Wait op is blocked on


@dataclass
class FlowRecord:
    """Completed-transfer record handed to listeners (profiling hooks)."""

    src_rank: int
    dst_rank: int
    src_core: int
    dst_core: int
    nbytes: float
    start: float
    end: float
    key: tuple


class Simulator:
    """Discrete-event executor for a set of rank programs.

    Parameters
    ----------
    topology:
        Machine model providing link structure and latencies.
    rank_to_core:
        ``rank_to_core[world_rank]`` = core ID the rank is bound to.
    listeners:
        Callables invoked with a :class:`FlowRecord` on every completed
        transfer (used by the mpisee-style profiler).
    fault_schedule:
        Optional :class:`~repro.faults.model.FaultSchedule` injected while
        programs run.  ``None`` (or an empty schedule) leaves every code
        path and timing untouched.
    timeout:
        Optional bound, in simulated seconds, on how long any blocking
        operation may stay pending before :class:`SimTimeout` is raised.
    incremental:
        Use the incremental, memoized max-min kernel (default).  ``False``
        recomputes rates from scratch on every flow event -- the seed
        behavior, kept as the benchmark baseline.
    audit_rates:
        Cross-check every incremental rate allocation against the
        from-scratch reference (``rtol=1e-12``); raises
        :class:`~repro.netsim.flows.RateAuditError` on divergence.
    network:
        Optional pre-built :class:`FlowNetwork` to reuse, sharing its path
        caches and rate memo with other simulators and with the lockstep
        round kernel (:mod:`repro.netsim.lockstep`), so repeated active
        sets pay for one rate solve.  Must be built on the same topology;
        incompatible with a fault schedule, which mutates network
        capacities.
    """

    def __init__(
        self,
        topology: MachineTopology,
        rank_to_core: Iterable[int],
        listeners: Iterable[Callable[[FlowRecord], None]] = (),
        fault_schedule: "FaultSchedule | None" = None,
        timeout: float | None = None,
        incremental: bool = True,
        audit_rates: bool = False,
        network: FlowNetwork | None = None,
        backend: str = "des",
    ):
        self.backend = backend
        self.topology = topology
        self.rank_to_core = np.asarray(list(rank_to_core), dtype=np.int64)
        if self.rank_to_core.size and (
            self.rank_to_core.min() < 0 or self.rank_to_core.max() >= topology.n_cores
        ):
            raise ValueError("rank_to_core refers to cores outside the machine")
        if network is not None:
            if network.topology != topology:
                raise ValueError("shared network was built on a different topology")
            if fault_schedule is not None and not fault_schedule.empty:
                raise ValueError(
                    "a shared network cannot be combined with a fault schedule "
                    "(faults mutate network capacities)"
                )
            self.network = network
        else:
            self.network = FlowNetwork(
                topology, incremental=incremental, audit=audit_rates
            )
        self.listeners = list(listeners)
        self.now = 0.0
        if fault_schedule is not None and fault_schedule.empty:
            fault_schedule = None
        if fault_schedule is not None:
            self._validate_schedule(fault_schedule)
        self._schedule = fault_schedule
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self._timeout = timeout
        self._failed: set[int] = set()

    def _validate_schedule(self, schedule: "FaultSchedule") -> None:
        """Reject fault targets outside this machine up front, rather than
        letting an out-of-range component surface as an IndexError mid-run."""
        topo = self.topology
        n_nodes = int(topo.component_counts[0])
        for s in schedule:
            if s.kind in ("node_crash", "nic_fail") and not 0 <= s.target < n_nodes:
                raise ValueError(
                    f"{s.kind} targets node {s.target}, but the machine has "
                    f"{n_nodes} node(s)"
                )
            if s.kind == "link_degrade":
                if not 0 <= s.level < topo.depth:
                    raise ValueError(
                        f"link_degrade level {s.level} outside the machine's "
                        f"{topo.depth} levels"
                    )
                count = int(topo.component_counts[s.level])
                if not 0 <= s.target < count:
                    raise ValueError(
                        f"link_degrade targets component {s.target} at level "
                        f"{s.level}, but that level has {count} component(s)"
                    )
            if s.kind == "straggler" and not 0 <= s.target < topo.n_cores:
                raise ValueError(
                    f"straggler targets core {s.target}, but the machine has "
                    f"{topo.n_cores} core(s)"
                )
            if s.kind == "rank_kill" and not 0 <= s.target < self.rank_to_core.size:
                raise ValueError(
                    f"rank_kill targets rank {s.target}, but only "
                    f"{self.rank_to_core.size} rank(s) are bound"
                )

    # -- public API ---------------------------------------------------------

    def run(self, programs: Mapping[int, RankProgram]) -> dict[int, Any]:
        """Execute all rank programs to completion; returns return values.

        Ranks killed by the fault schedule are omitted from the result.
        Raises :class:`DeadlockError` when progress stalls (e.g. a send
        without a matching receive), :class:`SimTimeout` when a blocking
        operation outlives the configured timeout, and re-raises a
        :class:`RankFailedError` a rank program left uncaught.
        """
        self.now = 0.0
        self._ranks = {r: _RankState(gen=g) for r, g in programs.items()}
        for r in self._ranks:
            if not 0 <= r < self.rank_to_core.size:
                raise ValueError(f"program rank {r} has no core binding")
        self._events = EventQueue()
        self._half_ids = iter(range(1, 1 << 62))
        self._pending_sends: dict[tuple, deque] = {}
        self._pending_recvs: dict[tuple, deque] = {}
        self._half_owner: dict[int, tuple[int, _Half]] = {}
        self._active: list[tuple[Flow, _Half, _Half, int, int, float]] = []
        # NumPy mirrors of the active flows' remaining bytes and rates,
        # rebuilt at every reprice (the only points rates change) so flow
        # progression and next-completion scans are vectorized.  While the
        # mirror is valid it is authoritative for ``remaining``; it is
        # flushed back into the Flow objects right before any mutation of
        # ``_active``.
        self._flow_rem = np.zeros(0)
        self._flow_rate = np.zeros(0)
        self._mirror_valid = True
        self._rates_dirty = False
        self.events_processed = 0
        self._failed = set()

        if self._schedule is not None:
            for t in self._schedule.change_times():
                self._events.push(t, ("fault",))

        for rank in sorted(self._ranks):
            self._advance(rank, 0.0, None)

        try:
            self._loop()
        except RateAuditError as exc:
            # Identify which execution backend drove the diverging solve;
            # the original "rates diverge" detail is preserved verbatim.
            raise RateAuditError(f"[{self.backend} backend] {exc}") from exc

        unfinished = [
            r for r, s in self._ranks.items() if not s.finished and not s.failed
        ]
        if unfinished:
            raise DeadlockError(
                f"[{self.backend} backend] "
                f"{len(unfinished)} rank(s) blocked with no pending events:\n"
                + self._blocked_report(unfinished)
            )
        return {
            r: s.return_value for r, s in self._ranks.items() if s.finished
        }

    @property
    def finish_times(self) -> dict[int, float]:
        """Per-rank completion times of the last :meth:`run`."""
        return {r: s.local_time for r, s in self._ranks.items()}

    @property
    def failed_ranks(self) -> frozenset[int]:
        """World ranks that died (killed or cascade-failed) in the last run."""
        return frozenset(self._failed)

    # -- event loop -----------------------------------------------------------

    def _loop(self) -> None:
        guard = 0
        while True:
            guard += 1
            if guard > 50_000_000:  # pragma: no cover - runaway protection
                raise RuntimeError("event cap exceeded")
            t_event = self._events.peek_time() if self._events else np.inf
            if self._rates_dirty and self._can_defer(t_event):
                # Same-timestamp event burst: the queued event is provably
                # next whatever the fresh rates would be, so the reprice
                # waits until the burst's last mutation (one solve instead
                # of one per event).
                KERNEL_STATS.deferrals += 1
                t_flow, flow_idx = np.inf, -1
            elif self._rates_dirty and (due := self._burst_completion()) >= 0:
                # Completion burst: this flow completes at ``now`` whatever
                # the fresh rates would be, so it goes without a solve.
                KERNEL_STATS.completion_deferrals += 1
                t_flow, flow_idx = self.now, due
            else:
                self._ensure_rates()
                t_flow, flow_idx = self._next_completion()
            t = min(t_event, t_flow)
            if not np.isfinite(t):
                self.events_processed = guard - 1
                KERNEL_STATS.sim_events += guard - 1
                return  # no events, no flows: run() checks completion
            self._progress_flows(t)
            self.now = t
            if t_flow <= t_event and flow_idx >= 0:
                self._complete_flow(flow_idx)
            else:
                _, payload = self._events.pop()
                kind = payload[0]
                if kind == "resume":
                    _, rank, value = payload
                    self._advance(rank, t, value)
                elif kind == "start":
                    _, entry = payload
                    have_send = entry[3] in self._half_owner
                    have_recv = entry[4] in self._half_owner
                    if have_send and have_recv:
                        entry[0].start_time = t
                        self._flush_remaining()
                        self._active.append(entry)
                        self._mirror_valid = False
                        self._reprice()
                    elif have_send or have_recv:
                        # The other side was aborted by a fault during the
                        # latency wait; the survivor observes the failure.
                        hid = entry[3] if have_send else entry[4]
                        orphan_rank, _ = self._half_owner[hid]
                        self._drop_half(hid)
                        self._fail_cascade({orphan_rank}, t)
                    # else: both sides already aborted by a fault
                elif kind == "fault":
                    self._apply_faults(t)
                elif kind == "timeout":
                    _, hid = payload
                    self._handle_timeout(hid, t)
                else:  # pragma: no cover - defensive
                    raise AssertionError(kind)

    def _can_defer(self, t_event: float) -> bool:
        """Whether the pending reprice can wait one more event.

        True only when the next queued event shares the current timestamp
        AND no active flow could complete at ``now`` regardless of what the
        fresh rates turn out to be: every flow has remaining bytes large
        enough that ``now + remaining / rate`` strictly exceeds ``now``
        even at the machine's maximum capacity, and no flow is an
        infinite-rate self-flow.  Under those conditions the event loop's
        next decision (pop the queued event) is rate-independent, time does
        not advance (``dt == 0`` progresses nothing), and the eventual
        solve sees the same active sequence it would have seen anyway --
        so the deferred trajectory is bit-identical to per-event repricing.
        """
        if t_event != self.now:
            return False
        # Strict lower bound on any completion delta: remaining / max
        # capacity.  The factor 2 absorbs division rounding; anything above
        # 2*ulp(now) cannot round ``now + delta`` back onto ``now``.
        floor = 2.0 * math.ulp(self.now) * self.network.max_capacity
        if self._mirror_valid:
            rem = self._flow_rem
            if rem.size and float(rem.min()) <= floor:
                return False
            for entry in self._active:
                if entry[0].src == entry[0].dst:
                    return False
            return True
        for entry in self._active:
            flow = entry[0]
            if flow.remaining <= floor or flow.src == flow.dst:
                return False
        return True

    def _burst_completion(self) -> int:
        """Index of an active flow that completes at ``now`` whatever the
        fresh rates are, or ``-1``.

        The same proof as :meth:`_can_defer`.  Take the first active flow
        that has no bytes left or is a self-flow.  With no zero-capacity
        link every flow gets a positive rate, so this one completes at
        ``now + 0 / rate == now`` (a self-flow's rate is infinite:
        ``now + remaining / inf == now``).  Every flow before it has more
        than ``2 * ulp(now) * max_capacity`` bytes left, so it completes
        strictly after ``now``.  The strict-``<`` first-minimum scan of
        :meth:`_next_completion` therefore picks this flow at ``now``, a
        completion goes before any event at ``now``, and ``dt == 0``
        progresses nothing: completing it without the solve leaves the
        trajectory bit-identical.  The one solve then sees the active set
        after the whole burst.
        """
        network = self.network
        if network.min_capacity <= 0.0:
            return -1
        floor = 2.0 * math.ulp(self.now) * network.max_capacity
        remaining: Iterable[float] = (
            self._flow_rem.tolist()
            if self._mirror_valid
            else (entry[0].remaining for entry in self._active)
        )
        for i, (entry, rem) in enumerate(zip(self._active, remaining)):
            if rem == 0.0 or entry[0].src == entry[0].dst:
                return i
            if rem <= floor:
                return -1
        return -1

    def _next_completion(self) -> tuple[float, int]:
        """Earliest in-flight completion ``(time, active-list index)``.

        Element-wise float operations match the seed's per-flow scan
        exactly (``now + remaining / rate`` with strict-``<``
        first-minimum selection), so event timestamps stay bit-identical.
        Small active sets take a scalar loop (NumPy call overhead exceeds
        interpreter cost there); the arithmetic is IEEE-identical.
        """
        if not self._active:
            return np.inf, -1
        rem, rate = self._flow_rem, self._flow_rate
        if rem.size <= 32:
            now = self.now
            best_t = np.inf
            best_i = -1
            for i, (rm, rt) in enumerate(zip(rem.tolist(), rate.tolist())):
                if rt > 0:
                    t = now + rm / rt
                    if t < best_t:
                        best_t = t
                        best_i = i
            return (best_t, best_i) if best_i >= 0 else (np.inf, -1)
        times = np.full(rem.shape, np.inf)
        np.divide(rem, rate, out=times, where=rate > 0)
        times += self.now
        best_i = int(np.argmin(times))  # first minimum, like strict <
        best_t = float(times[best_i])
        if not np.isfinite(best_t):
            return np.inf, -1
        return best_t, best_i

    def _progress_flows(self, t: float) -> None:
        """Advance every finite-rate flow's remaining bytes to time ``t``."""
        dt = t - self.now
        if dt <= 0 or not self._active:
            return
        rem, rate = self._flow_rem, self._flow_rate
        if rem.size <= 32:
            for i, (rm, rt) in enumerate(zip(rem.tolist(), rate.tolist())):
                if math.isfinite(rt):
                    # Same per-element arithmetic as the vectorized branch
                    # and the seed's loop: max(0.0, remaining - rate * dt).
                    v = rm - rt * dt
                    rem[i] = v if v > 0.0 else 0.0
            return
        finite = np.isfinite(rate)
        # Same per-element arithmetic as the seed's Python loop:
        # max(0.0, remaining - rate * dt).
        np.copyto(rem, np.maximum(0.0, rem - rate * dt), where=finite)

    def _flush_remaining(self) -> None:
        """Write the progressed remaining bytes back into the Flow objects.

        Called right before ``_active`` mutates (the mirror's indices are
        about to go stale) and by :meth:`_reprice` before it rebuilds the
        mirror, so Flow objects are current whenever anyone reads them.
        """
        if not self._mirror_valid:
            return
        for entry, rem in zip(self._active, self._flow_rem):
            entry[0].remaining = float(rem)

    def _reprice(self) -> None:
        """Rates are stale.  Incremental networks resolve them lazily (the
        event loop calls :meth:`_ensure_rates` when a decision actually
        needs them, collapsing same-timestamp event bursts into one
        solve); the seed-faithful non-incremental mode recomputes from
        scratch immediately, one solve per flow event."""
        if self.network.incremental:
            self._rates_dirty = True
            return
        self._ensure_rates(force=True)

    def _ensure_rates(self, force: bool = False) -> None:
        if not (self._rates_dirty or force):
            return
        self._flush_remaining()
        flows = [f for f, *_ in self._active]
        self.network.apply_rates(flows)
        n = len(flows)
        self._flow_rem = np.fromiter(
            (f.remaining for f in flows), dtype=float, count=n
        )
        self._flow_rate = np.fromiter((f.rate for f in flows), dtype=float, count=n)
        self._mirror_valid = True
        self._rates_dirty = False

    # -- fault handling ---------------------------------------------------------

    def _apply_faults(self, t: float) -> None:
        """Re-install the fault state active at ``t`` and kill new victims."""
        sched = self._schedule
        assert sched is not None
        self.network.set_link_faults(sched.link_faults(t))
        self._reprice()
        dead_cores = sched.dead_cores(self.topology, t)
        newly_dead = {
            r
            for r in self._ranks
            if r not in self._failed
            and (
                r in sched.killed_ranks(t)
                or int(self.rank_to_core[r]) in dead_cores
            )
        }
        if newly_dead:
            self._kill_ranks(newly_dead, t)

    def _kill_ranks(self, dead: set[int], t: float) -> None:
        """Terminate ``dead`` ranks and deliver failures to affected peers."""
        for r in sorted(dead):
            self._failed.add(r)
            state = self._ranks.get(r)
            if state is not None and not state.finished and not state.failed:
                state.failed = True
                state.gen.close()
        victims: set[int] = set()
        for r in sorted(dead):
            victims |= self._purge_rank_ops(r)
        # Pending halves of live ranks whose peer just died never match now.
        for hid, (r, half) in list(self._half_owner.items()):
            if half.peer in dead and r not in self._failed:
                victims.add(r)
        self._fail_cascade(victims, t)

    def _fail_cascade(self, victims: set[int], t: float) -> None:
        """Throw :class:`RankFailedError` into every victim; a victim's
        aborted in-flight operations may orphan further live peers, which
        join the cascade (the abort semantics of a revoked communicator)."""
        queue = deque(sorted(victims))
        seen: set[int] = set()
        while queue:
            r = queue.popleft()
            state = self._ranks.get(r)
            if (
                r in seen
                or r in self._failed
                or state is None
                or state.finished
                or state.failed
            ):
                continue
            seen.add(r)
            more = self._purge_rank_ops(r)
            queue.extend(sorted(more - seen))
            self._advance(r, t, None, exc=RankFailedError(sorted(self._failed)))

    def _purge_rank_ops(self, rank: int) -> set[int]:
        """Drop every registered operation of ``rank``; returns live peers
        whose matched (in-flight) transfer was aborted."""
        affected: set[int] = set()
        self._flush_remaining()
        kept = []
        changed = False
        for entry in self._active:
            _flow, send_half, recv_half, sid, rid, _mt = entry
            if send_half.rank == rank or recv_half.rank == rank:
                changed = True
                for hid, half in ((sid, send_half), (rid, recv_half)):
                    self._drop_half(hid)
                    peer_state = self._ranks.get(half.rank)
                    if half.rank != rank and half.rank not in self._failed and (
                        peer_state is not None and not peer_state.finished
                    ):
                        affected.add(half.rank)
            else:
                kept.append(entry)
        if changed:
            self._active = kept
            self._mirror_valid = False
            self._reprice()
        for hid, (r, _half) in list(self._half_owner.items()):
            if r == rank:
                self._drop_half(hid)
        state = self._ranks[rank]
        state.blocking.clear()
        state.waiting = None
        state.recv_result = None
        return affected

    def _drop_half(self, hid: int) -> None:
        """Unregister a half: timeout disarmed, pending-queue entry removed.

        Disarming relies on :meth:`EventQueue.cancel` being a no-op for
        already-fired entries.
        """
        owner = self._half_owner.pop(hid, None)
        if owner is None:
            return
        _rank, half = owner
        if half.timeout_event is not None:
            self._events.cancel(half.timeout_event)
        if half.kind == "send":
            chan = (half.rank, half.peer, half.key)
            queue = self._pending_sends.get(chan)
        else:
            chan = (half.peer, half.rank, half.key)
            queue = self._pending_recvs.get(chan)
        if queue:
            try:
                queue.remove(hid)
            except ValueError:
                pass  # already matched; nothing pending to remove

    def _handle_timeout(self, hid: int, t: float) -> None:
        owner = self._half_owner.get(hid)
        if owner is None:
            return  # completed or aborted before the deadline
        rank, half = owner
        state = self._ranks.get(rank)
        if state is None or state.finished or state.failed:
            self._drop_half(hid)
            return
        detail = self._describe_rank(rank)
        raise SimTimeout(rank, detail, t)

    # -- diagnostics ----------------------------------------------------------

    def _describe_rank(self, rank: int) -> str:
        """One-line description of what ``rank`` is blocked on."""
        parts = []
        halves = sorted(
            (hid, h) for hid, (r, h) in self._half_owner.items() if r == rank
        )
        for hid, h in halves:
            if h.kind == "send":
                chan = (h.rank, h.peer, h.key)
                pending = hid in self._pending_sends.get(chan, ())
                arrow = f"send to {h.peer}"
            else:
                chan = (h.peer, h.rank, h.key)
                pending = hid in self._pending_recvs.get(chan, ())
                arrow = f"recv from {h.peer}"
            status = "unmatched" if pending else "in flight"
            parts.append(
                f"{arrow} key={h.key} ({status}, posted t={h.post_time:.6g})"
            )
        state = self._ranks[rank]
        if state.waiting is not None:
            incomplete = sum(1 for req in state.waiting if not req.done)
            parts.append(
                f"Wait on {len(state.waiting)} request(s), {incomplete} incomplete"
            )
        return "; ".join(parts) if parts else "no registered operations"

    def _blocked_report(self, ranks: list[int]) -> str:
        lines = [
            f"  rank {r}: blocked on {self._describe_rank(r)}" for r in ranks[:16]
        ]
        if len(ranks) > 16:
            lines.append(f"  ... and {len(ranks) - 16} more rank(s)")
        return "\n".join(lines)

    # -- rank advancement -------------------------------------------------------

    def _advance(
        self, rank: int, time: float, value: Any, exc: BaseException | None = None
    ) -> None:
        state = self._ranks[rank]
        if state.finished or state.failed:
            return
        state.local_time = max(state.local_time, time)
        while True:
            try:
                if exc is not None:
                    op = state.gen.throw(exc)
                    exc = None
                else:
                    # gen.send(None) on a fresh generator equals next(gen).
                    op = state.gen.send(value)
            except StopIteration as stop:
                state.finished = True
                state.return_value = stop.value
                if self._schedule is not None:
                    self._notify_finished(rank)
                return
            value = None
            if isinstance(op, Compute):
                seconds = op.seconds
                if self._schedule is not None:
                    seconds *= self._schedule.slowdown(
                        int(self.rank_to_core[rank]), state.local_time
                    )
                self._events.push(
                    state.local_time + seconds,
                    ("resume", rank, None),
                )
                state.local_time += seconds
                return
            if isinstance(op, Send):
                if self._peer_unreachable(rank, "send", op.dst, op.key):
                    exc = RankFailedError(sorted(self._failed))
                    continue
                half = _Half("send", rank, op.dst, op.key, op.nbytes, op.payload, state.local_time)
                self._post(rank, state, [half])
                return
            if isinstance(op, Recv):
                if self._peer_unreachable(rank, "recv", op.src, op.key):
                    exc = RankFailedError(sorted(self._failed))
                    continue
                half = _Half("recv", rank, op.src, op.key, post_time=state.local_time)
                self._post(rank, state, [half])
                return
            if isinstance(op, Sendrecv):
                if self._peer_unreachable(
                    rank, "send", op.dst, op.send_key
                ) or self._peer_unreachable(rank, "recv", op.src, op.recv_key):
                    exc = RankFailedError(sorted(self._failed))
                    continue
                s = _Half("send", rank, op.dst, op.send_key, op.nbytes, op.payload, state.local_time)
                r = _Half("recv", rank, op.src, op.recv_key, post_time=state.local_time)
                self._post(rank, state, [s, r])
                return
            if isinstance(op, Isend):
                if self._peer_unreachable(rank, "send", op.dst, op.key):
                    exc = RankFailedError(sorted(self._failed))
                    continue
                req = Request("send")
                half = _Half(
                    "send", rank, op.dst, op.key, op.nbytes, op.payload,
                    state.local_time, request=req,
                )
                self._post(rank, state, [half], blocking=False)
                value = req  # yielded back immediately; keep advancing
                continue
            if isinstance(op, Irecv):
                if self._peer_unreachable(rank, "recv", op.src, op.key):
                    exc = RankFailedError(sorted(self._failed))
                    continue
                req = Request("recv")
                half = _Half(
                    "recv", rank, op.src, op.key, post_time=state.local_time,
                    request=req,
                )
                self._post(rank, state, [half], blocking=False)
                value = req
                continue
            if isinstance(op, Wait):
                pending = [r for r in op.requests if not r.done]
                if not pending:
                    value = [r.data for r in op.requests]
                    continue
                state.waiting = op.requests
                for req in pending:
                    state.blocking.add(id(req))
                return
            raise TypeError(f"rank {rank} yielded unsupported op {op!r}")

    def _peer_unreachable(self, rank: int, kind: str, peer: int, key: tuple) -> bool:
        """Whether an op ``rank`` wants to post can never complete.

        True when the peer is dead, or -- under an active fault schedule --
        when the peer has *terminated* and no already-posted matching half
        is waiting in the channel (a rank that caught a failure and
        returned early will never post the matching op; without this check
        its neighbours would hang to the deadlock detector).
        """
        if peer in self._failed:
            return True
        if self._schedule is None:
            return False
        peer_state = self._ranks.get(peer)
        if peer_state is None or not peer_state.finished:
            return False
        if kind == "send":
            queue = self._pending_recvs.get((rank, peer, key))
        else:
            queue = self._pending_sends.get((peer, rank, key))
        return not queue

    def _notify_finished(self, rank: int) -> None:
        """Fail live ranks whose *unmatched* halves target the rank that
        just terminated -- those can never match now (fault runs only)."""
        victims: set[int] = set()
        for hid, (r, half) in self._half_owner.items():
            if half.peer != rank or r == rank or r in self._failed:
                continue
            if half.kind == "send":
                queue = self._pending_sends.get((half.rank, half.peer, half.key))
            else:
                queue = self._pending_recvs.get((half.peer, half.rank, half.key))
            if queue and hid in queue:
                victims.add(r)
        if victims:
            self._fail_cascade(victims, self.now)

    def _post(
        self, rank: int, state: _RankState, halves: list[_Half], blocking: bool = True
    ) -> None:
        for half in halves:
            hid = next(self._half_ids)
            if blocking:
                state.blocking.add(hid)
            self._half_owner[hid] = (rank, half)
            if self._timeout is not None:
                half.timeout_event = self._events.push(
                    half.post_time + self._timeout, ("timeout", hid)
                )
            if half.kind == "send":
                chan = (half.rank, half.peer, half.key)
                match = self._pending_recvs.get(chan)
                if match:
                    rid = match.popleft()
                    self._start_flow(hid, rid)
                else:
                    self._pending_sends.setdefault(chan, deque()).append(hid)
            else:
                chan = (half.peer, half.rank, half.key)
                match = self._pending_sends.get(chan)
                if match:
                    sid = match.popleft()
                    self._start_flow(sid, hid)
                else:
                    self._pending_recvs.setdefault(chan, deque()).append(hid)

    # -- flows ---------------------------------------------------------------

    def _start_flow(self, send_id: int, recv_id: int) -> None:
        send_rank, send_half = self._half_owner[send_id]
        recv_rank, recv_half = self._half_owner[recv_id]
        src_core = int(self.rank_to_core[send_rank])
        dst_core = int(self.rank_to_core[recv_rank])
        match_time = max(send_half.post_time, recv_half.post_time, self.now)
        lat = self.network.latency(src_core, dst_core)
        flow = Flow(src_core, dst_core, nbytes=max(send_half.nbytes, _EPS))
        entry = (flow, send_half, recv_half, send_id, recv_id, match_time)
        self._events.push(match_time + lat, ("start", entry))

    def _complete_flow(self, idx: int) -> None:
        self._flush_remaining()
        flow, send_half, recv_half, send_id, recv_id, match_time = self._active.pop(idx)
        self._mirror_valid = False
        self._reprice()
        for listener in self.listeners:
            listener(
                FlowRecord(
                    src_rank=send_half.rank,
                    dst_rank=recv_half.rank,
                    src_core=flow.src,
                    dst_core=flow.dst,
                    nbytes=send_half.nbytes,
                    start=match_time,
                    end=self.now,
                    key=send_half.key,
                )
            )
        self._finish_half(send_id, None)
        self._finish_half(recv_id, send_half.payload)

    def _finish_half(self, hid: int, result: Any) -> None:
        rank, half = self._half_owner.pop(hid)
        if half.timeout_event is not None:
            self._events.cancel(half.timeout_event)
        state = self._ranks[rank]
        if half.request is not None:
            half.request.done = True
            if half.kind == "recv":
                half.request.data = result
            state.blocking.discard(id(half.request))
            if state.blocking or state.waiting is None:
                return
            requests = state.waiting
            state.waiting = None
            self._advance(rank, self.now, [r.data for r in requests])
            return
        state.blocking.discard(hid)
        if half.kind == "recv":
            state.recv_result = result
        if not state.blocking:
            value = state.recv_result
            state.recv_result = None
            self._advance(rank, self.now, value)
