"""Lockstep DES rounds as a direct event kernel.

In lockstep mode every round of a program starts on a fresh clock: each
rank computes, posts its receives, then its sends, and waits for all of
them.  Running that through :class:`~repro.simmpi.runtime.Simulator`
costs one generator per rank, a communicator, channel matching and an
event heap per round.  None of it changes the outcome, which is fixed by
a few rules of the simulator's event loop:

- A flow's start event is pushed when its later half posts.  Rank ``r``
  posts its irecvs, then its isends, each in flow order, and ranks post
  in rank order (:func:`post_order`).
- A flow starts at ``compute + latency(src, dst)`` (``0`` in place of a
  non-positive ``compute``) with ``max(nbytes, 1e-12)`` bytes.  Start
  events at one timestamp pop in push order.
- The next completion is the first minimum of ``now + rem / rate`` over
  flows with ``rate > 0``, and a completion goes before an event at the
  same time.  Progress is ``max(0, rem - rate * dt)``.
- Rates come from :meth:`FlowNetwork.apply_rates` on the active flows in
  start order, whenever the active set changed and a decision needs
  them (on every change when the network is not incremental).
- The round lasts until the largest of ``compute`` (or 0) and the last
  completion.

:func:`run_round` replays exactly those rules over plain lists, so its
round times and completion times equal the simulator's bit for bit
(a hypothesis property holds the two together).  It keeps both of the
simulator's solve deferrals, which skip solves whose rates could not
change the next decision:

- *event bursts* (:meth:`Simulator._can_defer`): while another event is
  due at ``now`` and no flow could complete at ``now``;
- *completion bursts* (:meth:`Simulator._burst_completion`): the first
  flow with no bytes left, or the first self-flow, completes at ``now``
  whatever the fresh rates are, provided every flow before it is still
  far from done and no link is stalled.

On a healthy, incremental, unaudited network a round is a pure function
of its flows, payloads and compute, so :func:`run_round` memoizes it in
the network's per-topology :attr:`FlowNetwork.round_memo` (LRU, shared by
every network on the machine), keeping each flow's completion time so a
hit can rebuild the flow records.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.netsim.flows import KERNEL_STATS, Flow, FlowNetwork

#: Lockstep round results kept per topology (LRU).
ROUND_MEMO_LIMIT = 4096

#: Smallest byte count a flow carries (zero-byte messages still take one
#: latency and a vanishing transfer).
_EPS = 1e-12


class RoundRun(NamedTuple):
    """One lockstep round's outcome on its own clock."""

    seconds: float  # round duration
    order: np.ndarray  # flow positions (post order) in completion order
    ends: np.ndarray  # their completion times


def post_order(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Flow indices in the order their start events are pushed.

    Rank ``r`` posts the irecvs of the flows it receives, then the isends
    of the flows it sends, each in flow order, and ranks post in rank
    order.  A flow's start is pushed when its later half posts: its send
    when ``src >= dst`` (a self-flow receives first), else its receive.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    # lexsort is stable, so equal (rank, phase) keep flow order.
    order: np.ndarray = np.lexsort((src >= dst, np.maximum(src, dst)))
    return order


def run_round(
    network: FlowNetwork,
    src: np.ndarray,
    dst: np.ndarray,
    nbytes: np.ndarray,
    compute: float,
) -> RoundRun:
    """One lockstep round over core-space flows given in post order.

    ``src``/``dst``/``nbytes`` list the round's flows in the order
    :func:`post_order` gives.  Memoized per topology when the network is
    healthy, incremental and not audited.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    nbytes = np.asarray(nbytes, dtype=float)
    compute = float(compute)
    memo = None
    if network.incremental and not network.audit and network.healthy:
        memo = network.round_memo
        key = (src.tobytes(), dst.tobytes(), nbytes.tobytes(), compute)
        hit: RoundRun | None = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            return hit
    run = _simulate(network, src.tolist(), dst.tolist(), nbytes.tolist(), compute)
    if memo is not None:
        memo[key] = run
        if len(memo) > ROUND_MEMO_LIMIT:
            memo.popitem(last=False)
    return run


def _simulate(
    network: FlowNetwork,
    src: list[int],
    dst: list[int],
    nbytes: list[float],
    compute: float,
) -> RoundRun:
    """The event loop of one round (see the module docstring)."""
    base = compute if compute > 0.0 else 0.0
    latency = network.latency
    starts = [base + latency(s, d) for s, d in zip(src, dst)]
    # Start events at one timestamp pop in push order (a stable sort).
    events = sorted(range(len(src)), key=starts.__getitem__)
    n_events = len(events)
    is_self = [s == d for s, d in zip(src, dst)]
    incremental = network.incremental
    max_capacity = network.max_capacity
    stalled = network.min_capacity <= 0.0
    apply_rates = network.apply_rates
    inf = math.inf
    ulp = math.ulp

    active: list[int] = []  # flow positions in start order
    flows: list[Flow] = []  # the same flows, as apply_rates sees them
    rem: list[float] = []
    rate: list[float] = []  # valid while not ``dirty``
    order: list[int] = []
    ends: list[float] = []
    now = base
    dirty = False
    k = 0
    loops = deferrals = bursts = 0
    while True:
        loops += 1
        t_event = starts[events[k]] if k < n_events else inf
        t_flow, idx = inf, -1
        if dirty:
            # The first flow that could complete at ``now`` under some
            # rates: one already done, a self-flow (infinite rate), or
            # one whose remaining bytes at the largest capacity take less
            # than ``2 * ulp(now)``.
            floor = 2.0 * ulp(now) * max_capacity
            due = -1
            for i, fi in enumerate(active):
                if rem[i] <= floor or is_self[fi]:
                    due = i
                    break
            if due < 0 and t_event == now:
                # Event burst: the queued event is next whatever the
                # fresh rates are.
                deferrals += 1
            elif due >= 0 and not stalled and (rem[due] == 0.0 or is_self[active[due]]):
                # Completion burst: every earlier flow ends after ``now``
                # and this one ends at ``now`` under any positive rate.
                bursts += 1
                t_flow, idx = now, due
            else:
                apply_rates(flows)
                rate = [f.rate for f in flows]
                dirty = False
        if not dirty:
            best = inf
            for i, rt in enumerate(rate):
                if rt > 0:
                    t = now + rem[i] / rt
                    if t < best:
                        best, idx = t, i
            if idx >= 0:
                t_flow = best
        t = min(t_event, t_flow)
        if t == inf:
            break
        dt = t - now
        if dt > 0:
            for i, rt in enumerate(rate):
                if rt != inf:
                    v = rem[i] - rt * dt
                    rem[i] = v if v > 0.0 else 0.0
        now = t
        if t_flow <= t_event and idx >= 0:
            order.append(active.pop(idx))
            ends.append(now)
            del flows[idx], rem[idx], rate[idx]
        else:
            fi = events[k]
            k += 1
            active.append(fi)
            flow = Flow(src[fi], dst[fi], nbytes=max(nbytes[fi], _EPS))
            flows.append(flow)
            rem.append(flow.remaining)
            rate.append(0.0)
        if incremental:
            dirty = True
        else:
            apply_rates(flows)
            rate = [f.rate for f in flows]
    KERNEL_STATS.sim_events += loops - 1
    KERNEL_STATS.deferrals += deferrals
    KERNEL_STATS.completion_deferrals += bursts
    if active:
        raise RuntimeError(
            f"{len(active)} flow(s) of a lockstep round never complete "
            "(stalled on a zero-capacity link)"
        )
    seconds = max(base, ends[-1]) if ends else base
    done, at = np.array(order, dtype=np.int64), np.array(ends)
    done.setflags(write=False)
    at.setflags(write=False)
    return RoundRun(seconds, done, at)
