"""Statistics the benchmark reports: medians, tails, rate steps, verdicts.

Pure functions, so ``test_harness.py`` can check each rule directly.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``values`` need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond it (None if none has).

    Under the nearest-rank rule the ``p``-th percentile of ``n`` samples is
    sample number ``ceil(p n / 100)``; the rest lie beyond it.
    """
    for p in TAIL_PERCENTILES:
        if _beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def _beyond(n: int, p: float) -> int:
    return n - math.ceil(p / 100.0 * n - 1e-9)


def min_samples(p: float) -> int:
    """The fewest samples whose ``p``-th percentile has at least
    :data:`TAIL_MIN_BEYOND` samples beyond it."""
    n = TAIL_MIN_BEYOND
    while _beyond(n, p) < TAIL_MIN_BEYOND:
        n += 1
    return n


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(p, value)`` at :func:`tail_percentile` of ``values``, or None."""
    p = tail_percentile(len(values))
    return None if p is None else (p, percentile(values, p))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class HostReading:
    """The host speed probe's time, and the busy and stolen clock ticks of
    all CPUs so far, read at one moment."""

    probe_s: float
    busy: int
    stolen: int


@dataclass(frozen=True)
class HostShare:
    """What a job had of the host: the speed probe around it (the mean of
    the readings before and after) and the share of the CPU time wanted
    meanwhile that the host gave to other guests."""

    probe_s: float
    stolen: float


def host_share(before: HostReading, after: HostReading) -> HostShare:
    stolen = after.stolen - before.stolen
    wanted = after.busy - before.busy + stolen
    return HostShare(
        (before.probe_s + after.probe_s) / 2, stolen / wanted if wanted > 0 else 0.0
    )


def at_reference_speed(timings: Iterable[tuple[float, HostShare]], ref_s: float) -> float:
    """Median over ``(time, host share)`` pairs of the time less its stolen
    share, scaled by ``ref_s / probe``: the times as they would read on a
    dedicated host where the speed probe takes ``ref_s``."""
    return statistics.median(t * (1.0 - h.stolen) * ref_s / h.probe_s for t, h in timings)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


# -- open-loop rate steps ------------------------------------------------------

#: A step passes when this percentile of its latencies stays at or under
#: :data:`LATENCY_LIMIT_MS`.
LIMIT_PERCENTILE = 99.0
LATENCY_LIMIT_MS = 25.0

#: Requests in one step: the fewest that let :data:`LIMIT_PERCENTILE`
#: keep ten samples beyond it.
STEP_REQUESTS = min_samples(LIMIT_PERCENTILE)

#: A step is invalid when the generator's p99 lateness exceeds this.
MAX_LATENESS_MS = 5.0


@dataclass(frozen=True)
class Step:
    """One open-loop step: ``latencies_ms`` count from each request's due
    time (None: failed, refused or never completed), ``lateness_ms`` is how
    late the generator issued each request, and ``drained`` says whether
    every request completed within 1 s of the step's last due time."""

    rate: float
    latencies_ms: tuple[float | None, ...]
    lateness_ms: tuple[float, ...]
    drained: bool


def judge_step(step: Step) -> dict:
    """Verdict of one step.  Failures count as missing the limit.  A step
    is invalid when its generator ran late or it has too few requests to
    read :data:`LIMIT_PERCENTILE` with ten samples beyond it."""
    lat = [math.inf if v is None else v for v in step.latencies_ms]
    failed = sum(v is None for v in step.latencies_ms)
    late_p99 = percentile(step.lateness_ms, 99.0) if step.lateness_ms else 0.0
    valid = late_p99 <= MAX_LATENESS_MS and len(lat) >= STEP_REQUESTS
    limit_ms = percentile(lat, LIMIT_PERCENTILE) if lat else None
    passed = (
        valid
        and step.drained
        and failed == 0
        and limit_ms <= LATENCY_LIMIT_MS
    )
    return {
        "rate": step.rate,
        "n": len(lat),
        "failed": failed,
        "p50_ms": percentile(lat, 50.0) if lat else None,
        "p99_ms": limit_ms,
        "lateness_p99_ms": late_p99,
        "drained": step.drained,
        "valid": valid,
        "passed": passed,
    }


def max_qps(verdicts: Sequence[dict]) -> float | None:
    """The highest step rate that passed, walking the steps in order and
    stopping at the first one that did not pass: 0 when that is the first
    step, None when that step was invalid (the rate it was to test was
    never offered, so the highest passing rate is unknown)."""
    best = 0.0
    for v in verdicts:
        if not v["valid"]:
            return None
        if not v["passed"]:
            break
        best = v["rate"]
    return best


# -- comparing two sets of runs -------------------------------------------------


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """Is set ``b`` no worse than set ``a`` by more than ``bound``?

    ``ok`` or ``regressed`` when the spread of ``a`` resolves the bound;
    otherwise ``unresolved``, unless every value of ``b`` beats every value
    of ``a`` (then ``ok``).
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    med_b = statistics.median(b)
    worse = sign * (med_b - med_a) / med_a
    if spread(a) > bound:
        beats = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "ok" if beats else "unresolved"
    return "regressed" if worse > bound else "ok"
