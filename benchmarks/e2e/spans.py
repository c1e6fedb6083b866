"""Span analysis for traced runs: self time per layer and Chrome traces.

A span's self time is its duration minus the part of it covered by its
child spans, computed per (pid, tid): children running on another thread
or in another process (forked workers inherit the parent's open span)
overlap their parent in wall time without blocking the same thread, so
they are not subtracted.  An optional list of measurement windows clips
every interval first, so set-up work outside the timed part of a run is
left out.

Spans are consumed one at a time, children before parents -- the order
a process writes them in, since a span is written when it closes -- so a
run's spans never have to be held in memory at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

Interval = tuple[int, int]


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0: none
    layer: str
    name: str
    pid: int
    tid: int
    start: int  # monotonic ns
    end: int


def read_spans(directory: Path) -> Iterator[Span]:
    """Every span written under ``directory``, file by file in close order."""
    for path in sorted(Path(directory).glob("spans-*.txt")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path) as fh:
            for line in fh:
                sid, parent, layer, name, start, end, tid = line.split()
                yield Span(
                    int(sid), int(parent), layer, name, pid, int(tid), int(start), int(end)
                )


def merge(intervals: Iterable[Interval]) -> list[Interval]:
    """Sorted, non-overlapping union of ``intervals``."""
    out: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> list[Interval]:
    """Intersection of two merged interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def length(intervals: Iterable[Interval]) -> int:
    return sum(hi - lo for lo, hi in intervals)


def in_windows(t: int, windows: Sequence[Interval]) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


class SelfTime:
    """Per-layer self time and calls, fed spans children first.

    ``calls`` counts spans that start inside a window (every span when
    ``windows`` is None); ``threads`` sums self time per (pid, tid).
    """

    def __init__(self, windows: Sequence[Interval] | None = None):
        self.windows = merge(windows) if windows is not None else None
        self.layers: dict[str, dict] = {}
        self.threads: dict[tuple[int, int], int] = {}
        self._children: dict[tuple[int, int, int], list[Interval]] = {}

    def add(self, s: Span) -> None:
        own = [(s.start, s.end)]
        covered = intersect(merge(self._children.pop((s.pid, s.tid, s.sid), ())), own)
        started = True
        if self.windows is not None:
            own = intersect(own, self.windows)
            covered = intersect(covered, self.windows)
            started = in_windows(s.start, self.windows)
        self_ns = length(own) - length(covered)
        row = self.layers.setdefault(s.layer, {"self_ns": 0, "calls": 0})
        row["self_ns"] += self_ns
        row["calls"] += started
        self.threads[s.pid, s.tid] = self.threads.get((s.pid, s.tid), 0) + self_ns
        if s.parent:
            self._children.setdefault((s.pid, s.tid, s.parent), []).append((s.start, s.end))


def chrome_trace(spans: Sequence[Span], t0: int, names: dict[int, str]) -> dict:
    """Chrome trace-event document (opens in Perfetto and chrome://tracing).

    ``t0`` is the monotonic origin in ns; ``names`` labels processes.
    """
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "args": {"name": label}}
        for pid, label in names.items()
    ]
    for s in spans:
        events.append(
            {
                "ph": "X",
                "cat": s.layer,
                "name": s.name.split(":", 1)[-1],
                "pid": s.pid,
                "tid": s.tid,
                "ts": (s.start - t0) / 1e3,
                "dur": (s.end - s.start) / 1e3,
                "args": {"entry_point": s.name},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
