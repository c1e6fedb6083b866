"""Execution traces and ASCII timelines.

Both network models can narrate what they did: :func:`round_trace` records
one :class:`RoundTrace` per executed round of the round model (duration,
flow count, bottleneck level), the DES emits per-flow records already
(``Simulator`` listeners).
The timeline renderer turns either into a terminal-friendly Gantt strip,
which the examples use to make contention visible without matplotlib.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ir.registry import get_backend
from repro.ir.program import CommProgram
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class RoundTrace:
    """One evaluated round."""

    index: int
    start: float
    duration: float
    n_flows: int
    bottleneck_level: str  # name of the level whose links bound the round


def round_trace(
    program: CommProgram,
    topology: MachineTopology,
    placements: Sequence[np.ndarray],
) -> list[RoundTrace]:
    """One :class:`RoundTrace` per executed round of ``program``.

    Every placement's flows of a round run as one merged round, as the
    ``round`` backend prices them; durations are that backend's
    ``per_round`` seconds, repeats are expanded, and each round starts
    where the previous one ended.
    """
    cores_list = [np.asarray(c, dtype=np.int64) for c in placements]
    costs = get_backend("round").run(program, topology, cores_list).per_round
    traces: list[RoundTrace] = []
    clock = 0.0
    for rnd, cost in zip(program.rounds, costs):
        level = _bottleneck_level(
            topology,
            np.concatenate([c[rnd.src] for c in cores_list]),
            np.concatenate([c[rnd.dst] for c in cores_list]),
            np.tile(rnd.nbytes_per_flow(), len(cores_list)),
        )
        for _ in range(cost.repeat):
            traces.append(
                RoundTrace(len(traces), clock, cost.seconds, cost.n_flows, level)
            )
            clock += cost.seconds
    return traces


def _bottleneck_level(
    topo: MachineTopology, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray
) -> str:
    """Name of the level whose capacity limits a round's slowest flow.

    ``src``/``dst`` are the round's core-space flows and ``nbytes`` their
    payloads.
    """
    lca = topo.lca_level(src, dst)
    live = lca < topo.depth
    if not live.any():
        return "none"
    # Re-derive the slowest flow and its binding level.
    src, dst, lca, nb = src[live], dst[live], lca[live], nbytes[live]
    best_level = "none"
    worst_time = -1.0
    # Scalar pass over a bounded set (levels x flows is small in traces).
    counts: dict[tuple[int, int, bool], int] = {}
    strides = topo.strides
    for level in range(topo.depth):
        m = lca <= level
        for s in src[m]:
            key = (level, int(s) // strides[level], True)
            counts[key] = counts.get(key, 0) + 1
        for d in dst[m]:
            key = (level, int(d) // strides[level], False)
            counts[key] = counts.get(key, 0) + 1
    for i in range(src.size):
        share = np.inf
        binding = 0
        for level in range(int(lca[i]), topo.depth):
            cap = topo.link_bw[level]
            n = max(
                counts[(level, int(src[i]) // strides[level], True)],
                counts[(level, int(dst[i]) // strides[level], False)],
            )
            if cap / n < share:
                share = cap / n
                binding = level
        t = topo.hop_latency(np.array([lca[i]]))[0] + nb[i] / share
        if t > worst_time:
            worst_time = t
            best_level = topo.hierarchy.names[binding]
    return best_level


def ascii_timeline(
    traces: Sequence[RoundTrace], width: int = 64, label: str = "round"
) -> str:
    """Render round traces as a proportional ASCII strip."""
    if not traces:
        return "(empty trace)"
    total = traces[-1].start + traces[-1].duration
    lines = [f"total {total * 1e3:.3f} ms over {len(traces)} {label}s"]
    for t in traces:
        frac = t.duration / total if total else 0.0
        bar = "#" * max(1, int(round(frac * width)))
        lines.append(
            f"{t.index:>4} |{bar:<{width}}| {t.duration * 1e6:8.1f} us  "
            f"{t.n_flows:>5} flows  [{t.bottleneck_level}]"
        )
    return "\n".join(lines)


# -- serialization -----------------------------------------------------------
#
# The sweep engine's on-disk cache stores evaluated results as JSON; round
# traces ride along so cached evaluations keep their narration.  The format
# is a plain list of dicts (one per round) so any JSON reader can consume
# BENCH artifacts without importing this package.


def traces_to_jsonable(traces: Sequence[RoundTrace]) -> list[dict]:
    """Render round traces as JSON-serializable dicts (lossless)."""
    return [
        {
            "index": t.index,
            "start": t.start,
            "duration": t.duration,
            "n_flows": t.n_flows,
            "bottleneck_level": t.bottleneck_level,
        }
        for t in traces
    ]


def traces_from_jsonable(data: Sequence[dict]) -> list[RoundTrace]:
    """Inverse of :func:`traces_to_jsonable`."""
    return [
        RoundTrace(
            index=int(d["index"]),
            start=float(d["start"]),
            duration=float(d["duration"]),
            n_flows=int(d["n_flows"]),
            bottleneck_level=str(d["bottleneck_level"]),
        )
        for d in data
    ]
