"""Unit tests for execution traces and the ASCII timeline."""

import numpy as np
import pytest

from repro.ir import collective_program, get_backend
from repro.netsim.trace import RoundTrace, ascii_timeline, round_trace
from repro.topology.machines import generic_cluster

TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))


def _trace(collective, cores, nbytes, algorithm=None, placements=None):
    program = collective_program(collective, len(cores), nbytes, algorithm)
    return round_trace(program, TOPO, placements or [np.asarray(cores)])


class TestTracingFabric:
    """:func:`round_trace`: the round model's per-round narration."""

    def test_traces_every_round_including_repeats(self):
        traces = _trace("allgather", np.arange(8), 1e6, algorithm="ring")
        assert len(traces) == 7  # ring on 8 ranks: one pattern x 7
        assert [t.index for t in traces] == list(range(7))

    def test_total_matches_schedule_time(self):
        program = collective_program("alltoall", 8, 4e6, "pairwise")
        result = get_backend("round").run(program, TOPO, [np.arange(8)])
        traces = round_trace(program, TOPO, [np.arange(8)])
        total = traces[-1].start + traces[-1].duration
        assert total == pytest.approx(result.time)
        assert [t.duration for t in traces] == [c.seconds for c in result.per_round]

    def test_starts_are_cumulative(self):
        traces = _trace("alltoall", np.arange(4), 1e6, algorithm="pairwise")
        assert traces[0].start == 0.0
        for prev, cur in zip(traces, traces[1:]):
            assert cur.start == pytest.approx(prev.start + prev.duration)

    def test_bottleneck_level_names(self):
        # Cross-node flows from every core of node 0: the NIC binds.
        traces = _trace("alltoall", np.array([0, 1, 8, 9]), 32e6, algorithm="pairwise")
        levels = {t.bottleneck_level for t in traces}
        assert levels <= set(TOPO.hierarchy.names) | {"none"}
        assert "node" in levels or "core" in levels

    def test_reset(self):
        # Every call starts a fresh clock; nothing carries over.
        first = _trace("alltoall", np.arange(4), 1e6)
        assert _trace("alltoall", np.arange(4), 1e6) == first

    def test_concurrent_placements_merge_each_round(self):
        placements = [np.array([0, 1, 8, 9]), np.array([2, 3, 10, 11])]
        program = collective_program("alltoall", 4, 8e6, "pairwise")
        merged = round_trace(program, TOPO, placements)
        alone = round_trace(program, TOPO, placements[:1])
        costs = get_backend("round").run(program, TOPO, placements).per_round
        assert [t.n_flows for t in merged] == [2 * t.n_flows for t in alone]
        assert [t.duration for t in merged] == [c.seconds for c in costs]
        # Both instances cross the node boundary: their flows share the
        # nodes' uplinks, so the merged rounds are no faster.
        assert all(m.duration >= a.duration for m, a in zip(merged, alone))


class TestTimeline:
    def test_renders_bars(self):
        traces = [
            RoundTrace(0, 0.0, 1e-3, 8, "node"),
            RoundTrace(1, 1e-3, 2e-3, 8, "core"),
        ]
        text = ascii_timeline(traces, width=20)
        lines = text.splitlines()
        assert "total 3.000 ms" in lines[0]
        assert "[node]" in lines[1]
        assert lines[2].count("#") > lines[1].count("#")

    def test_empty(self):
        assert ascii_timeline([]) == "(empty trace)"
