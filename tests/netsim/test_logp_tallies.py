"""logp coefficients from link tallies equal the per-flow share maxima.

A logp coefficient miss reduces each ``(placement set, pattern)`` unit's
per-component link loads to its two maxima
(:meth:`~repro.netsim.fabric.Fabric.tally_coefficients`).  The oracle is
the per-flow definition: place the pattern, run
``Fabric.fair_shares(..., inverse=True)`` on it alone and keep
``(lat.max(), inv_share.max())`` (:data:`NO_FLOWS` without live flows).
The two must agree byte for byte.  Machines draw per-level latencies and
bandwidths independently, so neither is monotone in depth, and some
carry a binding ``root_bw``; patterns are self-flows only, partly
self-flows or all crossing; placements repeat cores and run several
instances at once; and every case also runs with the chunk bound at 1,
so each unit is a chunk of its own.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.ir import create_backend  # noqa: E402
from repro.ir.backends import _pattern_table, _placed_patterns  # noqa: E402
from repro.ir.program import CommProgram, CommRound  # noqa: E402
from repro.netsim.fabric import NO_FLOWS, Fabric  # noqa: E402
from repro.topology.machine import LevelParams, MachineTopology  # noqa: E402

BANDWIDTHS = [1e9, 4e9, 12.5e9, 25e9, 100e9]
LATENCIES = [0.1e-6, 0.3e-6, 1e-6, 2.5e-6]
#: 0 is non-blocking; 2e9 binds below every level's bandwidth but 1e9.
ROOT_BWS = [0.0, 2e9, 50e9]


def per_flow_maxima(topology, table, cores_list) -> np.ndarray:
    """``(P, 2)``: each pattern's ``(lat.max(), inv_share.max())`` over
    its placed live flows, one pattern per ``fair_shares`` pass."""
    fabric = Fabric(topology)
    rows = []
    for pattern in _placed_patterns(table, cores_list, range(len(table.patterns))):
        _, lat, inv_share = next(fabric.fair_shares([pattern], inverse=True))
        rows.append((lat.max(), inv_share.max()) if lat.size else NO_FLOWS)
    return np.array(rows, dtype=float).reshape(len(rows), 2)


@st.composite
def cases(draw):
    depth = draw(st.integers(1, 4))
    radices = draw(st.lists(st.integers(2, 4), min_size=depth, max_size=depth))
    levels = tuple(
        LevelParams(
            f"l{i}",
            radix,
            draw(st.sampled_from(BANDWIDTHS)),
            draw(st.sampled_from(LATENCIES)),
            0,
        )
        for i, radix in enumerate(radices)
    )
    topology = MachineTopology("drawn", levels, root_bw=draw(st.sampled_from(ROOT_BWS)))
    n_cores = topology.n_cores
    p = draw(st.integers(1, min(n_cores, 8)))
    ranks = st.integers(0, p - 1)

    def pattern():
        src = draw(st.lists(ranks, min_size=1, max_size=2 * p))
        kind = draw(st.sampled_from(["self", "partly", "crossing"]))
        if kind == "self":
            dst = list(src)
        else:
            dst = draw(st.lists(ranks, min_size=len(src), max_size=len(src)))
            if kind == "partly":
                dst[0] = src[0]
        return CommRound(np.array(src), np.array(dst), 1e3)

    program = CommProgram(p, tuple(pattern() for _ in range(draw(st.integers(1, 5)))))
    instance = st.one_of(
        st.permutations(range(n_cores)).map(lambda cores: np.array(cores[:p])),
        # Ranks sharing cores: self-flows that only some placements have.
        st.lists(st.integers(0, n_cores - 1), min_size=p, max_size=p).map(np.array),
    )
    sets = draw(
        st.lists(st.lists(instance, min_size=1, max_size=3), min_size=1, max_size=4)
    )
    return topology, program, sets


@seed(29)
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_tallies_equal_per_flow_maxima(case):
    topology, program, sets = case
    table = _pattern_table(program)
    want = [per_flow_maxima(topology, table, cores_list).tobytes() for cores_list in sets]
    for limit in (Fabric.STACK_FLOWS, 1):
        with mock.patch.object(Fabric, "STACK_FLOWS", limit):
            got = create_backend("logp")._pattern_structures(table, topology, sets)
        assert got.shape == (len(sets), len(table.patterns), 2)
        assert [row.tobytes() for row in got] == want


def test_binding_root_and_outer_first_level():
    """One flow meets at the root, where the latency is the smallest of
    the machine and ``root_bw`` is the binding capacity: ``alpha`` is
    the root level's latency, not the slower inner levels it also
    crosses, and ``rate_coeff`` is ``1 / root_bw``."""
    levels = (
        LevelParams("node", 2, 10e9, 0.1e-6, 0),
        LevelParams("core", 2, 10e9, 1e-6, 0),
    )
    topology = MachineTopology("t", levels, root_bw=1e9)
    program = CommProgram(2, (CommRound(np.array([0]), np.array([1]), 1e3),))
    table = _pattern_table(program)
    sets = [[np.array([0, 3])]]
    got = create_backend("logp")._pattern_structures(table, topology, sets)
    assert got[0].tolist() == [[0.1e-6, 1 / 1e9]]
    assert got[0].tobytes() == per_flow_maxima(topology, table, sets[0]).tobytes()
