"""Cross-validation: fast round model vs exact max-min DES.

DESIGN.md's two-model decision requires that the bottleneck fair-share
approximation matches the exact progressive-filling result whenever all
flows in a round carry equal bytes (the round-structured collective
case), and stays close otherwise.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.collectives.allgather import ring_program, ring_rounds
from repro.collectives.allreduce import ring_program as allreduce_ring_program
from repro.collectives.allreduce import ring_rounds as allreduce_ring_rounds
from repro.collectives.alltoall import pairwise_program, pairwise_rounds
from repro.ir import CommProgram, CommRound, from_rounds, get_backend
from repro.netsim.flows import Flow, FlowNetwork
from repro.simmpi import Comm, Simulator
from repro.topology.machines import generic_cluster, hydra


def _round_time(topo, src, dst, nbytes) -> float:
    """One core-space round's duration under the round backend."""
    program = CommProgram(topo.n_cores, (CommRound(src, dst, nbytes),))
    cores = np.arange(topo.n_cores)
    return get_backend("round").run(program, topo, [cores]).per_round[0].seconds


def _program_time(topo, rounds, cores) -> float:
    cores = np.asarray(cores)
    program = from_rounds(rounds, n_ranks=cores.size)
    return get_backend("round").run(program, topo, [cores]).time


def test_equal_size_round_matches_exact_maxmin():
    topo = generic_cluster((2, 2, 4), names=("node", "socket", "core"))
    net = FlowNetwork(topo)
    src = np.array([0, 1, 4, 8])
    dst = np.array([8, 9, 12, 0])
    nbytes = 10e6
    t_fast = _round_time(topo, src, dst, nbytes)
    rates = net.max_min_rates([Flow(int(s), int(d), nbytes) for s, d in zip(src, dst)])
    lats = [net.latency(int(s), int(d)) for s, d in zip(src, dst)]
    t_exact = max(l + nbytes / r for l, r in zip(lats, rates))
    # With equal sizes, the slowest flow's bottleneck share equals its
    # max-min rate, so the two models agree exactly.
    assert t_fast == pytest.approx(t_exact, rel=1e-9)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_fast_model_never_beats_exact_maxmin(data):
    """Bottleneck fair share under-estimates each flow's rate, so the
    fast model's round time upper-bounds the exact makespan of the
    slowest flow."""
    topo = generic_cluster((2, 2, 4), names=("node", "socket", "core"))
    net = FlowNetwork(topo)
    n = data.draw(st.integers(2, 8))
    pairs = []
    for _ in range(n):
        s = data.draw(st.integers(0, 15))
        d = data.draw(st.integers(0, 15))
        pairs.append((s, d))
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    nbytes = 1e6
    live = src != dst
    if not live.any():
        return
    t_fast = _round_time(topo, src, dst, nbytes)
    flows = [Flow(int(s), int(d), nbytes) for s, d in zip(src[live], dst[live])]
    rates = net.max_min_rates(flows)
    lats = [net.latency(f.src, f.dst) for f in flows]
    t_exact = max(l + nbytes / r for l, r in zip(lats, rates))
    assert t_fast >= t_exact * (1 - 1e-9)


@pytest.mark.parametrize("p,cores", [(8, range(8)), (8, range(0, 64, 8))])
def test_ring_allgather_des_vs_round_model(p, cores):
    topo = hydra(2)
    cores = list(cores)
    total = 1e6
    comms = Comm.world(p)
    sim = Simulator(topo, cores)
    block = np.zeros(int(total) // p // 8)
    sim.run({r: ring_program(comms[r], block) for r in range(p)})
    t_des = max(sim.finish_times.values())
    t_fast = _program_time(topo, ring_rounds(p, total), cores)
    assert t_fast == pytest.approx(t_des, rel=0.3)


def test_pairwise_alltoall_des_vs_round_model():
    topo = hydra(2)
    p = 8
    cores = list(range(0, 32, 4))
    total = 2e6
    comms = Comm.world(p)
    sim = Simulator(topo, cores)
    sendbuf = np.zeros((p, int(total) // p // p // 8))
    sim.run({r: pairwise_program(comms[r], sendbuf.copy()) for r in range(p)})
    t_des = max(sim.finish_times.values())
    t_fast = _program_time(topo, pairwise_rounds(p, total), cores)
    assert t_fast == pytest.approx(t_des, rel=0.3)


def test_ring_allreduce_des_vs_round_model():
    topo = hydra(2)
    p = 8
    cores = list(range(p))
    total = 4e6
    comms = Comm.world(p)
    sim = Simulator(topo, cores)
    vec = np.zeros(int(total) // p // 8)
    sim.run({r: allreduce_ring_program(comms[r], vec.copy()) for r in range(p)})
    t_des = max(sim.finish_times.values())
    t_fast = _program_time(topo, allreduce_ring_rounds(p, total), cores)
    assert t_fast == pytest.approx(t_des, rel=0.3)


MACHINES = [
    generic_cluster((2, 2, 4), names=("node", "socket", "core")),
    generic_cluster((2, 2, 2, 2, 2)),
    generic_cluster((3, 2, 2), names=("node", "socket", "core")),
    dataclasses.replace(generic_cluster((4, 2, 2)), root_bw=2e10),
]
PAYLOADS = st.floats(0.0, 1e7, allow_nan=False)


@st.composite
def des_rounds(draw):
    """A machine, distinct cores for ``p`` ranks, and a program of 1-3
    rounds whose src/dst patterns include self-flows and whose payloads
    are scalar or per flow; no compute."""
    topo = draw(st.sampled_from(MACHINES))
    p = draw(st.integers(2, min(topo.n_cores, 12)))
    cores = np.array(draw(st.permutations(range(topo.n_cores)))[:p], dtype=np.int64)
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 2 * p))
        src = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        dst = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            nbytes: float | np.ndarray = draw(PAYLOADS)
        else:
            nbytes = np.array(draw(st.lists(PAYLOADS, min_size=n, max_size=n)))
        rounds.append(CommRound(np.array(src), np.array(dst), nbytes))
    return topo, cores, CommProgram(p, tuple(rounds))


@seed(20231112)
@given(des_rounds())
@settings(max_examples=60, deadline=None)
def test_round_bounds_des_per_round(case):
    """Every flow's max-min rate is at least its bottleneck fair share at
    every instant, so each round the DES times on a fresh clock ends no
    later than the round model's prediction for it."""
    topo, cores, program = case
    result = get_backend("des").run(program, topo, [cores])
    assert len(result.per_round) == len(program.rounds)
    for cost in result.per_round:
        assert cost.model_seconds >= cost.seconds * (1 - 1e-9), cost
