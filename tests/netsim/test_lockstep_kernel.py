"""Oracle properties of the direct lockstep round kernel.

The ``des`` backend times lockstep rounds with
:func:`repro.netsim.lockstep.run_round` instead of one
:class:`~repro.simmpi.runtime.Simulator` per round.  The simulator stays
the oracle: on random machines, placements, flow patterns, payloads and
compute, the kernel must give the same round times and the same flow
records, field for field and in the same order.  The completion-burst
deferral, shared by both, must leave every trajectory bitwise equal to
the from-scratch, solve-on-every-change run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import CommProgram, CommRound, create_backend, get_backend
from repro.ir.lower import rank_program, round_endpoints
from repro.netsim.flows import KERNEL_STATS, FlowNetwork
from repro.netsim.lockstep import post_order, run_round
from repro.simmpi import Comm, Simulator
from repro.simmpi.runtime import FlowRecord
from repro.topology.machines import generic_cluster

TOPOS = (
    generic_cluster((2, 2, 4), names=("node", "socket", "core")),
    generic_cluster((2, 2, 2, 2, 2)),
    generic_cluster((3, 2, 2), names=("node", "socket", "core")),
)

PAYLOADS = (0.0, 1.0, 1e3, 65536.0, 1e6)


@st.composite
def rounds(draw, p):
    """One round over ``p`` ranks: a shift, an XOR or a random pattern."""
    kind = draw(st.sampled_from(("shift", "xor", "random")))
    if kind == "shift":
        src = np.arange(p)
        dst = (src + draw(st.integers(0, p - 1))) % p  # shift 0: self-flows
    elif kind == "xor":
        src = np.arange(p)
        dst = src ^ draw(st.integers(0, 7))
        src, dst = src[dst < p], dst[dst < p]
    else:  # duplicates, self-flows and empty rounds all occur
        n = draw(st.integers(0, 2 * p))
        src = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        dst = np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        nbytes: float | np.ndarray = draw(st.sampled_from(PAYLOADS))
    else:
        nbytes = np.array(
            draw(st.lists(st.sampled_from(PAYLOADS), min_size=src.size, max_size=src.size)),
            dtype=float,
        )
    compute = draw(st.sampled_from((0.0, 0.0, 1e-6, 2.5e-3)))
    repeat = draw(st.integers(1, 3))
    return CommRound(src.astype(np.int64), dst.astype(np.int64), nbytes, repeat, compute)


@st.composite
def cases(draw):
    topo = draw(st.sampled_from(TOPOS))
    p = draw(st.integers(1, min(topo.n_cores, 16)))
    if draw(st.booleans()):  # ranks may share a core
        cores = draw(st.lists(st.integers(0, topo.n_cores - 1), min_size=p, max_size=p))
    else:
        cores = draw(st.permutations(range(topo.n_cores)))[:p]
    program = CommProgram(p, tuple(draw(st.lists(rounds(p), min_size=1, max_size=3))))
    return topo, np.array(cores, dtype=np.int64), program


def simulator_lockstep(program, topology, cores):
    """The reference: every round in a fresh simulator on one network,
    records shifted onto the accumulated timeline."""
    net = FlowNetwork(topology)
    comms = Comm.world(program.n_ranks)
    total, seconds, records = 0.0, [], []
    for spec in program.rounds:
        local: list[FlowRecord] = []
        sends, recvs = round_endpoints(spec, 0)
        sim = Simulator(topology, cores, listeners=[local.append], network=net)
        sim.run(
            {
                r: rank_program(comms[r], sends, recvs, spec.compute)
                for r in range(program.n_ranks)
            }
        )
        records += [
            (rec.src_rank, rec.dst_rank, rec.src_core, rec.dst_core, rec.nbytes,
             rec.start + total, rec.end + total, rec.key[1])
            for rec in local
        ]
        t_one = max(sim.finish_times.values(), default=0.0)
        seconds.append(t_one)
        total += t_one * spec.repeat
    return total, seconds, records


def fields(records):
    """Every record field, the key's process-wide comm id aside."""
    return [
        (r.src_rank, r.dst_rank, r.src_core, r.dst_core, r.nbytes, r.start, r.end, r.key[1])
        for r in records
    ]


@given(cases(), st.sampled_from(("memo", "cold", "from-scratch")))
def test_kernel_equals_per_round_simulator(case, how):
    topo, cores, program = case
    if how == "memo":  # the shared network and its per-topology round memo
        result = get_backend("des").run(program, topo, [cores])
    else:
        net = FlowNetwork(topo, incremental=how == "cold", audit=how == "cold")
        result = get_backend("des").run(program, topo, [cores], network=net)
    total, seconds, records = simulator_lockstep(program, topo, cores)
    assert result.time == total
    assert [c.seconds for c in result.per_round] == seconds
    assert fields(result.records) == records
    assert len({r.key[0] for r in result.records}) <= 1


@given(cases())
def test_kernel_makes_the_simulators_rate_calls(case):
    """Same ``apply_rates`` stream, so recorders see every call."""
    topo, cores, program = case
    spec = program.rounds[0]
    streams = []
    for use_kernel in (False, True):
        net = FlowNetwork(topo)
        calls: list = []
        apply = net.apply_rates
        net.apply_rates = lambda flows: (  # type: ignore[method-assign]
            calls.append([(f.src, f.dst) for f in flows]),
            apply(flows),
        )
        if use_kernel:
            order = post_order(spec.src, spec.dst)
            nbytes = spec.nbytes_per_flow()[order]
            net.round_memo.clear()
            run_round(
                net, cores[spec.src][order], cores[spec.dst][order], nbytes, spec.compute
            )
        else:
            comms = Comm.world(program.n_ranks)
            sends, recvs = round_endpoints(spec, 0)
            Simulator(topo, cores, network=net).run(
                {
                    r: rank_program(comms[r], sends, recvs, spec.compute)
                    for r in range(program.n_ranks)
                }
            )
        streams.append(calls)
    assert streams[0] == streams[1]


@given(cases())
def test_simulator_deferral_equals_from_scratch(case):
    """Both deferrals change cost, never the trajectory: a pipelined run
    equals the solve-on-every-change run bitwise."""
    topo, cores, program = case
    des = get_backend("des")
    lazy = des.run(program, topo, [cores], mode="pipelined")
    eager = des.run(program, topo, [cores], mode="pipelined", incremental=False)
    assert lazy.time == eager.time
    assert fields(lazy.records) == fields(eager.records)


def pairwise_alltoall(p=16, nbytes=1e6):
    from repro.ir import collective_program

    return collective_program("alltoall", p, nbytes, "pairwise")


def test_completion_deferrals_rise_on_pairwise_alltoall():
    topo = TOPOS[1]
    net = FlowNetwork(topo)
    net.round_memo.clear()
    before = KERNEL_STATS.to_jsonable()
    get_backend("des").run(pairwise_alltoall(), topo, [np.arange(16)], network=net)
    after = KERNEL_STATS.to_jsonable()
    assert after["completion_deferrals"] > before["completion_deferrals"]
    assert after["deferrals"] > before["deferrals"]


def test_zero_capacity_link_disables_completion_deferral():
    topo = TOPOS[1]
    src = np.arange(16)
    dst = (src + 3) % 16
    order = post_order(src, dst)
    flows = (src[order], dst[order], np.full(16, 1e6), 0.0)
    healthy = FlowNetwork(topo, audit=True)  # audited: no round memo
    bursts = KERNEL_STATS.completion_deferrals
    expected = run_round(healthy, *flows)
    assert KERNEL_STATS.completion_deferrals > bursts
    # Stall a link no flow of the round crosses (cores 0-15 stay on the
    # first half of the machine): the times hold, the deferral is off.
    stalled = FlowNetwork(topo)
    stalled.set_link_faults([(0, 1, 0.0, 1.0)])
    assert stalled.min_capacity == 0.0 and not stalled.healthy
    bursts = KERNEL_STATS.completion_deferrals
    got = run_round(stalled, *flows)
    assert KERNEL_STATS.completion_deferrals == bursts
    assert got.seconds == expected.seconds
    assert got.ends.tolist() == expected.ends.tolist()
    comms = Comm.world(16)
    sends, recvs = round_endpoints(CommRound(src, dst, 1e6), 0)
    Simulator(topo, np.arange(16), network=stalled).run(
        {r: rank_program(comms[r], sends, recvs) for r in range(16)}
    )
    assert KERNEL_STATS.completion_deferrals == bursts


def test_stalled_round_is_an_error():
    topo = TOPOS[1]
    net = FlowNetwork(topo)
    net.set_link_faults([(0, 0, 0.0, 1.0)])
    with pytest.raises(RuntimeError, match="never complete"):
        run_round(net, np.array([0]), np.array([16]), np.array([1e6]), 0.0)


def test_healthy_lockstep_constructs_no_simulator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lockstep built a Simulator")

    monkeypatch.setattr(Simulator, "__init__", refuse)
    result = create_backend("des").run(pairwise_alltoall(8), TOPOS[0], [np.arange(8)])
    assert result.time > 0 and len(result.records) == 8 * 7


class TestRoundMemo:
    def _run(self, topo, program, cores, **options):
        return get_backend("des").run(program, topo, [cores], **options)

    def test_hit_rebuilds_records(self):
        topo = TOPOS[0]
        program = pairwise_alltoall(8, 4096.0)
        cores = np.arange(8)
        FlowNetwork(topo).round_memo.clear()
        cold = self._run(topo, program, cores)
        events = KERNEL_STATS.sim_events
        warm = self._run(topo, program, cores)
        assert KERNEL_STATS.sim_events == events  # every round was a hit
        assert warm.time == cold.time
        assert fields(warm.records) == fields(cold.records)

    @pytest.mark.parametrize(
        "options", [dict(audit=True), dict(incremental=False)], ids=["audit", "scratch"]
    )
    def test_only_on_incremental_unaudited_networks(self, options):
        topo = TOPOS[0]
        memo = FlowNetwork(topo).round_memo
        memo.clear()
        self._run(topo, pairwise_alltoall(8), np.arange(8), **options)
        assert not memo

    def test_not_on_a_faulted_network(self):
        topo = TOPOS[0]
        net = FlowNetwork(topo)
        net.round_memo.clear()
        net.set_link_faults([(1, 0, 0.5, 1.0)])
        self._run(topo, pairwise_alltoall(8), np.arange(8), network=net)
        assert not net.round_memo

    def test_lru_bounded(self, monkeypatch):
        import repro.netsim.lockstep as lockstep

        monkeypatch.setattr(lockstep, "ROUND_MEMO_LIMIT", 3)
        topo = TOPOS[0]
        memo = FlowNetwork(topo).round_memo
        memo.clear()
        self._run(topo, pairwise_alltoall(8), np.arange(8))  # 7 distinct rounds
        assert len(memo) == 3
        memo.clear()
