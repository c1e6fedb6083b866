"""Unit tests for the execution-backend registry (repro.ir.backends)."""

import numpy as np
import pytest

from repro.ir import (
    CommProgram,
    CommRound,
    backend_names,
    collective_program,
    create_backend,
    describe_backends,
    get_backend,
)
from repro.topology.machines import generic_cluster
from tests.ir.round_oracle import oracle_time, round_times

TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))


class TestRegistry:
    def test_three_backends_registered(self):
        assert backend_names() == ("des", "logp", "round")

    def test_get_backend_is_a_singleton(self):
        assert get_backend("round") is get_backend("round")

    def test_create_backend_is_fresh(self):
        assert create_backend("logp") is not create_backend("logp")
        assert create_backend("logp") is not get_backend("logp")

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="unknown backend 'x'.*des, logp, round"):
            create_backend("x")

    def test_capability_flags(self):
        caps = dict(describe_backends())
        assert caps["round"].tolerance == "exact"
        assert not caps["round"].faults
        assert caps["des"].faults and caps["des"].per_flow_contention
        assert caps["logp"].tolerance == "advisory"
        assert caps["des"].describe() == "faults,per-flow,exact"

    def test_empty_placements_rejected(self):
        prog = collective_program("alltoall", 4, 1e4)
        with pytest.raises(ValueError, match="at least one placement"):
            get_backend("round").run(prog, TOPO, [])


class TestRoundBackend:
    def test_matches_placed_schedule_total(self):
        prog = collective_program("alltoall", 8, 1e6)
        cores = np.arange(8)
        result = get_backend("round").run(prog, TOPO, [cores])
        assert result.time == oracle_time(prog, TOPO, [cores])
        assert [c.seconds for c in result.per_round] == round_times(prog, TOPO, [cores])
        assert result.backend == "round"
        assert len(result.per_round) == prog.n_distinct_rounds

    def test_merges_concurrent_placements(self):
        prog = collective_program("alltoall", 4, 1e6)
        one = get_backend("round").run(prog, TOPO, [np.arange(4)]).time
        both = get_backend("round").run(
            prog, TOPO, [np.arange(4), np.arange(4, 8)]
        ).time
        assert both >= one

    def test_adds_per_round_compute(self):
        rnd = CommRound([0], [1], 1e4, repeat=3, compute=1e-3)
        prog = CommProgram(2, (rnd,))
        base = CommProgram(2, (CommRound([0], [1], 1e4, repeat=3),))
        eng = get_backend("round")
        delta = eng.run(prog, TOPO, [np.arange(2)]).time - eng.run(
            base, TOPO, [np.arange(2)]
        ).time
        assert delta == pytest.approx(3e-3)

    def test_fabric_cache_shared_per_topology(self):
        eng = create_backend("round")
        assert eng.fabric(TOPO) is eng.fabric(TOPO)


class TestDESBackend:
    def test_lockstep_reports_model_cross_check(self):
        prog = collective_program("allgather", 4, 1e5, "ring")
        result = get_backend("des").run(prog, TOPO, [np.arange(4)])
        assert result.backend == "des"
        assert result.records  # flow trace captured
        expected = round_times(prog, TOPO, [np.arange(4)])
        assert [c.model_seconds for c in result.per_round] == expected

    def test_matches_replay_rounds_des(self):
        from repro.collectives.selector import rounds_for
        from repro.verify.differential import replay_rounds_des

        cores = np.arange(8)
        rounds = rounds_for("alltoall", 8, 1e5, "pairwise")
        t, timings, _ = replay_rounds_des(TOPO, cores, rounds)
        prog = collective_program("alltoall", 8, 1e5, "pairwise")
        result = get_backend("des").run(prog, TOPO, [cores])
        assert result.time == t
        assert [c.seconds for c in result.per_round] == [x.t_des for x in timings]

    def test_pipelined_mode(self):
        prog = collective_program("allgather", 4, 1e5, "ring")
        result = get_backend("des").run(prog, TOPO, [np.arange(4)], mode="pipelined")
        assert result.time > 0
        assert result.per_round == ()  # no round boundaries to time

    def test_unknown_mode_rejected(self):
        prog = collective_program("allgather", 4, 1e5, "ring")
        with pytest.raises(ValueError, match="unknown replay mode"):
            get_backend("des").run(prog, TOPO, [np.arange(4)], mode="warp")

    def test_pipelined_fault_schedule_matches_direct_simulator(self):
        from repro.faults.model import FaultSchedule, FaultSpec
        from repro.ir.lower import rank_program, round_endpoints
        from repro.simmpi import Comm, Simulator

        prog = collective_program("alltoall", 8, 1e6, "pairwise")
        cores = np.arange(0, 16, 2)  # both nodes
        schedule = FaultSchedule(
            (
                FaultSpec(
                    "link_degrade", start=1e-6, target=0, level=0, end=1e-4,
                    bw_factor=0.25, lat_factor=2.0,
                ),
            )
        )
        des = get_backend("des")
        result = des.run(prog, TOPO, [cores], mode="pipelined", fault_schedule=schedule)
        healthy = des.run(prog, TOPO, [cores], mode="pipelined")
        assert result.time > healthy.time  # the fault bites

        endpoints = [
            round_endpoints(spec, i * spec.src.size) for i, spec in enumerate(prog.rounds)
        ]

        def program(comm):
            for spec, (sends, recvs) in zip(prog.rounds, endpoints):
                for _ in range(spec.repeat):
                    yield from rank_program(comm, sends, recvs, spec.compute)

        records = []
        comms = Comm.world(8)
        sim = Simulator(TOPO, cores, listeners=[records.append], fault_schedule=schedule)
        sim.run({r: program(comms[r]) for r in range(8)})
        assert result.time == max(sim.finish_times.values())

        def fields(recs):
            return [
                (r.src_rank, r.dst_rank, r.src_core, r.dst_core, r.nbytes, r.start, r.end)
                for r in recs
            ]

        assert fields(result.records) == fields(records)

    def test_fault_schedule_refusals(self):
        from repro.faults.model import FaultSchedule, FaultSpec
        from repro.netsim.flows import FlowNetwork

        prog = collective_program("allgather", 4, 1e5, "ring")
        schedule = FaultSchedule((FaultSpec("link_degrade", start=0.0, target=0),))
        des = get_backend("des")
        with pytest.raises(ValueError, match="lockstep mode cannot run a fault schedule"):
            des.run(prog, TOPO, [np.arange(4)], fault_schedule=schedule)
        with pytest.raises(ValueError, match="network of its own"):
            des.run(
                prog, TOPO, [np.arange(4)], mode="pipelined",
                fault_schedule=schedule, network=FlowNetwork(TOPO),
            )
        # An empty schedule is no schedule, in either mode.
        for mode in ("lockstep", "pipelined"):
            plain = des.run(prog, TOPO, [np.arange(4)], mode=mode)
            empty = des.run(
                prog, TOPO, [np.arange(4)], mode=mode, fault_schedule=FaultSchedule()
            )
            assert empty.time == plain.time

    def test_concurrent_placements_offset_concatenated(self):
        prog = collective_program("alltoall", 4, 1e5, "pairwise")
        eng = get_backend("des")
        one = eng.run(prog, TOPO, [np.arange(4)])
        both = eng.run(prog, TOPO, [np.arange(4), np.arange(4, 8)])
        assert both.time >= one.time
        # every flow of both instances lands in the combined trace
        assert len(both.records) == 2 * len(one.records)
        # the cross-check prices the merged round of both instances
        merged = round_times(prog, TOPO, [np.arange(4), np.arange(4, 8)])
        assert [c.model_seconds for c in both.per_round] == merged


class TestLogPBackend:
    def test_monotone_in_payload(self):
        eng = create_backend("logp")
        cores = np.arange(8)
        times = [
            eng.run(collective_program("alltoall", 8, s, "pairwise"), TOPO, [cores]).time
            for s in (1e4, 1e5, 1e6)
        ]
        assert times[0] < times[1] < times[2]

    def test_structure_cached_across_sizes(self):
        eng = create_backend("logp")
        cores = np.arange(8)
        for s in (1e4, 1e5, 1e6):
            eng.run(collective_program("alltoall", 8, s, "pairwise"), TOPO, [cores])
        # pairwise alltoall on 8 ranks: 7 distinct patterns, cached once
        # each despite 3 payload sizes, in the topology's fabric.
        assert len(eng.fabric(TOPO)._coefficients) == 7

    def test_self_flows_cost_nothing(self):
        prog = CommProgram(2, (CommRound([0, 1], [0, 1], 1e6),))
        assert create_backend("logp").run(prog, TOPO, [np.arange(2)]).time == 0.0

    def test_heterogeneous_payloads_dominate_uniform(self):
        """An array payload equal to the scalar gives the same per-level
        load; inflating one flow can only slow the round down."""
        src = np.arange(4)
        dst = (src + 1) % 4
        uniform = CommProgram(4, (CommRound(src, dst, 1e6),))
        same = CommProgram(4, (CommRound(src, dst, np.full(4, 1e6)),))
        skewed_nb = np.full(4, 1e6)
        skewed_nb[0] = 8e6
        skewed = CommProgram(4, (CommRound(src, dst, skewed_nb),))
        eng = create_backend("logp")
        cores = np.arange(0, 16, 4)  # spread across nodes
        t_u = eng.run(uniform, TOPO, [cores]).time
        t_s = eng.run(same, TOPO, [cores]).time
        t_k = eng.run(skewed, TOPO, [cores]).time
        assert t_s == pytest.approx(t_u, rel=1e-12)
        assert t_k > t_u

    def test_compute_accounted(self):
        rnd = CommRound([0], [1], 1e4, compute=1e-3)
        prog = CommProgram(2, (rnd,))
        base = CommProgram(2, (CommRound([0], [1], 1e4),))
        eng = create_backend("logp")
        delta = eng.run(prog, TOPO, [np.arange(2)]).time - eng.run(
            base, TOPO, [np.arange(2)]
        ).time
        assert delta == pytest.approx(1e-3)


class TestBackendErrorLabels:
    def test_deadlock_names_backend(self):
        from repro.simmpi import Comm, DeadlockError, Simulator

        def starved(c):
            yield c.recv(1 - c.rank, tag=7)

        comms = Comm.world(2)
        sim = Simulator(TOPO, np.arange(2))
        with pytest.raises(DeadlockError, match=r"\[des backend\]"):
            sim.run({r: starved(comms[r]) for r in range(2)})

    def test_custom_backend_label(self):
        from repro.simmpi import Comm, DeadlockError, Simulator

        def starved(c):
            yield c.recv(1 - c.rank, tag=7)

        comms = Comm.world(2)
        sim = Simulator(TOPO, np.arange(2), backend="mybackend")
        with pytest.raises(DeadlockError, match=r"\[mybackend backend\]"):
            sim.run({r: starved(comms[r]) for r in range(2)})

    def test_event_cap_names_backend(self):
        from repro.netsim.engine import EventQueue, run_until_idle

        q = EventQueue()

        def forever(time, payload):
            q.push(time + 1, payload)

        q.push(0.0, "x")
        with pytest.raises(RuntimeError, match=r"livelock \[des backend\]"):
            run_until_idle(q, forever, max_events=50, backend="des")
