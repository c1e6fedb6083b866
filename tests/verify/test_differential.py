"""Round model vs DES differential engine."""

import numpy as np
import pytest

from repro.collectives.base import RoundSpec
from repro.topology.machines import generic_cluster
from repro.verify import (
    compare_collective,
    compare_schedule,
    replay_rounds_des,
    seed_benchmark_suite,
)


@pytest.fixture(scope="module")
def topo():
    return generic_cluster((2, 2, 4), names=("node", "socket", "core"))


def test_seed_benchmarks_agree(topo):
    report = seed_benchmark_suite(topo)
    assert len(report.cases) == 12
    assert report.ok, report.summary()
    # Lockstep replays of the seed benchmarks agree to float precision,
    # far inside the declared tolerance.
    for case in report.cases:
        assert case.rel_err < 1e-9, case.mismatch_report()


def test_equal_byte_round_is_exact(topo):
    # One synchronized round of equal-byte flows: both models must give
    # the same duration to float precision.
    src = np.arange(8)
    dst = (src + 1) % 8
    case = compare_schedule(
        topo, np.arange(8), [RoundSpec(src, dst, 4096.0)], label="ring-step"
    )
    assert case.rel_err < 1e-9, case.mismatch_report()


def test_progressive_filling_divergence_is_measured():
    # Two flows into one receiver, very different sizes: once the small
    # flow drains, the DES gives the big flow the freed capacity, while
    # the static round model keeps the fair-share rate for the whole
    # round.  The differential must measure that gap (round > DES).
    # 1000x asymmetric flows double the round model's estimate (the static
    # fair share halves the big flow's rate for the whole round), so the
    # declared tolerance must be explicit about absorbing it.
    topo = generic_cluster((4,))
    spec = RoundSpec(np.array([0, 1]), np.array([2, 2]), np.array([1e6, 1e3]))
    case = compare_schedule(topo, np.arange(3), [spec], tolerance=1.0)
    assert case.t_round > case.t_des
    assert 0.5 < case.rel_err <= 1.0
    assert case.ok  # declared tolerance absorbs the modeling gap


def test_mismatch_report_names_the_worst_round():
    topo = generic_cluster((4,))
    spec = RoundSpec(np.array([0, 1]), np.array([2, 2]), np.array([1e6, 1e3]))
    case = compare_schedule(topo, np.arange(3), [spec], tolerance=1e-12)
    assert not case.ok
    text = case.mismatch_report()
    assert "MISMATCH" in text
    assert "round   0" in text


def test_per_round_rows_compare_the_round_model_for_every_backend():
    # Against logp, each row must set the round model's time of the round
    # beside logp's, not logp's own time twice.
    from repro.topology.machines import hydra

    spec = RoundSpec(np.array([0, 0, 0, 0, 5]), np.array([1, 2, 3, 4, 40]), 1e4)
    case = compare_schedule(hydra(2), np.arange(64), [spec], backend="logp")
    (row,) = case.rounds
    assert row.t_round == case.t_round  # one round, repeat 1
    assert row.t_des == case.t_des
    assert row.t_round < row.t_des
    assert row.rel_err == case.rel_err > 0.1


def test_pipelined_mode_runs_and_is_no_slower_to_finish(topo):
    from repro.collectives.selector import rounds_for

    rounds = rounds_for("allgather", 8, 65536.0, "ring")
    t_lock, timings, rec_lock = replay_rounds_des(topo, np.arange(8), rounds)
    t_pipe, no_timings, rec_pipe = replay_rounds_des(
        topo, np.arange(8), rounds, mode="pipelined"
    )
    assert timings and not no_timings
    # Dropping the per-round barrier can only help the makespan.
    assert t_pipe <= t_lock * (1 + 1e-9)
    # Every instance of every repeated round appears in the pipelined trace.
    assert len(rec_pipe) == sum(s.src.size * s.repeat for s in rounds)


def test_lockstep_records_share_one_timeline(topo):
    from repro.collectives.selector import rounds_for

    rounds = rounds_for("alltoall", 8, 65536.0, "pairwise")
    _t, _timings, records = replay_rounds_des(topo, np.arange(8), rounds)
    starts = [r.start for r in records]
    # Later rounds must be shifted past earlier ones, not restart at zero.
    assert max(starts) > 0
    assert all(r.end >= r.start for r in records)


def test_unknown_mode_raises(topo):
    with pytest.raises(ValueError):
        replay_rounds_des(topo, np.arange(2), [], mode="warp")


def test_compare_collective_selects_algorithm(topo):
    case = compare_collective(topo, np.arange(8), "allreduce", 1024.0)
    assert "allreduce/" in case.label
    assert case.ok, case.mismatch_report()


def test_incremental_and_reference_suites_identical(topo):
    """Memoized/deferred and per-event from-scratch replays agree bitwise."""
    inc = seed_benchmark_suite(topo)
    ref = seed_benchmark_suite(topo, incremental=False)
    assert [(c.label, c.t_round, c.t_des) for c in inc.cases] == [
        (c.label, c.t_round, c.t_des) for c in ref.cases
    ]


def test_audit_mode_cross_checks_every_solve(topo):
    """The rtol=1e-12 audit passes on the full seed suite and counts."""
    from repro.netsim.flows import KERNEL_STATS

    audits = KERNEL_STATS.audits
    report = seed_benchmark_suite(topo, audit=True)
    assert report.ok, report.summary()
    assert KERNEL_STATS.audits > audits


def test_incremental_replay_defers_and_memoizes(topo):
    """Repeated phases on a shared network exercise the reuse paths."""
    from repro.collectives.selector import rounds_for
    from repro.netsim.flows import KERNEL_STATS, FlowNetwork

    rounds = rounds_for("allgather", 8, 65536.0, "ring")
    net = FlowNetwork(topo)
    net.round_memo.clear()  # the per-topology round memo outlives networks
    deferrals = KERNEL_STATS.deferrals
    bursts = KERNEL_STATS.completion_deferrals
    t1, _, _ = replay_rounds_des(topo, np.arange(8), rounds, network=net)
    assert KERNEL_STATS.deferrals > deferrals
    assert KERNEL_STATS.completion_deferrals > bursts
    # A second replay of the same schedule is answered by the round memo:
    # no solve, no event loop.
    solves, events = KERNEL_STATS.solves, KERNEL_STATS.sim_events
    t2, _, _ = replay_rounds_des(topo, np.arange(8), rounds, network=net)
    assert t2 == t1
    assert KERNEL_STATS.solves == solves
    assert KERNEL_STATS.sim_events == events
