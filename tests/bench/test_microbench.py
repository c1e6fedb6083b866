"""Unit tests for the Section 4.1 micro-benchmark harness (small scale)."""

import numpy as np
import pytest

from repro.bench.microbench import (
    comm_members,
    paper_sizes,
    run_microbench,
    size_sweep,
)
from repro.core.hierarchy import Hierarchy
from repro.ir import collective_program, create_backend, get_backend
from repro.topology.machines import hydra

H = Hierarchy((4, 2, 2, 8), ("node", "socket", "group", "core"))
TOPO = hydra(4)


class TestSchedule:
    def test_schedule_respects_comm_cores(self):
        cores = np.array([0, 32, 64, 96])
        program = collective_program("alltoall", 4, 4e6, "pairwise")
        records = get_backend("des").run(program, TOPO, [cores]).records
        assert records
        for rec in records:
            assert {rec.src_core, rec.dst_core} <= set(cores.tolist())

    def test_algorithm_override(self):
        pw = collective_program("alltoall", 8, 8e6, algorithm="pairwise")
        br = collective_program("alltoall", 8, 8e6, algorithm="bruck")
        assert pw.n_rounds == 7
        assert br.n_rounds == 3


class TestRunMicrobench:
    def test_point_fields(self):
        point = run_microbench(TOPO, H, (0, 1, 2, 3), 16, "alltoall", 1e6)
        assert point.duration_single > 0
        assert point.duration_all >= point.duration_single * 0.99
        assert point.bandwidth_single == pytest.approx(1e6 / point.duration_single)

    def test_all_comms_never_faster_than_single(self):
        for order in [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 2, 0)]:
            p = run_microbench(TOPO, H, order, 16, "alltoall", 8e6)
            assert p.duration_all >= p.duration_single * 0.999

    def test_hierarchy_must_match_topology(self):
        wrong = Hierarchy((2, 2, 8))
        with pytest.raises(ValueError, match="processes"):
            run_microbench(TOPO, wrong, (2, 1, 0), 4, "alltoall", 1e6)

    def test_spread_vs_packed_shapes_small_machine(self):
        # The Figure 3 regime scaled down: 8 nodes, 16-rank comms (the
        # packed comm contends internally, the spread one does not).
        topo8, h8 = hydra(8), Hierarchy((8, 2, 2, 8))
        spread = run_microbench(topo8, h8, (0, 1, 2, 3), 16, "alltoall", 32e6)
        packed = run_microbench(topo8, h8, (3, 2, 1, 0), 16, "alltoall", 32e6)
        # One communicator: spread wins; all communicators: packed wins.
        assert spread.bandwidth_single > packed.bandwidth_single
        assert packed.bandwidth_all > spread.bandwidth_all
        # Packed is scenario-independent.
        assert packed.bandwidth_all == pytest.approx(
            packed.bandwidth_single, rel=0.05
        )

    def test_fabric_reuse_consistent(self):
        # The shared backend's warm fabric answers as a cold one does.
        a = run_microbench(TOPO, H, (0, 1, 2, 3), 16, "alltoall", 4e6)
        b = run_microbench(TOPO, H, (0, 1, 2, 3), 16, "alltoall", 4e6)
        assert a.duration_all == b.duration_all
        program = collective_program("alltoall", 16, 4e6)
        members = list(comm_members(H, (0, 1, 2, 3), 16))
        assert create_backend("round").run(program, TOPO, members).time == a.duration_all


class TestSweep:
    def test_series_structure(self):
        sizes = [1e5, 1e6, 1e7]
        s = size_sweep(TOPO, H, (1, 3, 2, 0), 32, "allgather", sizes)
        assert len(s.points) == 3
        assert s.comm_size == 32
        assert s.n_comms == 4
        assert s.signature.order == (1, 3, 2, 0)
        assert np.array_equal(s.sizes(), sizes)

    def test_bandwidth_grows_out_of_latency_regime(self):
        s = size_sweep(TOPO, H, (3, 2, 1, 0), 16, "alltoall", [1e4, 1e6, 1e8])
        bw = s.bandwidths_single()
        assert bw[2] > bw[0]

    def test_algorithm_label_reflects_selector(self):
        s = size_sweep(TOPO, H, (3, 2, 1, 0), 16, "alltoall", [1e4, 1e8])
        assert "pairwise" in s.algorithm

    def test_legend_format(self):
        s = size_sweep(TOPO, H, (0, 1, 2, 3), 16, "alltoall", [1e6])
        assert s.legend().startswith("0-1-2-3 (")


class TestCommMembersMemo:
    """Regression: a size sweep derives the comm structure once, not per
    payload size (the members table depends only on hierarchy/order/
    comm_size, so every size after the first must be a memo hit)."""

    def test_size_sweep_hits_memo_after_first_point(self):
        comm_members.cache_clear()
        sizes = paper_sizes(n=5)
        size_sweep(TOPO, H, (0, 1, 2, 3), 16, "alltoall", sizes)
        info = comm_members.cache_info()
        assert info.misses == 1  # one structural derivation for the sweep
        assert info.hits == len(sizes) - 1

    def test_distinct_orders_get_distinct_entries(self):
        comm_members.cache_clear()
        run_microbench(TOPO, H, (0, 1, 2, 3), 16, "alltoall", 1e6)
        run_microbench(TOPO, H, (3, 2, 1, 0), 16, "alltoall", 1e6)
        info = comm_members.cache_info()
        assert info.misses == 2 and info.hits == 0

    def test_members_table_is_read_only_and_correct(self):
        from repro.core.reorder import RankReordering

        members = comm_members(H, (1, 3, 2, 0), 16)
        assert not members.flags.writeable
        with pytest.raises(ValueError):
            members[0, 0] = 99
        fresh = RankReordering(H, (1, 3, 2, 0), 16).all_comm_members()
        assert np.array_equal(members, fresh)


def test_paper_sizes_span_axis():
    sizes = paper_sizes()
    assert sizes[0] == pytest.approx(16e3)
    assert sizes[-1] == pytest.approx(512e6)
    assert len(sizes) == 11
