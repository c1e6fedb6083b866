"""Unit tests for the lowering passes (repro.ir.lower)."""

import numpy as np
import pytest

from repro.collectives.selector import rounds_for, select_algorithm
from repro.ir import (
    CommProgram,
    CommRound,
    collective_program,
    from_rounds,
    get_backend,
    round_endpoints,
    validate_program,
)
from repro.ir.backends import _pattern_table, _placed_patterns
from repro.topology.machines import generic_cluster
from repro.workloads import lower_workload
from tests.ir.round_oracle import placed_rounds


class _AdHocRound:
    """Round-like stand-in: anything with src/dst/nbytes lowers."""

    def __init__(self, src, dst, nbytes):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.nbytes = nbytes


class TestFromRounds:
    def test_accepts_roundspecs(self):
        rounds = rounds_for("alltoall", 8, 1e5, "pairwise")
        prog = from_rounds(rounds, n_ranks=8)
        assert isinstance(prog, CommProgram)
        assert prog.n_ranks == 8
        assert prog.n_distinct_rounds == len(rounds)
        for spec, rnd in zip(rounds, prog.rounds):
            np.testing.assert_array_equal(spec.src, rnd.src)
            np.testing.assert_array_equal(spec.dst, rnd.dst)
            assert rnd.repeat == spec.repeat

    def test_infers_n_ranks_from_endpoints(self):
        prog = from_rounds([_AdHocRound([0, 6], [3, 1], 8.0)])
        assert prog.n_ranks == 7

    def test_commrounds_pass_through(self):
        rnd = CommRound([0], [1], 8.0)
        assert from_rounds([rnd], n_ranks=2).rounds[0] is rnd


class TestCollectiveProgram:
    def test_matches_selector(self):
        p, size = 16, 1e6
        prog = collective_program("alltoall", p, size)
        algo = select_algorithm("alltoall", p, size)
        assert prog.meta.source == "collective"
        assert prog.meta.algorithm == algo
        assert prog.meta.label == f"alltoall/{algo}"
        assert prog.n_distinct_rounds == len(rounds_for("alltoall", p, size, algo))

    def test_pinned_algorithm(self):
        prog = collective_program("allgather", 8, 1e4, "ring")
        assert prog.meta.algorithm == "ring"
        assert validate_program(prog).ok


class TestSplattModeProgram:
    def test_no_self_flows_and_volume(self):
        p, per_pair = 4, 100.0
        prog = lower_workload("splatt", {"p": p, "per_pair_bytes": per_pair})
        assert prog.meta.source == "splatt"
        assert validate_program(prog).ok
        for rnd in prog.rounds:
            assert not np.any(rnd.src == rnd.dst)
        assert prog.total_bytes == pytest.approx(per_pair * p * (p - 1))


class TestPlacedRounds:
    """Placement of communicator ranks onto cores: the round oracle's
    (``tests/ir/round_oracle.py``) and the analytic backends' own, which
    must agree."""

    def test_maps_comm_ranks_onto_cores(self):
        cores = np.array([5, 2, 9, 0])
        prog = collective_program("alltoall", 4, 1e4, "pairwise")
        placed = placed_rounds(prog, cores)
        table = _pattern_table(prog)
        patterns = list(_placed_patterns(table, [cores], range(len(table.patterns))))
        for spec, (src, dst, _, _), p in zip(prog.rounds, placed, table.ids.tolist()):
            np.testing.assert_array_equal(src, cores[spec.src])
            np.testing.assert_array_equal(dst, cores[spec.dst])
            np.testing.assert_array_equal(patterns[p][0], src)
            np.testing.assert_array_equal(patterns[p][1], dst)

    def test_accepts_program_or_raw_rounds(self):
        cores = np.arange(8)
        rounds = rounds_for("allgather", 8, 1e4, "ring")
        a = placed_rounds(rounds, cores)
        b = placed_rounds(from_rounds(rounds, n_ranks=8), cores)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra[0], rb[0])
            np.testing.assert_array_equal(ra[1], rb[1])
            assert ra[2:] == rb[2:]

    def test_out_of_range_rank_rejected(self):
        rounds = [CommRound([0], [4], 8.0)]
        with pytest.raises(ValueError, match="outside the communicator"):
            placed_rounds(rounds, np.arange(4))
        topo = generic_cluster((2, 4))
        with pytest.raises(ValueError, match="outside the communicator"):
            get_backend("round").run(CommProgram(5, tuple(rounds)), topo, [np.arange(4)])


class TestRoundEndpoints:
    def test_buckets_preserve_flow_order(self):
        rnd = CommRound([0, 1, 0], [1, 0, 2], [10.0, 20.0, 30.0])
        sends, recvs = round_endpoints(rnd, tag_base=100)
        assert sends[0] == [(1, 10.0, 100), (2, 30.0, 102)]
        assert sends[1] == [(0, 20.0, 101)]
        assert recvs[1] == [(0, 100)]
        assert recvs[2] == [(0, 102)]


class TestShimRemoval:
    """The pre-IR conversion shims are gone; the IR is the only path."""

    def test_rounds_to_schedule_shim_removed(self):
        import repro.collectives
        import repro.collectives.base as base

        assert not hasattr(base, "rounds_to_schedule")
        assert not hasattr(repro.collectives, "rounds_to_schedule")

    def test_pre_ir_round_model_removed(self):
        import repro.bench
        import repro.ir
        import repro.ir.backends as backends
        import repro.netsim
        import repro.netsim.fabric as fabric
        import repro.netsim.trace as trace

        for module, names in (
            (fabric, ("Round", "RoundSchedule", "FABRIC_CACHE_STATS")),
            (repro.netsim, ("Round", "RoundSchedule")),
            (repro.ir, ("placed_rounds",)),
            (backends, ("round_fabric",)),
            (repro.bench, ("collective_schedule",)),
            (trace, ("TracingFabric",)),
        ):
            for name in names:
                assert not hasattr(module, name), name
        for method in ("round_time", "_round_time_impl", "uncontended_time"):
            assert not hasattr(fabric.Fabric, method), method

    def test_differential_helper_shims_removed(self):
        import repro.verify.differential as differential

        assert not hasattr(differential, "_spec_endpoints")
        assert not hasattr(differential, "_round_flow_program")
