"""Unit tests for the generic sweep utility."""

import csv
import io

import pytest

from repro.bench.sweeps import (
    best_per_group,
    chaos_best_per_fault,
    chaos_sweep,
    sweep,
    to_csv,
)
from repro.core.hierarchy import Hierarchy
from repro.topology.machines import generic_cluster, hydra

H = Hierarchy((4, 2, 2, 8), ("node", "socket", "group", "core"))
TOPO = hydra(4)


@pytest.fixture(scope="module")
def records():
    return sweep(
        TOPO, H, comm_sizes=[16, 32],
        collectives=["alltoall", "allgather"],
        sizes=[1e6, 16e6],
        orders=[(0, 1, 2, 3), (3, 2, 1, 0)],
    )


class TestSweep:
    def test_grid_size(self, records):
        assert len(records) == 2 * 2 * 2 * 2  # comm x coll x size x order

    def test_record_fields(self, records):
        rec = records[0]
        assert rec.machine == TOPO.name
        assert rec.duration_all >= rec.duration_single > 0
        assert rec.bandwidth_single == pytest.approx(
            rec.total_bytes / rec.duration_single
        )

    def test_algorithm_resolved(self, records):
        assert all(r.algorithm for r in records)

    def test_bad_comm_size(self):
        with pytest.raises(ValueError, match="divide"):
            sweep(TOPO, H, comm_sizes=[17])

    def test_world_size_checked(self):
        with pytest.raises(ValueError):
            sweep(TOPO, Hierarchy((2, 2)), comm_sizes=[2])


class TestCSV:
    def test_roundtrip(self, records):
        text = to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(records)
        assert rows[0]["order"] == records[0].order
        assert float(rows[3]["total_bytes"]) == records[3].total_bytes

    def test_empty(self):
        assert to_csv([]) == ""


class TestBestPerGroup:
    def test_one_winner_per_group(self, records):
        best = best_per_group(records)
        assert len(best) == 2 * 2 * 2  # comm x coll x size
        for (comm, coll, size), rec in best.items():
            assert rec.comm_size == comm
            assert rec.collective == coll
            assert rec.total_bytes == size

    def test_winner_is_fastest(self, records):
        best = best_per_group(records, scenario="all")
        for key, winner in best.items():
            rivals = [
                r
                for r in records
                if (r.comm_size, r.collective, r.total_bytes) == key
            ]
            assert winner.duration_all == min(r.duration_all for r in rivals)

    def test_scenarios_can_disagree(self):
        """The paper's central tension: the single-communicator winner is
        not the concurrent winner (spread vs packed).  Needs the Figure 3
        regime (16-rank comms on >= 8 nodes)."""
        topo = hydra(8)
        h = Hierarchy((8, 2, 2, 8))
        recs = sweep(
            topo, h, comm_sizes=[16], collectives=["alltoall"],
            sizes=[32e6], orders=[(0, 1, 2, 3), (3, 2, 1, 0)],
        )
        best_all = best_per_group(recs, scenario="all")
        best_single = best_per_group(recs, scenario="single")
        key = (16, "alltoall", 32e6)
        assert best_all[key].order == "3-2-1-0"
        assert best_single[key].order == "0-1-2-3"


class TestChaosSweep:
    @pytest.fixture(scope="class")
    def chaos_records(self):
        return chaos_sweep(
            generic_cluster((2, 2, 2)),
            orders=[(0, 1, 2), (2, 1, 0)],
            seed=1,
            rate=1.0,
        )

    def test_grid_and_fields(self, chaos_records):
        assert len(chaos_records) == 2 * 4  # orders x fault kinds
        for rec in chaos_records:
            assert rec.healthy_time > 0
            assert rec.slowdown >= 1.0 or rec.n_faults == 0
            assert rec.n_attempts >= 1

    def test_deterministic(self, chaos_records):
        again = chaos_sweep(
            generic_cluster((2, 2, 2)),
            orders=[(0, 1, 2), (2, 1, 0)],
            seed=1,
            rate=1.0,
        )
        assert again == chaos_records

    def test_csv_export(self, chaos_records):
        text = to_csv(chaos_records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(chaos_records)
        assert rows[0]["fault_kind"] == chaos_records[0].fault_kind

    def test_best_per_fault(self, chaos_records):
        best = chaos_best_per_fault(chaos_records)
        assert set(best) == {
            "node_crash", "nic_fail", "link_degrade", "straggler"
        }
        for kind, winner in best.items():
            rivals = [r for r in chaos_records if r.fault_kind == kind]
            assert winner.slowdown == min(r.slowdown for r in rivals)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chaos fault kind"):
            chaos_sweep(
                generic_cluster((2, 2, 2)),
                orders=[(0, 1, 2)],
                fault_kinds=["rank_kill"],
            )

class TestVerifySweep:
    def test_grid_covers_registry_and_passes(self):
        from repro.bench.sweeps import verify_sweep
        from repro.verify import checkable_algorithms

        records = verify_sweep([4, 8], total_bytes=16384.0)
        want = len(checkable_algorithms(4)) + len(checkable_algorithms(8))
        assert len(records) == want
        for rec in records:
            assert rec.ok, (rec.collective, rec.algorithm, rec.comm_size)
            assert rec.n_rounds >= 0
            assert rec.differential_rel_err < 1e-6  # flat machine is exact

    def test_collective_filter_and_csv(self):
        from repro.bench.sweeps import verify_sweep

        records = verify_sweep([8], collectives=["allreduce"])
        assert records and all(r.collective == "allreduce" for r in records)
        text = to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(records)
        assert rows[0]["semantic_ok"] == "True"

    def test_hierarchical_topology_within_tolerance(self):
        from repro.bench.sweeps import verify_sweep

        records = verify_sweep(
            [8], collectives=["allgather"], topology=generic_cluster((2, 2, 2))
        )
        assert records and all(r.ok for r in records)

    def test_oversized_comm_rejected(self):
        from repro.bench.sweeps import verify_sweep

        with pytest.raises(ValueError, match="exceeds"):
            verify_sweep([16], topology=generic_cluster((2, 2, 2)))


class TestEngineIntegration:
    """All sweeps share the engine: memoized, pruned, jobs-invariant."""

    def test_shared_engine_recalls_repeated_sweep(self):
        from repro.engine import SweepEngine

        engine = SweepEngine()
        kwargs = dict(
            comm_sizes=[16], collectives=["alltoall"], sizes=[1e6],
            orders=[(0, 1, 2, 3), (3, 2, 1, 0)], engine=engine,
        )
        first = sweep(TOPO, H, **kwargs)
        evaluated = engine.stats.evaluated
        second = sweep(TOPO, H, **kwargs)
        assert first == second
        assert engine.stats.evaluated == evaluated  # all hits
        assert engine.stats.cache_hits >= 2

    def test_jobs_do_not_change_records(self):
        kwargs = dict(
            comm_sizes=[16, 32], collectives=["alltoall"], sizes=[1e6],
            orders=[(0, 1, 2, 3), (1, 0, 2, 3), (3, 2, 1, 0)],
        )
        assert sweep(TOPO, H, **kwargs) == sweep(TOPO, H, jobs=2, **kwargs)

    def test_audit_mode_matches_pruned(self):
        kwargs = dict(
            comm_sizes=[16], collectives=["alltoall"], sizes=[1e6],
        )
        assert sweep(TOPO, H, **kwargs) == sweep(TOPO, H, prune=False, **kwargs)

    def test_chaos_sweep_shares_engine_cache(self):
        from repro.engine import SweepEngine

        engine = SweepEngine()
        kwargs = dict(
            orders=[(0, 1, 2)], fault_kinds=["straggler"], seed=1,
            engine=engine,
        )
        first = chaos_sweep(generic_cluster((2, 2, 2)), **kwargs)
        evaluated = engine.stats.evaluated
        second = chaos_sweep(generic_cluster((2, 2, 2)), **kwargs)
        assert first == second
        assert engine.stats.evaluated == evaluated

    def test_verify_sweep_shares_engine_cache(self):
        from repro.bench.sweeps import verify_sweep
        from repro.engine import SweepEngine

        engine = SweepEngine()
        first = verify_sweep([4], collectives=["allgather"], engine=engine)
        evaluated = engine.stats.evaluated
        second = verify_sweep([4], collectives=["allgather"], engine=engine)
        assert first == second
        assert engine.stats.evaluated == evaluated

    @pytest.mark.parametrize("collective, p, size", [("alltoall", 16, 1e6),
                                                     ("allreduce", 32, 16e6)])
    def test_collective_and_workload_sweeps_share_one_cache(
        self, collective, p, size
    ):
        """One request shape means one cache: a collective sweep warms
        the equivalent ``collective`` workload sweep completely."""
        from repro.bench.sweeps import workload_sweep
        from repro.engine import SweepEngine

        engine = SweepEngine()
        orders = [(0, 1, 2, 3), (1, 0, 2, 3), (3, 2, 1, 0)]
        records = sweep(
            TOPO, H, comm_sizes=[p], collectives=[collective], sizes=[size],
            orders=orders, engine=engine,
        )
        evaluated = engine.stats.evaluated
        assert evaluated > 0
        wl_records = workload_sweep(
            TOPO, H, "collective",
            {"collective": collective, "p": p, "total_bytes": size},
            orders=orders, engine=engine,
        )
        assert engine.stats.evaluated == evaluated  # every key was warm
        assert [
            (repr(r.duration_single), repr(r.duration_all)) for r in wl_records
        ] == [(repr(r.duration_single), repr(r.duration_all)) for r in records]
