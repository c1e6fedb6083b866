"""Unit tests for the generic sweep utility."""

import csv
import io

import pytest

from repro.bench.sweeps import sweep, to_csv
from repro.core.hierarchy import Hierarchy
from repro.topology.machines import hydra

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
