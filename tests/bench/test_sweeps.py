"""Unit tests for the generic sweep utility."""

import csv
import io

import pytest

from repro.bench.sweeps import (
    ladder_sweep,
    sweep,
    to_csv,
    workload_ladder_sweep,
    workload_sweep,
)
from repro.core.advisor import advise
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

    def test_grid_is_comm_major_then_order_then_cell(self, records):
        assert [(r.comm_size, r.order, r.collective, r.total_bytes) for r in records] == [
            (comm_size, order, collective, size)
            for comm_size in (16, 32)
            for order in ("0-1-2-3", "3-2-1-0")
            for collective in ("alltoall", "allgather")
            for size in (1e6, 16e6)
        ]

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


class TestOrderLists:
    """Every front-end refuses an empty or repeated order list when it
    plans, before anything is evaluated: a repeated order would print
    its row twice and count its time twice in a top-k, and an empty one
    would answer with nothing at all."""

    REPEATED = (3, 2, 1, 0)
    FRONT_ENDS = {
        "sweep": lambda orders: sweep(TOPO, H, [16], orders=orders),
        "ladder_sweep": lambda orders: ladder_sweep(TOPO, H, [16], orders=orders),
        "workload_sweep": lambda orders: workload_sweep(
            TOPO, H, "stencil", {"dims": [4, 4]}, orders=orders
        ),
        "workload_ladder_sweep": lambda orders: workload_ladder_sweep(
            TOPO, H, "stencil", {"dims": [4, 4]}, orders=orders
        ),
        "advise": lambda orders: advise(TOPO, H, 16, orders=orders),
        "advise_ladder": lambda orders: advise(TOPO, H, 16, orders=orders, ladder=True),
    }

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        from repro.engine import SweepEngine

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated a refused order list")

        monkeypatch.setattr(SweepEngine, "evaluate_many", refuse)

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_repeated_order_is_named(self, front_end):
        orders = [(0, 1, 2, 3), self.REPEATED, (1, 0, 2, 3), self.REPEATED]
        with pytest.raises(ValueError, match=r"^duplicate order 3-2-1-0 in orders$"):
            self.FRONT_ENDS[front_end](orders)

    @pytest.mark.parametrize("front_end", FRONT_ENDS)
    def test_empty_order_list_is_refused(self, front_end):
        with pytest.raises(ValueError, match="at least one order"):
            self.FRONT_ENDS[front_end]([])


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
