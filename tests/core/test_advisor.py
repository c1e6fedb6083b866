"""Unit tests for the order advisor."""

import re

import pytest

from repro.core.advisor import advise
from repro.core.hierarchy import Hierarchy
from repro.topology.machines import hydra
from repro.workloads import collective_cells

H = Hierarchy((4, 2, 2, 8), ("node", "socket", "group", "core"))
TOPO = hydra(4)


class TestAdvise:
    def test_recommends_packed_for_concurrent_alltoall(self):
        advice = advise(TOPO, H, 16, "alltoall", scenario="all")
        # The concurrent scenario rewards locality: the winner must pack
        # each communicator into sub-node resources (no node-level pairs).
        best = advice.best
        assert best.signature.pair_percentages[-1] == 0.0

    def test_recommends_spread_for_single_large(self):
        # The Figure 3 regime: 16-rank communicators on >= 8 nodes.  The
        # spread mapping avoids intra-communicator link sharing and wins
        # when running alone at large sizes.
        topo8 = hydra(8)
        h8 = Hierarchy((8, 2, 2, 8), ("node", "socket", "group", "core"))
        advice = advise(
            topo8, h8, 16, "alltoall", scenario="single", total_bytes=[64e6]
        )
        assert advice.best.signature.pair_percentages[-1] > 50.0

    def test_covers_every_order_through_classes(self):
        advice = advise(TOPO, H, 16, "alltoall")
        covered = [o for r in advice.recommendations for o in r.equivalent_orders]
        assert len(covered) == 24
        assert len(set(covered)) == 24

    def test_sorted_by_predicted_time(self):
        advice = advise(TOPO, H, 16, "alltoall")
        times = [r.predicted_seconds for r in advice.recommendations]
        assert times == sorted(times)

    def test_spread_factor_above_one(self):
        advice = advise(TOPO, H, 16, "alltoall")
        assert advice.spread_factor() > 1.0

    def test_report_mentions_slurm_equivalents(self):
        advice = advise(TOPO, H, 16, "alltoall")
        text = advice.report()
        assert "advice for alltoall" in text
        assert "worst/best factor" in text
        assert "block:" in text or "cyclic:" in text or "plane=" in text

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            advise(TOPO, H, 16, scenario="sometimes")

    def test_world_size_checked(self):
        with pytest.raises(ValueError):
            advise(TOPO, Hierarchy((2, 2, 8)), 16)

    def test_explicit_order_subset(self):
        advice = advise(TOPO, H, 16, orders=[(0, 1, 2, 3), (3, 2, 1, 0)])
        assert len(advice.recommendations) == 2

    def test_allgather_advice_differs_from_alltoall(self):
        """Collective-specific rankings: allgather cares about ring cost
        inside the packed class, alltoall does not."""
        a2a = advise(TOPO, H, 16, "alltoall", scenario="all")
        ag = advise(TOPO, H, 16, "allgather", scenario="all")
        assert {r.order for r in a2a.recommendations} == {
            r.order for r in ag.recommendations
        }
        # Times must differ (different algorithms), even if the winner
        # happens to agree.
        assert a2a.best.predicted_seconds != ag.best.predicted_seconds

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"comm_size": 16}, ["comm_size"]),
            ({"collective": "alltoall"}, ["collective"]),
            (
                {"total_bytes": (1e6,), "algorithm": "pairwise"},
                ["algorithm", "total_bytes"],
            ),
        ],
    )
    def test_cells_refuse_collective_arguments(self, kwargs, named):
        # Cells define the communicator size and traffic: a collective
        # argument next to them would otherwise be silently ignored.
        cells = collective_cells([16], ["alltoall"], [1e6])
        with pytest.raises(ValueError, match=re.escape(f"must not name {named}")):
            advise(TOPO, H, cells=cells, **kwargs)

    def test_cells_answer_like_the_collective_query(self):
        cells = collective_cells([16], ["alltoall"], [1e6, 64e6])
        via_cells = advise(TOPO, H, cells=cells, backend="logp")
        via_args = advise(TOPO, H, 16, backend="logp")
        assert via_cells.to_jsonable() == via_args.to_jsonable()
