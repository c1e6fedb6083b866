"""Unit tests for the order advisor."""

import dataclasses
import re

import pytest

from repro.core import advisor
from repro.core.advisor import advise, ladder_advise, plan_query
from repro.core.hierarchy import Hierarchy
from repro.engine.fidelity import LadderConfig
from repro.launcher import slurm
from repro.topology.machines import generic_cluster, hydra
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

    def test_replaced_recommendation_renders_its_own_fields(self):
        advice = advise(TOPO, H, 16, "alltoall", backend="logp")
        rec, other = advice.recommendations[:2]
        moved = dataclasses.replace(
            rec, placement_class=other.placement_class, predicted_seconds=1.0
        )
        slurm = f" [{other.slurm_distribution}]" if other.slurm_distribution else ""
        assert moved.legend() == f"{other.signature.legend()}{slurm} -> 1000.000 ms"
        assert moved.to_jsonable() == {
            **other.to_jsonable(), "predicted_seconds": 1.0, "legend": moved.legend()
        }
        assert moved.equivalent_orders == other.equivalent_orders

    def test_spread_factor_of_all_zero_times_is_one(self):
        # One-rank communicators move no data: every class predicts 0 s.
        advice = advise(TOPO, H, 1, "alltoall", backend="logp")
        assert {r.predicted_seconds for r in advice.recommendations} == {0.0}
        assert advice.spread_factor() == 1.0
        assert advice.report().endswith("worst/best factor: 1.00x")
        assert advice.to_jsonable()["spread_factor"] == 1.0

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

    def test_one_level_machine_has_no_slurm_equivalent(self):
        flat = Hierarchy((8,), ("core",))
        advice = advise(generic_cluster((8,), ("core",)), flat, 4, "alltoall")
        assert [r.order for r in advice.recommendations] == [(0,)]
        assert advice.best.slurm_distribution is None
        assert advice.report().splitlines()[1] == "  1. 0 (3 - 100.0) -> 1.750 ms"

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


class TestLadderScenario:
    def test_single_scenario_ladder_sums_the_plans_duration(self):
        # The ladder sums the plan's scenario duration; its config names
        # no duration field to disagree with the plan.
        ladder = LadderConfig(rungs=("metric", "logp"))
        ask = dict(scenario="single", backend="logp")
        laddered = advise(TOPO, H, comm_size=4, ladder=ladder, **ask)
        plain = {r.order: r.predicted_seconds for r in advise(TOPO, H, 4, **ask).recommendations}
        assert laddered.recommendations
        for rec in laddered.recommendations:
            assert rec.predicted_seconds == plain[rec.order]


class TestDeepMachine:
    """Depth 8, 40,320 orders in 806 classes: a class renders only when
    an answer shows it, and once."""

    RADICES = (2, 2, 2, 2, 4, 2, 4, 2)

    def test_only_shown_classes_render(self, monkeypatch):
        calls = dict.fromkeys(("signature", "order_to_distribution", "format_order"), 0)
        # The advisor imports the Slurm translation (and numpy with it)
        # on first use, from its own module.
        owners = {name: advisor for name in calls}
        owners["order_to_distribution"] = slurm

        def counted(name):
            fn = getattr(owners[name], name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(owners[name], name, counted(name))
        advisor._order_classes.cache_clear()
        h = Hierarchy(self.RADICES)
        plan = plan_query(
            generic_cluster(self.RADICES), h,
            collective_cells([16], ["alltoall"], [1e6, 64e6]),
        )
        assert len(plan.classes) == 806
        assert calls == dict.fromkeys(calls, 0)

        advice, result = ladder_advise(plan)
        for _ in range(2):
            advice.report()
            advice.to_jsonable()
        finalists = len(result.ranking)
        assert finalists < len(plan.classes)
        assert calls == {
            "signature": finalists,
            "order_to_distribution": finalists,
            "format_order": sum(len(r.equivalent_orders) for r in advice.recommendations),
        }
