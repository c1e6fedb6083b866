"""Unit tests for Slurm --distribution emulation (Figure 2 captions)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hierarchy import Hierarchy
from repro.core.orders import all_orders
from repro.launcher.slurm import (
    SlurmJob,
    distribution_to_order,
    expressible_distributions,
    order_to_distribution,
)

FIG1 = Hierarchy((2, 2, 4), ("node", "socket", "core"))
HYDRA = Hierarchy((16, 2, 2, 8), ("node", "socket", "group", "core"))
LUMI = Hierarchy((16, 2, 4, 2, 8), ("node", "socket", "numa", "l3", "core"))


class TestDistributionToOrder:
    # The Figure 2 captions, verbatim.
    FIG2 = {
        "cyclic:cyclic": (0, 1, 2),
        "cyclic:block": (0, 2, 1),
        "block:cyclic": (1, 2, 0),
        "plane=4": (2, 0, 1),
        "block:block": (2, 1, 0),
    }

    @pytest.mark.parametrize("dist,order", sorted(FIG2.items()))
    def test_fig2_captions(self, dist, order):
        assert distribution_to_order(FIG1, dist) == order

    def test_hydra_default_block_cyclic(self):
        # Figures 3/4/8: Slurm's default on Hydra is [1, 3, 2, 0].
        assert distribution_to_order(HYDRA, "block:cyclic") == (1, 3, 2, 0)

    def test_lumi_default_block_block(self):
        # Figure 5: LUMI's default is [4, 3, 2, 1, 0].
        assert distribution_to_order(LUMI, "block:block") == (4, 3, 2, 1, 0)

    def test_missing_socket_token_means_block(self):
        assert distribution_to_order(FIG1, "cyclic") == distribution_to_order(
            FIG1, "cyclic:block"
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            distribution_to_order(FIG1, "fcyclic:block")

    def test_plane_must_align(self):
        with pytest.raises(ValueError):
            distribution_to_order(FIG1, "plane=3")

    def test_plane_whole_node(self):
        # plane = node size degenerates to block:block.
        assert distribution_to_order(FIG1, "plane=8") == (2, 1, 0)

    def test_case_insensitive(self):
        assert distribution_to_order(FIG1, "Block:Cyclic") == (1, 2, 0)


class TestOrderToDistribution:
    def test_order_102_not_expressible(self):
        # Figure 2c: "[1, 0, 2] cannot be achieved" with --distribution.
        assert order_to_distribution(FIG1, (1, 0, 2)) is None

    def test_roundtrip(self):
        for dist, order in expressible_distributions(FIG1).items():
            got = order_to_distribution(FIG1, order)
            assert got is not None
            assert distribution_to_order(FIG1, got) == order

    def test_deeper_hierarchy_leaves_more_gaps(self):
        expressible_3 = {
            o for o in all_orders(3) if order_to_distribution(FIG1, o)
        }
        expressible_5 = {
            o for o in all_orders(5) if order_to_distribution(LUMI, o)
        }
        assert len(expressible_3) / 6 > len(expressible_5) / 120

    @staticmethod
    def scan(hierarchy, order):
        """The lookup as a linear scan: the first expressible value wins."""
        for value, candidate in expressible_distributions(hierarchy).items():
            if candidate == tuple(order):
                return value
        return None

    @pytest.mark.parametrize(
        "hierarchy",
        [FIG1, HYDRA, LUMI, Hierarchy((4, 2, 2, 8)), Hierarchy((3, 5)),
         Hierarchy((2, 3, 2, 2, 3, 2))],
        ids=str,
    )
    def test_lookup_equals_scan(self, hierarchy):
        for order in all_orders(hierarchy.depth):
            assert order_to_distribution(hierarchy, order) == self.scan(
                hierarchy, order
            ), order

    def test_block_block_wins_over_whole_node_plane(self):
        # plane=<node size> realizes the same order as block:block; the
        # value listed first in expressible_distributions is reported.
        dists = expressible_distributions(FIG1)
        assert dists["plane=8"] == dists["block:block"] == (2, 1, 0)
        assert order_to_distribution(FIG1, (2, 1, 0)) == "block:block"
        # At depth 2 the socket policy is moot: block:cyclic is
        # block:block and cyclic:cyclic is cyclic:block.
        flat = Hierarchy((4, 8))
        assert order_to_distribution(flat, (1, 0)) == "block:block"
        assert order_to_distribution(flat, (0, 1)) == "cyclic:block"

    def test_lookup_ignores_names_and_element_types(self):
        import numpy as np

        unnamed = Hierarchy(FIG1.radices)
        for order in all_orders(3):
            assert order_to_distribution(unnamed, order) == self.scan(FIG1, order)
            assert order_to_distribution(FIG1, list(np.array(order))) == self.scan(
                FIG1, order
            )

    def test_single_level_still_refused(self):
        # An explicit --distribution needs node and core levels ...
        with pytest.raises(ValueError, match="node and core levels"):
            distribution_to_order(Hierarchy((4,)), "block:block")

    def test_single_level_has_no_distribution(self):
        # ... so a one-level machine expresses no order with one.
        flat = Hierarchy((8,), ("core",))
        assert expressible_distributions(flat) == {}
        assert order_to_distribution(flat, (0,)) is None


@given(radices=st.lists(st.integers(2, 6), min_size=2, max_size=6))
def test_lookup_equals_scan_on_drawn_hierarchies(radices):
    h = Hierarchy(tuple(radices))
    for order in all_orders(h.depth):
        assert order_to_distribution(h, order) == TestOrderToDistribution.scan(
            h, order
        ), order


class TestSlurmJob:
    def test_full_node_uses_distribution(self):
        job = SlurmJob(FIG1, 2, 8, distribution="block:block")
        assert job.mapping().core_of.tolist() == list(range(16))

    def test_partial_node_packs_first_cores(self):
        # Without map_cpu Slurm packs the first cores per node.
        job = SlurmJob(FIG1, 2, 2)
        assert job.mapping().core_of.tolist() == [0, 1, 8, 9]

    def test_map_cpu_binding(self):
        job = SlurmJob(FIG1, 2, 2, cpu_bind_map=(0, 4))
        assert job.mapping().core_of.tolist() == [0, 4, 8, 12]

    def test_rejects_both_options(self):
        with pytest.raises(ValueError):
            SlurmJob(FIG1, 1, 2, distribution="block", cpu_bind_map=(0, 1))

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            SlurmJob(FIG1, 1, 9)

    def test_map_length_must_match(self):
        with pytest.raises(ValueError):
            SlurmJob(FIG1, 1, 3, cpu_bind_map=(0, 1))

    def test_n_tasks(self):
        assert SlurmJob(FIG1, 2, 4).n_tasks == 8
