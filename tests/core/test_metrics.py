"""Unit tests for the Section 3.3 characterization metrics.

All expected values below are stated verbatim in the paper (Figure 2
discussion and the legends of Figures 3 and 5).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.equivalence import equivalence_classes
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import (
    _first_comm_coords,
    hop_cost,
    pair_level_counts_of_coords,
    pair_level_percentages,
    ring_cost,
    ring_cost_of_coords,
    signature,
    signature_of_coords,
)
from repro.core.mixed_radix import decompose_many, recompose_many
from repro.core.orders import all_orders

LUMI16 = Hierarchy((16, 2, 4, 2, 8))


class TestHopCost:
    def test_same_core(self):
        assert hop_cost((1, 0, 2), (1, 0, 2)) == 0

    def test_same_lowest_level(self):
        assert hop_cost((1, 0, 2), (1, 0, 3)) == 1

    def test_one_level_crossed(self):
        assert hop_cost((1, 0, 2), (1, 1, 2)) == 2

    def test_outermost(self):
        assert hop_cost((0, 0, 0), (1, 0, 0)) == 3

    def test_rejects_depth_mismatch(self):
        with pytest.raises(ValueError):
            hop_cost((0, 0), (0, 0, 0))


class TestRingCost:
    def test_fig2_order_012(self, fig1_hierarchy):
        # Paper: "[0, 1, 2] has a ring cost of 9".
        assert ring_cost(fig1_hierarchy, (0, 1, 2), 4) == 9

    def test_fig2_order_102(self, fig1_hierarchy):
        # Paper: "[1, 0, 2] has a ring cost of 7".
        assert ring_cost(fig1_hierarchy, (1, 0, 2), 4) == 7

    # Figure 3 legend (Hydra [[16,2,2,8]], 16-rank communicators).
    FIG3 = {
        (0, 1, 2, 3): 60,
        (2, 1, 0, 3): 40,
        (1, 3, 0, 2): 45,
        (1, 3, 2, 0): 45,
        (3, 1, 0, 2): 17,
        (3, 2, 1, 0): 16,
    }

    @pytest.mark.parametrize("order,expected", sorted(FIG3.items()))
    def test_fig3_legend(self, hydra_hierarchy, order, expected):
        assert ring_cost(hydra_hierarchy, order, 16) == expected

    # Figure 5 legend (LUMI [[16,2,4,2,8]], 16-rank communicators).
    FIG5 = {
        (0, 1, 2, 3, 4): 75,
        (1, 2, 3, 0, 4): 60,
        (3, 2, 1, 4, 0): 38,
        (3, 4, 0, 1, 2): 30,
        (4, 3, 2, 1, 0): 16,
    }

    @pytest.mark.parametrize("order,expected", sorted(FIG5.items()))
    def test_fig5_legend(self, order, expected):
        assert ring_cost(LUMI16, order, 16) == expected

    def test_single_member_communicator(self, fig1_hierarchy):
        assert ring_cost(fig1_hierarchy, (2, 1, 0), 1) == 0

    def test_rejects_non_dividing_comm_size(self, fig1_hierarchy):
        with pytest.raises(ValueError):
            ring_cost(fig1_hierarchy, (2, 1, 0), 5)

    def test_of_coords_zero_hops_for_duplicates(self):
        coords = np.array([[0, 0, 1], [0, 0, 1]])
        assert ring_cost_of_coords(coords) == 0

    @pytest.mark.parametrize(
        "radices",
        [(3,), (2, 3), (3, 2, 2), (2, 3, 4), (3, 3, 2, 2), (2, 2, 3, 2, 2),
         (4, 3, 2, 2, 3), (3, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2)],
    )
    def test_closed_form_matches_signature(self, radices):
        # The O(depth) closed form against comm 0's decomposed coordinates,
        # for every order and every communicator size dividing the machine.
        h = Hierarchy(radices)
        for comm_size in divisors(h.size):
            for order in all_orders(h.depth):
                assert ring_cost(h, order, comm_size) == signature(
                    h, order, comm_size
                ).ring_cost, (order, comm_size)

    def test_closed_form_rejects_bad_order(self, fig1_hierarchy):
        with pytest.raises(ValueError, match="not a permutation"):
            ring_cost(fig1_hierarchy, (0, 0, 1), 4)


class TestPairPercentages:
    def test_fig2_packed(self, fig1_hierarchy):
        # Paper: order [2, 1, 0] gives [100, 0, 0].
        assert pair_level_percentages(fig1_hierarchy, (2, 1, 0), 4) == (
            100.0,
            0.0,
            0.0,
        )

    def test_fig2_order_102(self, fig1_hierarchy):
        # Paper: order [1, 0, 2] gives [0, 33.3, 66.7].
        pcts = pair_level_percentages(fig1_hierarchy, (1, 0, 2), 4)
        assert pcts[0] == 0.0
        assert pcts[1] == pytest.approx(33.33, abs=0.01)
        assert pcts[2] == pytest.approx(66.67, abs=0.01)

    FIG3 = {
        (0, 1, 2, 3): (0.0, 0.0, 0.0, 100.0),
        (2, 1, 0, 3): (0.0, 6.7, 13.3, 80.0),
        (1, 3, 0, 2): (46.7, 0.0, 53.3, 0.0),
        (3, 2, 1, 0): (46.7, 53.3, 0.0, 0.0),
    }

    @pytest.mark.parametrize("order,expected", sorted(FIG3.items()))
    def test_fig3_legend(self, hydra_hierarchy, order, expected):
        pcts = pair_level_percentages(hydra_hierarchy, order, 16)
        assert pcts == pytest.approx(expected, abs=0.05)

    def test_percentages_sum_to_100(self, hydra_hierarchy):
        from repro.core.orders import all_orders

        for order in all_orders(4):
            pcts = pair_level_percentages(hydra_hierarchy, order, 32)
            assert sum(pcts) == pytest.approx(100.0)


class TestSignature:
    def test_legend_format(self, hydra_hierarchy):
        sig = signature(hydra_hierarchy, (0, 1, 2, 3), 16)
        assert sig.legend() == "0-1-2-3 (60 - 0.0, 0.0, 0.0, 100.0)"

    def test_key_excludes_order(self, hydra_hierarchy):
        # [1,3,0,2] and [1,3,2,0] share the signature key (same mapping
        # and internal order) -- the Figure 3 legend lists both.
        a = signature(hydra_hierarchy, (1, 3, 0, 2), 16)
        b = signature(hydra_hierarchy, (1, 3, 2, 0), 16)
        assert a.key == b.key
        assert a.order != b.order

    def test_metrics_are_independent(self, hydra_hierarchy):
        # Section 3.3: ring cost distinguishes orders with equal pair
        # percentages.
        a = signature(hydra_hierarchy, (1, 3, 2, 0), 16)
        b = signature(hydra_hierarchy, (3, 1, 0, 2), 16)
        assert a.pair_percentages == b.pair_percentages
        assert a.ring_cost != b.ring_cost


# -- closed forms vs the direct definitions ----------------------------------


def oracle_pair_level_counts(coords: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Pair counts by comparing every pair of rows, O(n^2 * depth)."""
    n, depth = coords.shape
    if n < 2:
        return tuple(0 for _ in range(depth)), 0
    counts = np.zeros(depth, dtype=np.int64)
    for j in range(depth):
        same_above = (
            np.ones((n, n), dtype=bool)
            if j == 0
            else np.all(coords[:, None, :j] == coords[None, :, :j], axis=2)
        )
        differ_here = coords[:, None, j] != coords[None, :, j]
        counts[j] = np.triu(same_above & differ_here, k=1).sum()
    return tuple(int(counts[depth - 1 - k]) for k in range(depth)), n * (n - 1) // 2


def oracle_first_comm_coords(
    hierarchy: Hierarchy, order, comm_size: int
) -> np.ndarray:
    """Reorder the whole machine (Algorithms 1 and 2), then argsort."""
    coords = decompose_many(hierarchy, np.arange(hierarchy.size, dtype=np.int64))
    new_ranks = recompose_many(hierarchy, coords, order)
    return coords[np.argsort(new_ranks)[:comm_size]]


def oracle_signature_key(hierarchy: Hierarchy, order, comm_size: int) -> tuple:
    coords = oracle_first_comm_coords(hierarchy, order, comm_size)
    counts, total = oracle_pair_level_counts(coords)
    return (ring_cost_of_coords(coords), counts, total)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


hierarchies = (
    st.lists(st.integers(2, 5), min_size=1, max_size=6)
    .filter(lambda radices: math.prod(radices) <= 96)
    .map(lambda radices: Hierarchy(tuple(radices)))
)


class TestClosedForms:
    @settings(max_examples=25, deadline=None)
    @given(hierarchies)
    @example(Hierarchy((2, 2, 2, 2, 2, 2)))
    def test_first_comm_and_pair_counts_match_oracles(self, h):
        for order in all_orders(h.depth):
            # Every first communicator is a prefix of the whole reordering.
            world = oracle_first_comm_coords(h, order, h.size)
            for comm_size in divisors(h.size):
                coords = _first_comm_coords(h, order, comm_size)
                expect = world[:comm_size]
                assert coords.dtype == expect.dtype
                assert np.array_equal(coords, expect)
                assert pair_level_counts_of_coords(
                    coords
                ) == oracle_pair_level_counts(expect)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.integers(0, 5).flatmap(
                lambda depth: st.lists(
                    st.lists(
                        st.integers(-(2**40), 2**40) | st.integers(0, 2),
                        min_size=depth,
                        max_size=depth,
                    ),
                    min_size=n,
                    max_size=n,
                ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(n, depth))
            )
        )
    )
    @example(np.zeros((0, 3), dtype=np.int64))
    @example(np.zeros((1, 3), dtype=np.int64))
    def test_pair_counts_match_oracle_on_arbitrary_coords(self, coords):
        # Small digit range makes duplicate rows and shared prefixes
        # common; the wide range exercises digits beyond any radix.
        got = pair_level_counts_of_coords(coords)
        assert got == oracle_pair_level_counts(coords)
        assert all(type(c) is int for c in got[0]) and type(got[1]) is int

    def test_duplicate_rows_fall_in_no_bucket(self):
        coords = np.array([[0, 7, 1], [0, 7, 1], [0, 7, 2], [9, 0, 0]])
        # 1 innermost pair per duplicate with the (0, 7, 2) row, none for the
        # duplicate itself; 3 outermost pairs with (9, 0, 0).
        assert pair_level_counts_of_coords(coords) == ((2, 0, 3), 6)
        assert oracle_pair_level_counts(coords) == ((2, 0, 3), 6)

    def test_signature_of_coords_matches_signature(self, hydra_hierarchy):
        for order in all_orders(hydra_hierarchy.depth):
            coords = oracle_first_comm_coords(hydra_hierarchy, order, 16)
            assert signature(hydra_hierarchy, order, 16) == signature_of_coords(
                order, coords
            )

    def test_first_comm_rejects_bad_order(self, fig1_hierarchy):
        with pytest.raises(ValueError, match="not a permutation"):
            _first_comm_coords(fig1_hierarchy, (0, 0, 1), 4)

    @pytest.mark.parametrize(
        "hierarchy,comm_size",
        [
            (Hierarchy((16, 2, 2, 8)), 16),
            (Hierarchy((16, 2, 2, 8)), 64),
            (LUMI16, 16),
            (LUMI16, 128),
        ],
        ids=["fig3-16", "fig3-64", "fig5-16", "fig5-128"],
    )
    def test_equivalence_partition_unchanged(self, hierarchy, comm_size):
        expect: dict[tuple, list] = {}
        for order in all_orders(hierarchy.depth):
            key = oracle_signature_key(hierarchy, order, comm_size)
            expect.setdefault(key, []).append(order)
        classes = equivalence_classes(hierarchy, comm_size)
        got = {key: [s.order for s in sigs] for key, sigs in classes.items()}
        assert got == expect
