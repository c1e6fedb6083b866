"""Unit tests for order equivalence classes (Section 3.3)."""

import math

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core.equivalence import equivalence_classes, placement_key
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import OrderSignature
from repro.core.mixed_radix import decompose_many
from repro.core.orders import all_orders
from repro.core.reorder import RankReordering


class TestClasses:
    def test_paper_example_201_and_210_equivalent(self, fig1_hierarchy):
        # Section 3.3: [2,0,1] and [2,1,0] are similar on [[2,2,4]] with
        # 4-rank communicators.
        classes = equivalence_classes(fig1_hierarchy, 4)
        for sigs in classes.values():
            orders = {s.order for s in sigs}
            if (2, 0, 1) in orders:
                assert (2, 1, 0) in orders
                break
        else:
            raise AssertionError("[2,0,1] not found in any class")

    def test_paper_example_012_and_102_not_equivalent(self, fig1_hierarchy):
        # Same pair percentages but different ring costs (9 vs 7).
        classes = equivalence_classes(fig1_hierarchy, 4)
        cls_of = {}
        for key, sigs in classes.items():
            for s in sigs:
                cls_of[s.order] = key
        assert cls_of[(0, 1, 2)] != cls_of[(1, 0, 2)]

    def test_every_order_in_exactly_one_class(self, hydra_hierarchy):
        classes = equivalence_classes(hydra_hierarchy, 16)
        members = [s.order for sigs in classes.values() for s in sigs]
        assert sorted(members) == sorted(all_orders(4))

    def test_class_members_share_signature(self, hydra_hierarchy):
        for sigs in equivalence_classes(hydra_hierarchy, 16).values():
            keys = {s.key for s in sigs}
            assert len(keys) == 1

    def test_check_all_comms_is_finer_or_equal(self, hydra_hierarchy):
        coarse = equivalence_classes(hydra_hierarchy, 16)
        fine = equivalence_classes(hydra_hierarchy, 16, check_all_comms=True)
        assert len(fine) >= len(coarse)

    def test_check_all_comms_locks_heterogeneous_fig1_example(self, fig1_hierarchy):
        # Section 3.3 on the heterogeneous [[2, 2, 4]] hierarchy with
        # 4-rank communicators, under the strict all-communicator key:
        # exactly 5 classes, with [2,0,1]/[2,1,0] the single merged pair
        # (they only exchange which socket two communicators land on).
        classes = equivalence_classes(fig1_hierarchy, 4, check_all_comms=True)
        assert len(classes) == 5
        grouped = sorted(
            tuple(sorted(s.order for s in sigs)) for sigs in classes.values()
        )
        assert grouped == [
            ((0, 1, 2),),
            ((0, 2, 1),),
            ((1, 0, 2),),
            ((1, 2, 0),),
            ((2, 0, 1), (2, 1, 0)),
        ]

    def test_check_all_comms_separates_the_pair_at_full_size(self, fig1_hierarchy):
        # With one 8-rank communicator per node the socket swap is no
        # longer symmetric: the strict key splits [2,0,1] from [2,1,0].
        classes = equivalence_classes(fig1_hierarchy, 8, check_all_comms=True)
        assert len(classes) == 6
        for sigs in classes.values():
            assert len(sigs) == 1

    def test_explicit_order_subset(self, fig1_hierarchy):
        subset = [(0, 1, 2), (1, 0, 2)]
        classes = equivalence_classes(fig1_hierarchy, 4, orders=subset)
        members = [s.order for sigs in classes.values() for s in sigs]
        assert sorted(members) == sorted(subset)


class TestExactKeys:
    """Regression: keys must be exact rationals, not ``round(p, 6)``."""

    def test_near_boundary_percentages_do_not_merge(self):
        # Two pair ratios differing by 1e-7 percent: both round to the
        # same 6-decimal bucket, so the historic float key merged them.
        # The exact (count, total) key must keep them apart.
        total = 10**9
        a_counts = (500_000_001, total - 500_000_001)
        b_counts = (500_000_000, total - 500_000_000)
        pct = lambda counts: tuple(100.0 * c / total for c in counts)
        a = OrderSignature((0, 1), 5, pct(a_counts), a_counts, total)
        b = OrderSignature((1, 0), 5, pct(b_counts), b_counts, total)
        # The percentages genuinely straddle the rounding granularity:
        rounded_a = tuple(round(p, 6) for p in a.pair_percentages)
        rounded_b = tuple(round(p, 6) for p in b.pair_percentages)
        assert rounded_a == rounded_b  # old key would have merged
        assert a.key != b.key

    def test_equal_rationals_share_a_key(self):
        # Same exact ratio reached through different orders: one key.
        a = OrderSignature((0, 1), 5, (50.0, 50.0), (2, 2), 4)
        b = OrderSignature((1, 0), 5, (50.0, 50.0), (2, 2), 4)
        assert a.key == b.key

    def test_signature_keys_carry_integer_counts(self, fig1_hierarchy):
        classes = equivalence_classes(fig1_hierarchy, 4)
        for sigs in classes.values():
            for s in sigs:
                assert s.n_pairs == 4 * 3 // 2
                assert sum(s.pair_counts) == s.n_pairs
                assert all(isinstance(c, int) for c in s.pair_counts)


class TestMaskedHierarchies:
    """Masked hierarchies must not trust first-communicator signatures."""

    @pytest.fixture
    def masked_24(self):
        # [[2,2,4]] with socket 0 of each node drained: survivors form a
        # homogeneous [[2,4]] *description*, but the physical units behind
        # it are a strict subset of the machine.
        h = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
        return h.without_cores([0, 1, 2, 3, 8, 9, 10, 11])

    def test_without_cores_marks_masked(self, masked_24):
        assert masked_24.masked
        assert masked_24.radices == (2, 4)
        # Equality with a pristine hierarchy is unaffected by the flag.
        assert masked_24 == Hierarchy((2, 4), ("node", "core"))
        assert not Hierarchy((2, 4)).masked

    def test_masked_auto_enables_check_all_comms(self, masked_24):
        auto = equivalence_classes(masked_24, 4)
        strict = equivalence_classes(masked_24, 4, check_all_comms=True)
        assert set(auto.keys()) == set(strict.keys())
        for key in auto:
            assert [s.order for s in auto[key]] == [s.order for s in strict[key]]

    def test_masked_refuses_first_comm_only(self, masked_24):
        with pytest.raises(ValueError, match="masked"):
            equivalence_classes(masked_24, 4, check_all_comms=False)

    def test_masked_flag_survives_derivations(self, masked_24):
        assert masked_24.permuted((1, 0)).masked
        assert not Hierarchy((2, 4)).permuted((1, 0)).masked

    def test_pristine_hierarchy_keeps_fast_path(self, fig1_hierarchy):
        # Auto mode on an unmasked hierarchy is the comm-0 key: same
        # grouping as an explicit check_all_comms=False.
        auto = equivalence_classes(fig1_hierarchy, 4)
        fast = equivalence_classes(fig1_hierarchy, 4, check_all_comms=False)
        assert auto.keys() == fast.keys()


def strict_class_of(hierarchy: Hierarchy, comm_size: int) -> dict:
    """Order -> its strict (all-communicator) signature class, the
    members of its ``equivalence_classes(..., check_all_comms=True)``
    group."""
    classes = equivalence_classes(hierarchy, comm_size, check_all_comms=True)
    return {
        s.order: tuple(m.order for m in sigs)
        for sigs in classes.values()
        for s in sigs
    }


class TestClassKey:
    def test_strict_key_groups_equivalent_orders(self, fig1_hierarchy):
        class_of = strict_class_of(fig1_hierarchy, 4)
        # Section 3.3's merged pair shares the strict key...
        assert class_of[(2, 0, 1)] == class_of[(2, 1, 0)]
        # ...and distinct mappings do not.
        assert class_of[(0, 1, 2)] != class_of[(1, 0, 2)]


class TestPlacementKey:
    """The sound result-reuse key: canonical placements under machine
    symmetry (subtree relabeling + reordering of comms 1..k)."""

    def test_paper_pair_is_isomorphic(self, fig1_hierarchy):
        # [2,0,1] vs [2,1,0]: exchanging which socket two communicators
        # use is a machine automorphism plus a comm reordering.
        assert placement_key(fig1_hierarchy, (2, 0, 1), 4) == placement_key(
            fig1_hierarchy, (2, 1, 0), 4
        )

    def test_matches_signature_classes_on_fig1(self, fig1_hierarchy):
        # On [[2,2,4]] at comm size 4 the sound key and the paper's
        # signature classes coincide: 5 classes, one merged pair.
        groups = {}
        for order in all_orders(3):
            groups.setdefault(
                placement_key(fig1_hierarchy, order, 4), []
            ).append(order)
        grouped = sorted(tuple(g) for g in groups.values())
        assert grouped == [
            ((0, 1, 2),),
            ((0, 2, 1),),
            ((1, 0, 2),),
            ((1, 2, 0),),
            ((2, 0, 1), (2, 1, 0)),
        ]

    def test_equal_signatures_can_differ_in_placement(self):
        # Regression for the engine's pruning soundness: on [[4,2,2,8]]
        # at comm size 16, orders [0,1,2,3] and [0,2,1,3] share the
        # strict signature key (same ring cost and pair histogram in
        # permuted-relative coordinates) but enumerate different-level
        # units in a different interleaving -- with a per-level bandwidth
        # gradient their simulated durations genuinely differ, so the
        # placement key must keep them apart.
        h = Hierarchy((4, 2, 2, 8), ("node", "socket", "group", "core"))
        class_of = strict_class_of(h, 16)
        assert class_of[(0, 1, 2, 3)] == class_of[(0, 2, 1, 3)]
        assert placement_key(h, (0, 1, 2, 3), 16) != placement_key(
            h, (0, 2, 1, 3), 16
        )

    def test_comm_reordering_is_quotiented(self):
        # [1,3,0,2] vs [1,3,2,0]: identical comm-0 layout, identical comm
        # multiset -- only the enumeration order of the concurrent comms
        # differs, which neither benchmark scenario can observe.
        h = Hierarchy((16, 2, 2, 8), ("node", "socket", "group", "core"))
        assert placement_key(h, (1, 3, 0, 2), 16) == placement_key(
            h, (1, 3, 2, 0), 16
        )

    def test_finer_than_signature_key(self, hydra_hierarchy):
        # Placement classes refine signature classes: members of one
        # placement class always share the strict signature key.
        class_of = strict_class_of(hydra_hierarchy, 16)
        by_placement = {}
        for order in all_orders(4):
            by_placement.setdefault(
                placement_key(hydra_hierarchy, order, 16), []
            ).append(order)
        for members in by_placement.values():
            assert len({class_of[o] for o in members}) == 1

    def test_internal_rank_order_is_kept_apart(self):
        # Same core set, different rank labeling: round structure (who
        # talks to whom in round r) differs, so no merge.
        h = Hierarchy((16, 2, 2, 8), ("node", "socket", "group", "core"))
        assert placement_key(h, (1, 3, 0, 2), 16) != placement_key(
            h, (3, 1, 0, 2), 16
        )


def test_deep_hierarchy_classes_reasonable():
    # LUMI: 120 orders must compress substantially for 16-rank comms.
    lumi = Hierarchy((16, 2, 4, 2, 8))
    classes = equivalence_classes(lumi, 16)
    assert 1 < len(classes) < 120


# -- the closed-form placement key vs the greedy canonical form -------------


def _oracle_relabel(maps: list[dict], coords, commit: bool) -> tuple:
    """First-occurrence relabeling of one communicator's coordinates.

    ``maps[l]`` maps a relabeled level-prefix to the ``orig -> new`` digit
    assignment of its subtree at level ``l``; new digits are handed out in
    order of first appearance, which quotients away every per-level
    subtree permutation.  With ``commit=False`` the shared maps are left
    untouched (a lookahead), assignments landing in a local overlay.
    """
    out = []
    overlay: dict[tuple, dict] = {}
    for row in coords:
        prefix: tuple = ()
        new_row = []
        for level, digit in enumerate(row):
            digit = int(digit)
            base = maps[level].get(prefix)
            if base is not None and digit in base:
                new = base[digit]
            else:
                local = overlay.setdefault((level, prefix), {})
                if digit in local:
                    new = local[digit]
                else:
                    new = (len(base) if base else 0) + len(local)
                    local[digit] = new
            new_row.append(new)
            prefix += (new,)
        out.append(tuple(new_row))
    if commit:
        for (level, prefix), local in overlay.items():
            maps[level].setdefault(prefix, {}).update(local)
    return tuple(out)


def oracle_placement_key(hierarchy: Hierarchy, order, comm_size: int) -> tuple:
    """The placement's canonical form by greedy relabeling.

    Relabels digits by first occurrence while feeding comm 0 first and
    then repeatedly the lexicographically smallest remaining
    communicator, so the form is blind to the machine's unit labels and
    to the enumeration order of comms 1..k.  O(n_comms^2 * comm_size *
    depth): seconds per order on the paper's machines.
    """
    reordering = RankReordering(hierarchy, tuple(order), comm_size)
    comms = [
        decompose_many(hierarchy, reordering.comm_members(c))
        for c in range(reordering.n_comms)
    ]
    maps: list[dict] = [{} for _ in range(hierarchy.depth)]
    canon = [_oracle_relabel(maps, comms[0], commit=True)]
    remaining = comms[1:]
    while remaining:
        peeks = [_oracle_relabel(maps, c, commit=False) for c in remaining]
        i = min(range(len(peeks)), key=peeks.__getitem__)
        canon.append(_oracle_relabel(maps, remaining.pop(i), commit=True))
    return tuple(canon)


def _groups(key_fn, hierarchy: Hierarchy, comm_size: int) -> list[list]:
    """Orders grouped by ``key_fn``, groups in first-seen order."""
    groups: dict = {}
    for order in all_orders(hierarchy.depth):
        groups.setdefault(key_fn(hierarchy, order, comm_size), []).append(order)
    return list(groups.values())


def _ragged(hierarchy: Hierarchy, order, comm_size: int) -> bool:
    """Whether ``comm_size`` fails to factor through ``order``: some
    level's radix neither divides nor is divided by what remains."""
    rem = comm_size
    for level in order:
        radix = hierarchy.radices[level]
        if rem % radix == 0:
            rem //= radix
        elif radix % rem == 0:
            return False
        else:
            return True
    return False


class TestPlacementKeyOracle:
    """Same partition of orders, same first-seen representative."""

    @seed(20)
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=4)
        .filter(lambda radices: math.prod(radices) <= 48)
        .map(lambda radices: Hierarchy(tuple(radices)))
    )
    # Ragged sizes: a radix 3 or 6 against communicators of 2 or 4.
    @example(Hierarchy((2, 2, 2, 3)))
    @example(Hierarchy((3, 2, 2, 3)))
    @example(Hierarchy((6, 4)))
    def test_partition_matches_greedy_canonical_form(self, h):
        for comm_size in (d for d in range(1, h.size + 1) if h.size % d == 0):
            assert _groups(placement_key, h, comm_size) == _groups(
                oracle_placement_key, h, comm_size
            ), (h, comm_size)

    def test_ragged_classes_can_merge(self):
        # [[2,2,2,3]] at comm size 2: the radix-3 level runs fastest, so
        # comms straddle its triples; the two slowest levels still swap.
        h = Hierarchy((2, 2, 2, 3))
        assert _ragged(h, (3, 0, 1, 2), 2)
        assert placement_key(h, (3, 0, 1, 2), 2) == placement_key(h, (3, 0, 2, 1), 2)
        assert placement_key(h, (3, 0, 1, 2), 2) != placement_key(h, (3, 1, 0, 2), 2)

    def test_hydra16_classes(self, hydra_hierarchy):
        # Pinned from the greedy form (1.5 s); 24 orders -> 12 classes.
        assert len(_groups(placement_key, hydra_hierarchy, 16)) == 12

    def test_lumi16_classes(self):
        # Pinned from the greedy form (about two minutes for the 120
        # orders, too slow to rerun here); the closed form takes ~0.3 ms.
        lumi = Hierarchy((16, 2, 4, 2, 8))
        assert len(_groups(placement_key, lumi, 16)) == 29

    def test_validates_its_arguments(self, fig1_hierarchy):
        with pytest.raises(ValueError, match="divide"):
            placement_key(fig1_hierarchy, (0, 1, 2), 3)
        with pytest.raises(ValueError, match="permutation"):
            placement_key(fig1_hierarchy, (0, 1, 1), 4)
