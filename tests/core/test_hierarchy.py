"""Unit tests for hierarchy descriptions."""

import pytest

from repro.core.hierarchy import Hierarchy, homogeneous_hierarchy


class TestConstruction:
    def test_basic(self):
        h = Hierarchy((2, 2, 4))
        assert h.size == 16
        assert h.depth == 3
        assert len(h) == 3
        assert list(h) == [2, 2, 4]
        assert h[1] == 2

    def test_default_names(self):
        h = Hierarchy((2, 3))
        assert h.names == ("level0", "level1")

    def test_explicit_names(self):
        h = Hierarchy((2, 3), names=("node", "core"))
        assert h.names == ("node", "core")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Hierarchy(())

    @pytest.mark.parametrize("bad", [0, 1, -2])
    def test_rejects_degenerate_radix(self, bad):
        with pytest.raises(ValueError, match="radix"):
            Hierarchy((2, bad))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            Hierarchy((2, 2), names=("only-one",))

    def test_str_uses_paper_notation(self):
        assert str(Hierarchy((16, 2, 2, 8))) == "[[16, 2, 2, 8]]"

    def test_frozen(self):
        h = Hierarchy((2, 2))
        with pytest.raises(AttributeError):
            h.radices = (3, 3)


class TestDerived:
    def test_permuted(self):
        h = Hierarchy((2, 4, 8), names=("a", "b", "c"))
        p = h.permuted((2, 0, 1))
        assert p.radices == (8, 2, 4)
        assert p.names == ("c", "a", "b")

    def test_permuted_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Hierarchy((2, 2)).permuted((0, 0))

    def test_fake_level_splits_socket(self):
        # Section 3.2: a 16-core socket faked as 2 groups of 8.
        h = Hierarchy((16, 2, 16), names=("node", "socket", "core"))
        f = h.with_fake_level(2, 2)
        assert f.radices == (16, 2, 2, 8)
        assert f.names == ("node", "socket", "core-group", "core")
        assert f.size == h.size

    @pytest.mark.parametrize("split", [3, 16, 1])
    def test_fake_level_rejects_bad_split(self, split):
        h = Hierarchy((2, 16))
        with pytest.raises(ValueError):
            h.with_fake_level(1, split)

    def test_prefix_adds_network_levels(self):
        # Section 3.2: [[2, 3, 16]] network prefix over node hierarchy.
        node = Hierarchy((2, 2, 8))
        full = node.with_prefix((2, 3), names=("island", "switch"))
        assert full.radices == (2, 3, 2, 2, 8)
        assert full.names[:2] == ("island", "switch")

    def test_inner(self):
        h = Hierarchy((16, 2, 2, 8), names=("node", "socket", "group", "core"))
        assert h.inner(1).radices == (2, 2, 8)
        assert h.inner(1).names == ("socket", "group", "core")
        with pytest.raises(IndexError):
            h.inner(4)

    def test_strides(self):
        assert Hierarchy((2, 2, 4)).strides() == (8, 4, 1)
        assert Hierarchy((16, 2, 2, 8)).strides() == (32, 16, 8, 1)


class TestHash:
    def test_equal_hierarchies_hash_equal(self):
        a = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
        b = Hierarchy([2, 2, 4], names=["node", "socket", "core"])
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert Hierarchy((2, 2, 4)) != a

    def test_masked_keeps_equality_and_hash(self):
        h = Hierarchy((3, 2, 4))
        masked = h.without_cores(range(8))
        assert masked.masked
        plain = Hierarchy((2, 2, 4))
        assert masked == plain and hash(masked) == hash(plain)
        assert hash(masked) == hash((masked.radices, masked.names))

    def test_pickled_copy_hashes_afresh(self):
        import pickle

        h = Hierarchy((2, 4))
        hash(h)
        copy = pickle.loads(pickle.dumps(h))
        assert "_hash" not in copy.__dict__
        assert copy == h and hash(copy) == hash(h)


class TestValidation:
    def test_check_process_count_accepts_exact(self):
        Hierarchy((2, 2, 4)).check_process_count(16)

    @pytest.mark.parametrize("n", [15, 17, 1, 0])
    def test_check_process_count_rejects_mismatch(self, n):
        # Constraint (1) of Section 3.2.
        with pytest.raises(ValueError, match="processes"):
            Hierarchy((2, 2, 4)).check_process_count(n)


def test_homogeneous_hierarchy_builder():
    h = homogeneous_hierarchy([("node", 4), ("core", 8)])
    assert h.radices == (4, 8)
    assert h.names == ("node", "core")
