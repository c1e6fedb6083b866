"""Unit tests for annotated machine topologies."""

import numpy as np
import pytest

from repro.topology.machine import LevelParams, MachineTopology


def _toy(radices=(2, 2, 4)):
    names = ("node", "socket", "core")[: len(radices)]
    levels = tuple(
        LevelParams(n, r, link_bw=10e9 / (i + 1), link_lat=1e-6 / (i + 1), mem_bw=(0 if i == 0 else 20e9))
        for i, (n, r) in enumerate(zip(names, radices))
    )
    return MachineTopology("toy", levels)


class TestStructure:
    def test_counts(self):
        t = _toy()
        assert t.n_cores == 16
        assert t.depth == 3
        assert t.strides == (8, 4, 1)
        assert t.component_counts == (2, 4, 16)

    def test_hierarchy_names(self):
        assert _toy().hierarchy.names == ("node", "socket", "core")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MachineTopology("x", ())

    def test_component_of(self):
        t = _toy()
        cores = np.array([0, 3, 4, 8, 15])
        assert t.component_of(cores, 0).tolist() == [0, 0, 0, 1, 1]
        assert t.component_of(cores, 1).tolist() == [0, 0, 1, 2, 3]
        assert t.component_of(cores, 2).tolist() == [0, 3, 4, 8, 15]


class TestHash:
    def test_separately_built_topologies_hash_equal(self):
        a, b = _toy(), _toy()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert hash(a) == hash((a.name, a.levels, a.flop_rate, a.root_bw))
        assert _toy((2, 4)) != a

    def test_pickled_copy_hashes_afresh(self):
        import pickle

        t = _toy()
        hash(t)
        copy = pickle.loads(pickle.dumps(t))
        assert "_hash" not in copy.__dict__
        assert copy == t and hash(copy) == hash(t)


class TestLCA:
    def test_lca_levels(self):
        t = _toy()
        src = np.array([0, 0, 0, 0])
        dst = np.array([0, 1, 4, 8])
        assert t.lca_level(src, dst).tolist() == [3, 2, 1, 0]

    def test_hop_latency_zero_for_self(self):
        t = _toy()
        lat = t.hop_latency(np.array([3]))
        assert lat[0] == 0.0

    def test_hop_latency_by_level(self):
        t = _toy()
        lat = t.hop_latency(np.array([0, 1, 2]))
        assert lat[0] > lat[1] > lat[2] > 0


class TestDerived:
    def test_with_nodes(self):
        t = _toy().with_nodes(8)
        assert t.n_cores == 64
        assert t.levels[0].radix == 8

    def test_scaled_link_bw_models_second_nic(self):
        t = _toy()
        t2 = t.scaled_link_bw(0, 2.0)
        assert t2.levels[0].link_bw == 2 * t.levels[0].link_bw
        assert t2.levels[1].link_bw == t.levels[1].link_bw

    def test_node_topology_drops_level0(self):
        node = _toy().node_topology()
        assert node.depth == 2
        assert node.n_cores == 8

    def test_node_topology_requires_depth(self):
        single = MachineTopology(
            "flat", (LevelParams("core", 4, 1e9, 1e-6, 1e9),)
        )
        with pytest.raises(ValueError):
            single.node_topology()


class TestMemoryModel:
    def test_single_core_gets_full_bw(self):
        t = _toy()
        bw = t.effective_mem_bw([0])
        assert bw[0] == 20e9  # per-core cap

    def test_sharing_divides_capacity(self):
        t = _toy()
        # 4 cores in one socket share the socket's 20 GB/s.
        bw = t.effective_mem_bw([0, 1, 2, 3])
        assert np.allclose(bw, 20e9 / 4)

    def test_spread_cores_do_not_contend(self):
        t = _toy()
        # One core per socket: only the per-core cap binds.
        bw = t.effective_mem_bw([0, 4, 8, 12])
        assert np.allclose(bw, 20e9)

    def test_zero_capacity_levels_are_unbounded(self):
        t = _toy()
        # Level 0 (node) has mem_bw=0 -> no node-level cap.
        bw_one = t.effective_mem_bw([0, 4])
        bw_all = t.effective_mem_bw([0, 4, 8, 12])
        assert np.allclose(bw_one, bw_all[:2])

    def test_effective_bw_monotone_in_contention(self):
        t = _toy()
        sparse = t.effective_mem_bw([0, 1])
        dense = t.effective_mem_bw([0, 1, 2, 3])
        assert (dense[:2] <= sparse + 1e-9).all()


class TestValidation:
    def test_rank_to_core_bounds_checked_elsewhere(self):
        # coords_of round-trips through the hierarchy decomposition.
        t = _toy()
        coords = t.coords_of([5])
        assert coords.tolist() == [[0, 1, 1]]
