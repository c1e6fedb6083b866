"""Unit tests for the fast round-contention model."""

import numpy as np
import pytest

from repro.netsim.fabric import Fabric, Round, RoundSchedule
from repro.topology.machine import LevelParams, MachineTopology


def _topo():
    """[[2, 2, 4]]: node uplink 10 GB/s, socket 20 GB/s, core 5 GB/s."""
    return MachineTopology(
        "t",
        (
            LevelParams("node", 2, 10e9, 1e-6, 0),
            LevelParams("socket", 2, 20e9, 0.5e-6, 0),
            LevelParams("core", 4, 5e9, 0.25e-6, 0),
        ),
    )


class TestRound:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Round(np.array([0]), np.array([1, 2]), 10.0)

    def test_repeat_positive(self):
        with pytest.raises(ValueError):
            Round(np.array([0]), np.array([1]), 1.0, repeat=0)

    def test_key_distinguishes_sizes(self):
        a = Round(np.array([0]), np.array([1]), 10.0)
        b = Round(np.array([0]), np.array([1]), 20.0)
        assert a.key() != b.key()


class TestUncontended:
    def test_latency_only_for_zero_bytes(self):
        f = Fabric(_topo())
        t = f.uncontended_time(np.array([0]), np.array([1]), 0.0)
        assert t[0] == pytest.approx(0.25e-6)

    def test_bottleneck_is_slowest_link(self):
        f = Fabric(_topo())
        # Cross-node: path includes core (5), socket (20), node (10) GB/s.
        t = f.uncontended_time(np.array([0]), np.array([8]), 5e6)
        assert t[0] == pytest.approx(1e-6 + 5e6 / 5e9)

    def test_self_flow_free(self):
        f = Fabric(_topo())
        assert f.uncontended_time(np.array([3]), np.array([3]), 1e9)[0] == 0.0


class TestRoundTime:
    def test_single_flow_equals_uncontended(self):
        f = Fabric(_topo())
        rnd = Round(np.array([0]), np.array([8]), 4e6)
        expected = f.uncontended_time(np.array([0]), np.array([8]), 4e6)[0]
        assert f.round_time(rnd) == pytest.approx(expected)

    def test_contention_halves_share(self):
        f = Fabric(_topo())
        # Two flows from the same node to the other node share the
        # 10 GB/s uplink: 5 GB/s each (core links allow 5 anyway; use a
        # size where bandwidth dominates latency).
        rnd = Round(np.array([0, 1]), np.array([8, 9]), 50e6)
        t2 = f.round_time(rnd)
        one = f.round_time(Round(np.array([0]), np.array([8]), 50e6))
        assert t2 == pytest.approx(50e6 / 5e9 + 1e-6, rel=1e-6)
        assert t2 >= one

    def test_four_flows_quarter_share(self):
        f = Fabric(_topo())
        rnd = Round(np.arange(4), np.arange(8, 12), 50e6)
        assert f.round_time(rnd) == pytest.approx(50e6 / 2.5e9 + 1e-6, rel=1e-6)

    def test_disjoint_flows_do_not_interact(self):
        f = Fabric(_topo())
        # One flow inside each socket: no shared links.
        rnd = Round(np.array([0, 4, 8, 12]), np.array([1, 5, 9, 13]), 10e6)
        single = f.round_time(Round(np.array([0]), np.array([1]), 10e6))
        assert f.round_time(rnd) == pytest.approx(single)

    def test_self_flows_ignored(self):
        f = Fabric(_topo())
        rnd = Round(np.array([0, 1]), np.array([0, 2]), 1e6)
        only = f.round_time(Round(np.array([1]), np.array([2]), 1e6))
        assert f.round_time(rnd) == pytest.approx(only)

    def test_all_self_flows_is_free(self):
        f = Fabric(_topo())
        assert f.round_time(Round(np.arange(4), np.arange(4), 1e6)) == 0.0

    def test_per_flow_sizes(self):
        f = Fabric(_topo())
        rnd = Round(np.array([0, 2]), np.array([1, 3]), np.array([1e6, 9e6]))
        # Independent pairs within a socket; the big flow dominates.
        assert f.round_time(rnd) == pytest.approx(0.25e-6 + 9e6 / 5e9)

    def test_cache_hit_consistency(self):
        f = Fabric(_topo())
        rnd = Round(np.array([0]), np.array([8]), 1e6)
        assert f.round_time(rnd) == f.round_time(rnd)

    def test_root_bw_caps_cross_node_traffic(self):
        from dataclasses import replace

        topo = replace(_topo(), root_bw=4e9)
        f = Fabric(topo)
        rnd = Round(np.array([0, 8]), np.array([8, 0]), 40e6)
        # 2 flows through a 4 GB/s root: 2 GB/s each.
        assert f.round_time(rnd) == pytest.approx(1e-6 + 40e6 / 2e9, rel=1e-3)


class TestSchedule:
    def test_total_time_sums_rounds(self):
        f = Fabric(_topo())
        r1 = Round(np.array([0]), np.array([1]), 1e6)
        r2 = Round(np.array([0]), np.array([8]), 1e6)
        sched = RoundSchedule([r1, r2])
        assert sched.total_time(f) == pytest.approx(
            f.round_time(r1) + f.round_time(r2)
        )

    def test_repeat_multiplies(self):
        f = Fabric(_topo())
        r = Round(np.array([0]), np.array([1]), 1e6, repeat=5)
        assert RoundSchedule([r]).total_time(f) == pytest.approx(
            5 * f.round_time(Round(np.array([0]), np.array([1]), 1e6))
        )

    def test_n_rounds_and_bytes(self):
        r = Round(np.array([0, 1]), np.array([1, 2]), 100.0, repeat=3)
        s = RoundSchedule([r])
        assert s.n_rounds == 3
        assert s.total_bytes == 600.0

    def test_merge_synchronizes_rounds(self):
        f = Fabric(_topo())
        # Four single-round schedules through the same 10 GB/s node
        # uplink: merged, each flow drops to 2.5 GB/s.
        parts = [
            RoundSchedule([Round(np.array([i]), np.array([8 + i]), 50e6)])
            for i in range(4)
        ]
        merged = RoundSchedule.merge(parts)
        assert merged.rounds[0].n_flows == 4
        assert merged.total_time(f) > parts[0].total_time(f)

    def test_merge_single_schedule_identity(self):
        s = RoundSchedule([Round(np.array([0]), np.array([1]), 1.0)])
        assert RoundSchedule.merge([s]) is s

    def test_merge_empty(self):
        assert RoundSchedule.merge([]).rounds == []

    def test_merge_preserves_repeat_when_aligned(self):
        s1 = RoundSchedule([Round(np.array([0]), np.array([1]), 1.0, repeat=3)])
        s2 = RoundSchedule([Round(np.array([2]), np.array([3]), 1.0, repeat=3)])
        merged = RoundSchedule.merge([s1, s2])
        assert len(merged.rounds) == 1
        assert merged.rounds[0].repeat == 3

    def test_merge_expands_mismatched_repeats(self):
        s1 = RoundSchedule([Round(np.array([0]), np.array([1]), 1.0, repeat=2)])
        s2 = RoundSchedule([Round(np.array([2]), np.array([3]), 1.0)])
        merged = RoundSchedule.merge([s1, s2])
        assert merged.n_rounds == 2
        assert merged.rounds[0].n_flows == 2  # both schedules in round 0
        assert merged.rounds[1].n_flows == 1  # s1 finishes alone


class TestRoundCache:
    def _round(self, i):
        return Round(np.array([0]), np.array([1]), float(i + 1))

    def test_hit_and_miss_counters(self):
        f = Fabric(_topo())
        rnd = self._round(0)
        t1 = f.round_time(rnd)
        assert (f.cache_stats.misses, f.cache_stats.hits) == (1, 0)
        t2 = f.round_time(self._round(0))  # equal pattern, fresh object
        assert (f.cache_stats.misses, f.cache_stats.hits) == (1, 1)
        assert t1 == t2

    def test_eviction_past_cache_limit(self):
        f = Fabric(_topo())
        f.CACHE_LIMIT = 2
        for i in range(3):
            f.round_time(self._round(i))
        assert f.cache_stats.evictions == 1
        assert len(f._cache) == 2
        # The evicted pattern (oldest) recomputes; the newest still hits.
        f.round_time(self._round(2))
        assert f.cache_stats.hits == 1
        f.round_time(self._round(0))
        assert f.cache_stats.misses == 4

    def test_lru_order_protects_recently_used(self):
        f = Fabric(_topo())
        f.CACHE_LIMIT = 2
        f.round_time(self._round(0))
        f.round_time(self._round(1))
        f.round_time(self._round(0))  # refresh 0: 1 becomes the LRU entry
        f.round_time(self._round(2))  # evicts 1, not 0
        misses = f.cache_stats.misses
        f.round_time(self._round(0))
        assert f.cache_stats.misses == misses  # still cached

    def test_process_wide_stats_accumulate(self):
        from repro.netsim.fabric import FABRIC_CACHE_STATS

        before = FABRIC_CACHE_STATS.hits + FABRIC_CACHE_STATS.misses
        f = Fabric(_topo())
        f.round_time(self._round(0))
        f.round_time(self._round(0))
        assert FABRIC_CACHE_STATS.hits + FABRIC_CACHE_STATS.misses == before + 2
        doc = FABRIC_CACHE_STATS.to_jsonable()
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(doc)


class TestLogPCoefficients:
    PATTERNS = [
        (np.array([0, 1]), np.array([1, 8])),
        (np.array([2, 3]), np.array([2, 3])),  # self-flows only
    ]

    def _coefficients(self, f, j):
        src, dst = self.PATTERNS[j]
        return f.logp_coefficients(
            (b"placement",), [(src.tobytes(), dst.tobytes())], lambda _: [(src, dst)]
        )[0]

    def test_pairs_are_the_fair_share_maxima(self):
        from repro.netsim.fabric import NO_FLOWS

        f = Fabric(_topo())
        _, lat, inv_share = next(f.fair_shares([self.PATTERNS[0]], inverse=True))
        assert self._coefficients(f, 0) == (float(lat.max()), float(inv_share.max()))
        assert self._coefficients(f, 1) is NO_FLOWS

    def test_structure_memo_counts_hits_misses_and_evictions(self):
        from repro.netsim.fabric import STRUCTURE_CACHE_STATS as stats

        f = Fabric(_topo())
        f.COEFFICIENT_LIMIT = 1
        before = (stats.hits, stats.misses, stats.evictions)
        for j in (0, 0, 1, 0):  # miss, hit, miss + evict, miss + evict
            self._coefficients(f, j)
        after = (stats.hits, stats.misses, stats.evictions)
        assert tuple(a - b for a, b in zip(after, before)) == (1, 3, 2)
        assert len(f._coefficients) == 1
