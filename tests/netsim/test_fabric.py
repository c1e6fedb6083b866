"""Unit tests for the fast round-contention model."""

import numpy as np
import pytest

from repro.ir import CommProgram, CommRound, get_backend
from repro.netsim.fabric import STRUCTURE_CACHE_STATS, Fabric
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


def _run(topo, rounds, placements=None):
    """The round backend's result of core-space ``rounds``."""
    program = CommProgram(topo.n_cores, tuple(rounds))
    if placements is None:
        placements = [np.arange(topo.n_cores)]
    return get_backend("round").run(program, topo, placements)


def _round_time(src, dst, nbytes, topo=None):
    """Duration of one core-space round under the round model."""
    rnd = CommRound(np.asarray(src), np.asarray(dst), nbytes)
    return _run(topo or _topo(), [rnd]).per_round[0].seconds


class TestRound:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CommRound(np.array([0]), np.array([1, 2]), 10.0)

    def test_repeat_positive(self):
        with pytest.raises(ValueError):
            CommRound(np.array([0]), np.array([1]), 1.0, repeat=0)

    def test_key_distinguishes_sizes(self):
        a = CommRound(np.array([0]), np.array([1]), 10.0)
        b = CommRound(np.array([0]), np.array([1]), 20.0)
        assert a.key() != b.key()
        assert a.structure_key() == b.structure_key()  # one pattern


class TestUncontended:
    """A flow alone in its round: latency plus serialization."""

    def test_latency_only_for_zero_bytes(self):
        assert _round_time([0], [1], 0.0) == pytest.approx(0.25e-6)

    def test_bottleneck_is_slowest_link(self):
        # Cross-node: path includes core (5), socket (20), node (10) GB/s.
        assert _round_time([0], [8], 5e6) == pytest.approx(1e-6 + 5e6 / 5e9)

    def test_self_flow_free(self):
        assert _round_time([3], [3], 1e9) == 0.0


class TestRoundTime:
    def test_single_flow_equals_uncontended(self):
        assert _round_time([0], [8], 4e6) == pytest.approx(1e-6 + 4e6 / 5e9)

    def test_contention_halves_share(self):
        # Two flows from the same node to the other node share the
        # 10 GB/s uplink: 5 GB/s each (core links allow 5 anyway; use a
        # size where bandwidth dominates latency).
        t2 = _round_time([0, 1], [8, 9], 50e6)
        one = _round_time([0], [8], 50e6)
        assert t2 == pytest.approx(50e6 / 5e9 + 1e-6, rel=1e-6)
        assert t2 >= one

    def test_four_flows_quarter_share(self):
        t = _round_time(np.arange(4), np.arange(8, 12), 50e6)
        assert t == pytest.approx(50e6 / 2.5e9 + 1e-6, rel=1e-6)

    def test_disjoint_flows_do_not_interact(self):
        # One flow inside each socket: no shared links.
        single = _round_time([0], [1], 10e6)
        assert _round_time([0, 4, 8, 12], [1, 5, 9, 13], 10e6) == pytest.approx(single)

    def test_self_flows_ignored(self):
        only = _round_time([1], [2], 1e6)
        assert _round_time([0, 1], [0, 2], 1e6) == pytest.approx(only)

    def test_all_self_flows_is_free(self):
        assert _round_time(np.arange(4), np.arange(4), 1e6) == 0.0

    def test_per_flow_sizes(self):
        # Independent pairs within a socket; the big flow dominates.
        t = _round_time([0, 2], [1, 3], np.array([1e6, 9e6]))
        assert t == pytest.approx(0.25e-6 + 9e6 / 5e9)

    def test_cache_hit_consistency(self):
        topo = _topo()
        first = _round_time([0], [8], 1e6, topo)
        hits = STRUCTURE_CACHE_STATS.hits
        assert _round_time([0], [8], 1e6, topo) == first
        assert STRUCTURE_CACHE_STATS.hits == hits + 1

    def test_root_bw_caps_cross_node_traffic(self):
        from dataclasses import replace

        topo = replace(_topo(), root_bw=4e9)
        # 2 flows through a 4 GB/s root: 2 GB/s each.
        t = _round_time([0, 8], [8, 0], 40e6, topo)
        assert t == pytest.approx(1e-6 + 40e6 / 2e9, rel=1e-3)


class TestSchedule:
    """Whole programs: rounds in sequence, placements merged per round."""

    def test_total_time_sums_rounds(self):
        r1 = CommRound(np.array([0]), np.array([1]), 1e6)
        r2 = CommRound(np.array([0]), np.array([8]), 1e6)
        assert _run(_topo(), [r1, r2]).time == pytest.approx(
            _round_time([0], [1], 1e6) + _round_time([0], [8], 1e6)
        )

    def test_repeat_multiplies(self):
        r = CommRound(np.array([0]), np.array([1]), 1e6, repeat=5)
        assert _run(_topo(), [r]).time == pytest.approx(5 * _round_time([0], [1], 1e6))

    def test_n_rounds_and_bytes(self):
        r = CommRound(np.array([0, 1]), np.array([1, 2]), 100.0, repeat=3)
        program = CommProgram(3, (r,))
        assert program.n_rounds == 3
        assert program.total_bytes == 600.0

    def test_merge_synchronizes_rounds(self):
        # Four concurrent single-flow communicators through the same
        # 10 GB/s node uplink: merged, each flow drops to 2.5 GB/s.
        topo = _topo()
        rnd = CommRound(np.array([0]), np.array([1]), 50e6)
        parts = [np.array([i, 8 + i]) for i in range(4)]
        merged = _run(topo, [rnd], parts)
        assert merged.per_round[0].n_flows == 4
        assert merged.time > _run(topo, [rnd], parts[:1]).time

    def test_merge_single_schedule_identity(self):
        # One communicator is the program itself: a bare core array and a
        # one-element placement list price the same.
        topo = _topo()
        rnd = CommRound(np.array([0]), np.array([1]), 1.0)
        cores = np.array([3, 9])
        assert _run(topo, [rnd], cores).time == _run(topo, [rnd], [cores]).time

    def test_merge_empty(self):
        result = _run(_topo(), [])
        assert result.time == 0.0
        assert result.per_round == ()

    def test_merge_preserves_repeat_when_aligned(self):
        rnd = CommRound(np.array([0]), np.array([1]), 1.0, repeat=3)
        merged = _run(_topo(), [rnd], [np.array([0, 1]), np.array([2, 3])])
        assert len(merged.per_round) == 1
        assert merged.per_round[0].repeat == 3
        assert merged.per_round[0].n_flows == 2


class TestRoundCache:
    """The per-fabric LRU memo of round structures."""

    @staticmethod
    def _pattern(i):
        return np.array([0]), np.array([1 + i])

    @staticmethod
    def _counts():
        s = STRUCTURE_CACHE_STATS
        return s.hits, s.misses, s.evictions

    def test_hit_and_miss_counters(self):
        f = Fabric(_topo())
        before = self._counts()
        first = f.round_structures([self._pattern(0)])[0]
        assert self._counts()[:2] == (before[0], before[1] + 1)
        again = f.round_structures([self._pattern(0)])[0]  # equal, fresh arrays
        assert self._counts()[:2] == (before[0] + 1, before[1] + 1)
        assert again is first

    def test_eviction_past_cache_limit(self):
        f = Fabric(_topo())
        f.CACHE_LIMIT = 2
        before = self._counts()
        for i in range(3):
            f.round_structures([self._pattern(i)])
        assert self._counts()[2] == before[2] + 1
        assert len(f._structures) == 2
        # The evicted pattern (oldest) recomputes; the newest still hits.
        f.round_structures([self._pattern(2)])
        assert self._counts()[0] == before[0] + 1
        f.round_structures([self._pattern(0)])
        assert self._counts()[1] == before[1] + 4

    def test_lru_order_protects_recently_used(self):
        f = Fabric(_topo())
        f.CACHE_LIMIT = 2
        for i in (0, 1, 0, 2):  # refresh 0: 1 becomes the LRU entry, 2 evicts it
            f.round_structures([self._pattern(i)])
        misses = self._counts()[1]
        f.round_structures([self._pattern(0)])
        assert self._counts()[1] == misses  # still cached

    def test_process_wide_stats_accumulate(self):
        before = STRUCTURE_CACHE_STATS.hits + STRUCTURE_CACHE_STATS.misses
        for f in (Fabric(_topo()), Fabric(_topo())):
            f.round_structures([self._pattern(0)])
        assert STRUCTURE_CACHE_STATS.hits + STRUCTURE_CACHE_STATS.misses == before + 2
        doc = STRUCTURE_CACHE_STATS.to_jsonable()
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(doc)


class TestLogPCoefficients:
    PATTERNS = [
        (np.array([0, 1]), np.array([1, 8])),
        (np.array([2, 3]), np.array([2, 3])),  # self-flows only
    ]

    def _table(self, which):
        return tuple((self.PATTERNS[j][0].tobytes(), self.PATTERNS[j][1].tobytes()) for j in which)

    def _coefficients(self, f, placements, which):
        """One entry per placement for the table of patterns ``which``
        (every placement places them at the same cores), the missing
        placements' flows in one chunk of ``(placement, pattern)`` units."""
        placed = [self.PATTERNS[j] for j in which]

        def chunks(missing):
            flows = [pattern for _ in missing for pattern in placed]
            sizes = [src.size for src, _ in flows]
            units = np.repeat(np.arange(len(flows)), sizes)
            yield (
                np.concatenate([src for src, _ in flows]),
                np.concatenate([dst for _, dst in flows]),
                units,
                len(flows),
            )

        return f.logp_coefficients([(p,) for p in placements], self._table(which), chunks)

    def test_pairs_are_the_fair_share_maxima(self):
        f = Fabric(_topo())
        _, lat, inv_share = next(f.fair_shares([self.PATTERNS[0]], inverse=True))
        a, b = self._coefficients(f, [b"a", b"b"], [0, 1])
        for entry in (a, b):
            assert entry.shape == (2, 2) and not entry.flags.writeable
            assert entry[0].tolist() == [float(lat.max()), float(inv_share.max())]
            assert np.isnan(entry[1]).all()  # self-flows only
        assert len(f._coefficients) == 2  # one entry per (placement, table)

    def test_structure_memo_counts_hits_misses_and_evictions(self):
        stats = STRUCTURE_CACHE_STATS
        f = Fabric(_topo())
        f.COEFFICIENT_LIMIT = 1
        before = (stats.hits, stats.misses, stats.evictions)
        for j in (0, 0, 1, 0):  # miss, hit, miss + evict, miss + evict
            self._coefficients(f, [b"placement"], [j])
        after = (stats.hits, stats.misses, stats.evictions)
        assert tuple(a - b for a, b in zip(after, before)) == (1, 3, 2)
        assert len(f._coefficients) == 1
