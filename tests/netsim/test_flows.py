"""Unit tests for exact max-min fair sharing (progressive filling)."""

import numpy as np
import pytest

from repro.netsim.flows import KERNEL_STATS, Flow, FlowNetwork, RateAuditError
from repro.topology.machine import LevelParams, MachineTopology


def _topo():
    return MachineTopology(
        "t",
        (
            LevelParams("node", 2, 10e9, 1e-6, 0),
            LevelParams("socket", 2, 20e9, 0.5e-6, 0),
            LevelParams("core", 4, 5e9, 0.25e-6, 0),
        ),
    )


class TestPaths:
    def test_self_flow_has_empty_path(self):
        net = FlowNetwork(_topo())
        assert net.path_edges(3, 3) == []

    def test_intra_socket_uses_core_edges_only(self):
        net = FlowNetwork(_topo())
        edges = net.path_edges(0, 1)
        assert len(edges) == 2  # up from core 0, down to core 1

    def test_cross_node_uses_all_levels(self):
        net = FlowNetwork(_topo())
        edges = net.path_edges(0, 8)
        assert len(edges) == 6  # 3 levels x 2 directions

    def test_latency_matches_topology(self):
        net = FlowNetwork(_topo())
        assert net.latency(0, 8) == pytest.approx(1e-6)
        assert net.latency(0, 1) == pytest.approx(0.25e-6)
        assert net.latency(2, 2) == 0.0


class TestMaxMin:
    def test_single_flow_gets_bottleneck(self):
        net = FlowNetwork(_topo())
        rates = net.max_min_rates([Flow(0, 8, 1e6)])
        assert rates[0] == pytest.approx(5e9)  # core edge binds

    def test_two_flows_share_fairly(self):
        net = FlowNetwork(_topo())
        flows = [Flow(0, 8, 1e6), Flow(1, 9, 1e6)]
        rates = net.max_min_rates(flows)
        # Node uplink 10 GB/s / 2 = 5 GB/s = core cap: both get 5.
        assert np.allclose(rates, 5e9)

    def test_four_flows_bottlenecked_at_nic(self):
        net = FlowNetwork(_topo())
        flows = [Flow(i, 8 + i, 1e6) for i in range(4)]
        rates = net.max_min_rates(flows)
        assert np.allclose(rates, 2.5e9)

    def test_max_min_refills_spare_capacity(self):
        net = FlowNetwork(_topo())
        # One flow crosses nodes, one stays inside the other socket.
        flows = [Flow(0, 8, 1e6), Flow(4, 5, 1e6)]
        rates = net.max_min_rates(flows)
        assert rates[0] == pytest.approx(5e9)
        assert rates[1] == pytest.approx(5e9)

    def test_asymmetric_bottleneck(self):
        net = FlowNetwork(_topo())
        # Three flows out of node 0 (share 10/3) + one local flow in the
        # destination node unaffected except via its own core edge.
        flows = [Flow(i, 8 + i, 1e6) for i in range(3)] + [Flow(12, 13, 1e6)]
        rates = net.max_min_rates(flows)
        assert np.allclose(rates[:3], 10e9 / 3)
        assert rates[3] == pytest.approx(5e9)

    def test_self_flow_infinite_rate(self):
        net = FlowNetwork(_topo())
        rates = net.max_min_rates([Flow(2, 2, 1e3)])
        assert np.isinf(rates[0])

    def test_empty(self):
        net = FlowNetwork(_topo())
        assert net.max_min_rates([]).size == 0

    def test_total_rate_never_exceeds_capacity(self):
        rng = np.random.default_rng(1)
        net = FlowNetwork(_topo())
        flows = [
            Flow(int(a), int(b), 1.0)
            for a, b in rng.integers(0, 16, size=(20, 2))
            if a != b
        ]
        rates = net.max_min_rates(flows)
        # Check the node-0 uplink specifically.
        uplink_total = sum(
            r
            for f, r in zip(flows, rates)
            if f.src < 8 and f.dst >= 8
        )
        assert uplink_total <= 10e9 * (1 + 1e-9)

    def test_apply_rates_mutates_flows(self):
        net = FlowNetwork(_topo())
        flows = [Flow(0, 1, 1e6)]
        net.apply_rates(flows)
        assert flows[0].rate == pytest.approx(5e9)


class TestFlowDataclass:
    def test_remaining_defaults_to_nbytes(self):
        f = Flow(0, 1, 123.0)
        assert f.remaining == 123.0

    def test_explicit_remaining_preserved(self):
        f = Flow(0, 1, 123.0, remaining=50.0)
        assert f.remaining == 50.0


class TestIncrementalKernel:
    def test_unchanged_signature_skips_recompute(self):
        net = FlowNetwork(_topo())
        flows = [Flow(0, 8, 1e6), Flow(1, 9, 1e6)]
        before = KERNEL_STATS.signature_skips
        net.apply_rates(flows)
        net.apply_rates(flows)
        assert KERNEL_STATS.signature_skips == before + 1

    def test_revisited_signature_hits_memo(self):
        net = FlowNetwork(_topo())
        a = [Flow(0, 8, 1e6)]
        b = [Flow(1, 9, 1e6)]
        hits, solves = KERNEL_STATS.memo_hits, KERNEL_STATS.solves
        net.apply_rates(a)
        net.apply_rates(b)
        net.apply_rates(a)  # seen before, but not the immediately-last set
        assert KERNEL_STATS.memo_hits == hits + 1
        assert KERNEL_STATS.solves == solves + 2
        assert a[0].rate == pytest.approx(5e9)

    def test_fault_token_isolates_memo_entries(self):
        net = FlowNetwork(_topo())
        flows = [Flow(0, 8, 1e6)]
        net.apply_rates(flows)
        healthy_rate = flows[0].rate
        net.set_link_faults([(0, 0, 0.25, 1.0)])  # node-0 uplink to 2.5 GB/s
        net.apply_rates(flows)
        assert flows[0].rate == pytest.approx(healthy_rate / 2)
        # Clearing the faults revalidates the healthy memo entries.
        hits = KERNEL_STATS.memo_hits
        net.set_link_faults([])
        net.apply_rates(flows)
        assert flows[0].rate == healthy_rate
        assert KERNEL_STATS.memo_hits == hits + 1

    def test_non_incremental_mode_runs_the_reference(self):
        net = FlowNetwork(_topo(), incremental=False)
        flows = [Flow(0, 8, 1e6)]
        # The rate memo is shared per topology, so earlier networks may
        # have filled it: drop this active set's entry, then check the
        # reference solves put none back.
        net.rate_memo.pop(net._signature(flows), None)
        entries = len(net.rate_memo)
        refs = KERNEL_STATS.reference_solves
        net.apply_rates(flows)
        net.apply_rates(flows)
        assert KERNEL_STATS.reference_solves == refs + 2
        assert len(net.rate_memo) == entries
        assert net._signature(flows) not in net.rate_memo

    def test_rate_memo_is_shared_per_topology(self):
        flows = [Flow(0, 9, 1e6), Flow(1, 8, 1e6)]
        first = FlowNetwork(_topo())
        first.rate_memo.pop(first._signature(flows), None)
        first.apply_rates(flows)
        hits = KERNEL_STATS.memo_hits
        FlowNetwork(_topo()).apply_rates(flows)
        assert KERNEL_STATS.memo_hits == hits + 1

    def test_audit_mode_raises_on_divergence(self):
        net = FlowNetwork(_topo(), audit=True)
        flows = [Flow(0, 8, 1e6)]
        net.apply_rates(flows)  # also audits; must pass
        # Poison the memo entry and force the memo path: the audit must
        # catch the (synthetic) divergence.  The memo outlives this
        # network, so the entry is restored whatever happens.
        key = net._signature(flows)
        rates = net.rate_memo[key]
        try:
            net.rate_memo[key] = rates * 0.5
            net._last_key = None
            with pytest.raises(RateAuditError, match="diverge"):
                net.apply_rates(flows)
        finally:
            net.rate_memo[key] = rates

    def test_path_edges_returns_a_private_copy(self):
        net = FlowNetwork(_topo())
        edges = net.path_edges(0, 8)
        edges.append(999)
        assert 999 not in net.path_edges(0, 8)

    def test_set_link_faults_tracks_max_capacity(self):
        net = FlowNetwork(_topo())
        healthy = net.max_capacity
        assert healthy == 20e9  # socket links are the fattest
        net.set_link_faults([(1, c, 0.1, 1.0) for c in range(4)])
        assert net.max_capacity == pytest.approx(10e9)  # node links now
        net.set_link_faults([])
        assert net.max_capacity == healthy
