"""Property-based tests on the round-contention model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import CommProgram, CommRound, get_backend
from repro.topology.machines import generic_cluster

TOPO = generic_cluster((2, 2, 2, 4), names=("node", "socket", "numa", "core"))
N = TOPO.n_cores
CORES = np.arange(N)


def round_time(src, dst, nbytes) -> float:
    """One core-space round's duration under the round backend."""
    program = CommProgram(N, (CommRound(src, dst, nbytes),))
    return get_backend("round").run(program, TOPO, [CORES]).per_round[0].seconds


@st.composite
def flow_sets(draw, min_flows=1, max_flows=12):
    n = draw(st.integers(min_flows, max_flows))
    src = [draw(st.integers(0, N - 1)) for _ in range(n)]
    dst = [draw(st.integers(0, N - 1)) for _ in range(n)]
    nbytes = draw(st.floats(1.0, 1e7))
    return np.array(src), np.array(dst), nbytes


@given(flow_sets())
@settings(max_examples=60, deadline=None)
def test_round_time_nonnegative_and_finite(flows):
    src, dst, nbytes = flows
    t = round_time(src, dst, nbytes)
    assert t >= 0.0
    assert np.isfinite(t)


@given(flow_sets())
@settings(max_examples=60, deadline=None)
def test_adding_a_flow_never_speeds_a_round(flows):
    src, dst, nbytes = flows
    base = round_time(src, dst, nbytes)
    extra_src = np.append(src, 0)
    extra_dst = np.append(dst, N - 1)
    bigger = round_time(extra_src, extra_dst, nbytes)
    assert bigger >= base - 1e-15


@given(flow_sets(), st.floats(1.5, 8.0))
@settings(max_examples=60, deadline=None)
def test_round_time_monotone_in_bytes(flows, factor):
    src, dst, nbytes = flows
    small = round_time(src, dst, nbytes)
    large = round_time(src, dst, nbytes * factor)
    assert large >= small - 1e-15


@given(flow_sets())
@settings(max_examples=40, deadline=None)
def test_bandwidth_regime_scales_linearly(flows):
    """Far above the latency regime, doubling bytes doubles the time."""
    src, dst, nbytes = flows
    if (src == dst).all():
        return
    big = 1e9
    t1 = round_time(src, dst, big)
    t2 = round_time(src, dst, 2 * big)
    assert t2 / t1 == np.float64(2.0) or abs(t2 / t1 - 2.0) < 1e-3


@given(st.integers(0, N - 1), st.integers(0, N - 1))
@settings(max_examples=60, deadline=None)
def test_latency_respects_hierarchy_depth(a, b):
    """Crossing more levels never lowers the uncontended time."""
    lca = int(TOPO.lca_level(np.array([a]), np.array([b]))[0])
    t = round_time(np.array([a]), np.array([b]), 1e4)
    # Compare against a same-numa pair (deepest non-self LCA).
    t_local = round_time(np.array([0]), np.array([1]), 1e4)
    if lca < TOPO.depth - 1:  # crosses at least one level above cores
        assert t >= t_local - 1e-15


@given(flow_sets(min_flows=2, max_flows=8))
@settings(max_examples=40, deadline=None)
def test_splitting_a_round_never_helps_total(flows):
    """Serializing a round's flows into two sub-rounds cannot beat the
    single contended round by more than the removed contention allows --
    concretely, the two-round total is at least the one-round time for
    equal-size flows (each sub-round still pays full latency)."""
    src, dst, nbytes = flows
    if (src == dst).all():
        return
    whole = round_time(src, dst, nbytes)
    half = len(src) // 2 or 1
    first = round_time(src[:half], dst[:half], nbytes)
    second = round_time(src[half:], dst[half:], nbytes)
    assert first + second >= whole - 1e-12
