"""Property tests: the incremental/vectorized max-min kernel vs the seed
reference.

The golden regressions lock specific trajectories; these properties lock
the general contract on random inputs: the small-set and vectorized
solvers, the memoized ``apply_rates`` path (through arbitrary fault
sequences, with the per-topology memo shared between networks), and the
lazily-repriced DES are all *bitwise* interchangeable with the
from-scratch reference loop, and the allocation itself is the max-min
fixpoint (order-invariant as a multiset).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.netsim.flows import VECTOR_MIN_FLOWS, Flow, FlowNetwork
from repro.topology.machines import generic_cluster

TOPOS = (
    generic_cluster((2, 2, 4), names=("node", "socket", "core")),
    generic_cluster((3, 2, 2, 2), names=("node", "socket", "numa", "core")),
)


def _flows(pairs):
    return [Flow(s, d, 1e6) for s, d in pairs]


@st.composite
def flow_sets(draw, min_flows=1, max_flows=12):
    topo = TOPOS[draw(st.integers(0, len(TOPOS) - 1))]
    n = draw(st.integers(min_flows, max_flows))
    hi = topo.n_cores - 1
    pairs = [
        (draw(st.integers(0, hi)), draw(st.integers(0, hi))) for _ in range(n)
    ]
    return topo, pairs


@st.composite
def permuted_flow_sets(draw, min_flows=2, max_flows=10):
    topo, pairs = draw(flow_sets(min_flows=min_flows, max_flows=max_flows))
    perm = draw(st.permutations(range(len(pairs))))
    return topo, pairs, perm


@st.composite
def fault_sets(draw, topo):
    """An active-fault set to install; ``bw_factor`` 0 stalls a link."""
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        level = draw(st.integers(0, topo.depth - 1))
        comp = draw(st.integers(0, topo.component_counts[level] - 1))
        bw = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.05, 1.0))
        faults.append((level, comp, bw, draw(st.floats(1.0, 3.0))))
    return faults


@st.composite
def small_active_sets(draw):
    """Active sets below the dispatch floor, with self-flows, duplicate
    pairs and an installed fault set."""
    topo = TOPOS[draw(st.integers(0, len(TOPOS) - 1))]
    core = st.integers(0, topo.n_cores - 1)
    pair = st.tuples(core, core) | core.map(lambda c: (c, c))
    # Sizes drawn flat: tie-breaking only shows on sets of a dozen or more.
    pairs = [draw(pair) for _ in range(draw(st.integers(1, VECTOR_MIN_FLOWS - 5)))]
    pairs += [pairs[i] for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4))]
    pairs = draw(st.permutations(pairs))
    return topo, pairs, draw(fault_sets(topo))


@st.composite
def apply_sequences(draw):
    """Random interleavings of fault installs and active-set repricings."""
    topo = TOPOS[draw(st.integers(0, len(TOPOS) - 1))]
    hi = topo.n_cores - 1
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            faults = []
            for _ in range(draw(st.integers(0, 3))):
                level = draw(st.integers(0, topo.depth - 1))
                comp = draw(st.integers(0, topo.component_counts[level] - 1))
                faults.append(
                    (level, comp, draw(st.floats(0.05, 1.0)), draw(st.floats(1.0, 3.0)))
                )
            steps.append(("faults", faults))
        n = draw(st.integers(1, 8))
        steps.append(
            ("apply", [(draw(st.integers(0, hi)), draw(st.integers(0, hi)))
                       for _ in range(n)])
        )
    return topo, steps


@given(flow_sets(max_flows=24))
@settings(max_examples=60, deadline=None)
def test_vectorized_solve_bitwise_matches_reference(case):
    topo, pairs = case
    net = FlowNetwork(topo)
    flows = _flows(pairs)
    ref = net.max_min_rates_reference(flows)
    vec = net._solve([net._path_array(f.src, f.dst) for f in flows])
    assert np.array_equal(ref, vec)


@given(flow_sets(min_flows=VECTOR_MIN_FLOWS, max_flows=VECTOR_MIN_FLOWS + 16))
@settings(max_examples=20, deadline=None)
def test_public_kernel_bitwise_matches_reference_above_dispatch_floor(case):
    """Past the dispatch floor ``max_min_rates`` takes the vectorized path."""
    topo, pairs = case
    net = FlowNetwork(topo)
    flows = _flows(pairs)
    assert np.array_equal(
        net.max_min_rates(flows), net.max_min_rates_reference(flows)
    )


@seed(20241018)
@given(small_active_sets())
@settings(max_examples=60, deadline=None)
def test_public_kernel_bitwise_matches_reference_below_dispatch_floor(case):
    """Below the dispatch floor ``max_min_rates`` takes the plain-float
    solver; its rates are the reference's bit for bit (``tobytes`` tells
    ``-0.0`` from ``0.0``), stalled links included."""
    topo, pairs, faults = case
    assert len(pairs) < VECTOR_MIN_FLOWS
    net = FlowNetwork(topo)
    net.set_link_faults(faults)
    flows = _flows(pairs)
    got = net.max_min_rates(flows)
    assert got.tobytes() == net.max_min_rates_reference(flows).tobytes()


@st.composite
def shared_memo_histories(draw):
    """Two networks' interleaved steps on one topology: fault installs
    and repricings drawn from a small pool of pair sequences, so both
    networks ask the shared memo for the same sequences under different
    capacity states."""
    topo = TOPOS[draw(st.integers(0, len(TOPOS) - 1))]
    core = st.integers(0, topo.n_cores - 1)
    pool = draw(
        st.lists(st.lists(st.tuples(core, core), min_size=1, max_size=8),
                 min_size=1, max_size=3)
    )
    steps = []
    for _ in range(draw(st.integers(2, 10))):
        who = draw(st.integers(0, 1))
        if draw(st.booleans()):
            steps.append((who, "faults", draw(fault_sets(topo))))
        else:
            steps.append((who, "apply", draw(st.sampled_from(pool))))
    return topo, steps


@seed(20241019)
@given(shared_memo_histories())
@settings(max_examples=40, deadline=None)
def test_shared_rate_memo_never_leaks_across_capacity_states(case):
    """Networks on one machine share the rate memo; each still matches
    its own ``incremental=False`` twin bit for bit, whatever faults the
    other network installed."""
    topo, steps = case
    nets = [FlowNetwork(topo) for _ in range(2)]
    twins = [FlowNetwork(topo, incremental=False) for _ in range(2)]
    for who, kind, payload in steps:
        if kind == "faults":
            nets[who].set_link_faults(payload)
            twins[who].set_link_faults(payload)
            continue
        fi, fr = _flows(payload), _flows(payload)
        nets[who].apply_rates(fi)
        twins[who].apply_rates(fr)
        got = np.array([f.rate for f in fi])
        assert got.tobytes() == np.array([f.rate for f in fr]).tobytes()


@given(apply_sequences())
@settings(max_examples=40, deadline=None)
def test_incremental_equals_reference_across_fault_sequences(case):
    """Signature skips, memo replays, and fault-token rotation never
    change a single bit of any allocation, whatever the history."""
    topo, steps = case
    inc = FlowNetwork(topo, incremental=True)
    ref = FlowNetwork(topo, incremental=False)
    for kind, payload in steps:
        if kind == "faults":
            inc.set_link_faults(payload)
            ref.set_link_faults(payload)
        else:
            fi, fr = _flows(payload), _flows(payload)
            # Apply twice: the second call exercises the signature-skip
            # (inc) against a full recompute (ref).
            for _ in range(2):
                inc.apply_rates(fi)
                ref.apply_rates(fr)
                assert [f.rate for f in fi] == [f.rate for f in fr]


@given(permuted_flow_sets())
@settings(max_examples=40, deadline=None)
def test_allocation_multiset_invariant_under_flow_permutation(case):
    """The max-min allocation is unique, so reordering the active set
    permutes the rates (to float precision), never changes them."""
    topo, pairs, perm = case
    net = FlowNetwork(topo)
    a = net.max_min_rates_reference(_flows(pairs))
    b = net.max_min_rates_reference(_flows([pairs[i] for i in perm]))
    assert np.allclose(np.sort(a), np.sort(b), rtol=1e-9, atol=0.0)


# -- DES level: lazy repricing is unobservable ---------------------------------

SUITE = (
    ("alltoall", "pairwise"),
    ("alltoall", "bruck"),
    ("allgather", "ring"),
    ("allgather", "recursive_doubling"),
    ("allreduce", "ring"),
    ("allreduce", "rabenseifner"),
)


@given(
    st.integers(0, len(SUITE) - 1),
    st.booleans(),
    st.floats(1e3, 1e6),
)
@settings(max_examples=15, deadline=None)
def test_lockstep_replay_invariant_to_incremental_mode(case_i, spread, nbytes):
    """Incremental (memoized, deferred) and per-event from-scratch DES
    runs produce bitwise-identical makespans: the interleaving of
    repricings is model-equivalent, so durations cannot observe it."""
    from repro.collectives.selector import rounds_for
    from repro.verify.differential import replay_rounds_des

    topo = TOPOS[0]
    collective, algorithm = SUITE[case_i]
    p = 4
    cores = (
        np.arange(0, topo.n_cores, topo.n_cores // p, dtype=np.int64)
        if spread
        else np.arange(p, dtype=np.int64)
    )
    rounds = rounds_for(collective, p, nbytes, algorithm)
    t_inc, timings_inc, _ = replay_rounds_des(topo, cores, rounds, incremental=True)
    t_ref, timings_ref, _ = replay_rounds_des(topo, cores, rounds, incremental=False)
    assert t_inc == t_ref
    assert [t.t_des for t in timings_inc] == [t.t_des for t in timings_ref]
