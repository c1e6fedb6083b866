"""Stacked placement sets price like one-set calls, bit for bit.

``run_batch(programs, topology, placement_sets)`` prices S placement
sets x N programs in one pass per alignment group.  For ``round`` and
``logp``, entry ``[s][j]`` must equal ``run_batch(programs, topology,
[placement_sets[s]])[0][j]`` on a fresh backend, compared with
``float.hex`` on every total and every per-round time
(``detail=True``): on a cold backend, again on its warm memos, and with
every set in a stacked run of its own.  The sampled stacks repeat
placements, mix instance counts, sometimes place two ranks on one
core, and carry rounds of self-flows only (NaN logp coefficients),
per-flow payloads (the ``rounds`` and ``splatt`` workloads) and a
collective payload axis that splits into bruck and pairwise alignment
groups.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bench.microbench import comm_members  # noqa: E402
from repro.core.hierarchy import Hierarchy  # noqa: E402
from repro.core.orders import all_orders  # noqa: E402
from repro.ir import backends, create_backend  # noqa: E402
from repro.ir.backends import _aligned_groups  # noqa: E402
from repro.topology.machines import generic_cluster  # noqa: E402
from repro.workloads import lower_workload  # noqa: E402

RADICES = [(2, 2, 4), (4, 2, 2), (2, 2, 2, 2)]
#: Straddles the alltoall bruck/pairwise threshold (per-rank 4096 bytes).
SIZE_POOL = [2e3, 16e3, 1e5, 1e6]


def _hex(results) -> list:
    return [
        (
            r.time.hex(),
            [(c.index, c.repeat, c.n_flows, c.seconds.hex()) for c in r.per_round],
        )
        for r in results
    ]


@st.composite
def stacks(draw):
    radices = draw(st.sampled_from(RADICES))
    h = Hierarchy(radices)
    p = draw(st.sampled_from([d for d in (4, 8, 16) if h.size % d == 0]))
    ranks = st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p)

    def payload(n):
        if draw(st.booleans()):
            return draw(st.lists(st.sampled_from([0.0, 5e2, 1e5, 2e6]), min_size=n, max_size=n))
        return draw(st.sampled_from([0.0, 1e3, 3.7e6]))

    def raw_round():
        src = draw(ranks)
        if draw(st.booleans()):
            dst = list(src)  # self-flows only
        else:
            dst = draw(st.lists(st.integers(0, p - 1), min_size=len(src), max_size=len(src)))
        repeat, compute = draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 1e-4]))
        return [src, dst, payload(len(src)), repeat, compute]

    programs = [
        lower_workload("collective", {"collective": "alltoall", "p": p, "total_bytes": s})
        for s in draw(st.lists(st.sampled_from(SIZE_POOL), max_size=3, unique=True))
    ]
    if draw(st.booleans()):
        programs.append(
            lower_workload("splatt", {"p": p, "per_pair_bytes": draw(st.sampled_from([1e3, 1e5]))})
        )
    shape = [raw_round() for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0 if programs else 1, 2))):
        # Aligned with ``shape``: the same src/dst and repeats, new payloads.
        rounds = [[src, dst, payload(len(src)), rep, t] for src, dst, _, rep, t in shape]
        programs.append(lower_workload("rounds", {"rounds": rounds, "n_ranks": p}))
    orders = draw(st.lists(st.sampled_from(all_orders(len(radices))), min_size=1, max_size=4))
    sets = []
    for order in orders:
        members = comm_members(h, order, p)
        sets.append(list(members) if draw(st.booleans()) else [members[0]])
    if draw(st.booleans()):
        # Cores shared between ranks: self-flows that differ per set.
        cores = st.lists(st.integers(0, h.size - 1), min_size=p, max_size=p)
        sets.insert(draw(st.integers(0, len(sets))), [np.array(draw(cores))])
    root_bw = draw(st.sampled_from([0.0, 2e10]))
    topology = dataclasses.replace(generic_cluster(radices), root_bw=root_bw)
    return topology, programs, sets


@pytest.mark.parametrize("backend", ["round", "logp"])
@seed(28)
@settings(max_examples=40, deadline=None)
@given(case=stacks())
def test_stacked_sets_equal_one_set_calls(backend, case):
    topology, programs, sets = case
    shared = create_backend(backend)
    cold = shared.run_batch(programs, topology, sets, detail=True)
    warm = shared.run_batch(programs, topology, sets, detail=True)
    with mock.patch.object(backends, "STACK_CELLS", 1):  # one set per stacked run
        split = shared.run_batch(programs, topology, sets, detail=True)
    assert len(cold) == len(warm) == len(split) == len(sets)
    for placements, got, again, apart in zip(sets, cold, warm, split):
        (alone,) = create_backend(backend).run_batch(programs, topology, [placements], detail=True)
        (alone_warm,) = shared.run_batch(programs, topology, [placements], detail=True)
        assert _hex(got) == _hex(alone) == _hex(again) == _hex(apart) == _hex(alone_warm)


@pytest.mark.parametrize("backend", ["round", "logp"])
def test_payload_axis_splits_into_alignment_groups(backend):
    """Bruck below the threshold, pairwise above: two alignment groups,
    each stacked over every placement set."""
    h = Hierarchy((2, 2, 4))
    topology = generic_cluster(h.radices)
    programs = [
        lower_workload("collective", {"collective": "alltoall", "p": 8, "total_bytes": s})
        for s in SIZE_POOL
    ]
    assert [p.meta.algorithm for p in programs] == ["bruck", "bruck", "pairwise", "pairwise"]
    assert _aligned_groups(programs) == [[0, 1], [2, 3]]
    sets = [list(comm_members(h, order, 8)) for order in all_orders(3)]
    stacked = create_backend(backend).run_batch(programs, topology, sets)
    for placements, got in zip(sets, stacked):
        alone = [create_backend(backend).run(p, topology, placements) for p in programs]
        assert _hex(got) == _hex(alone)


def test_self_flow_patterns_keep_nan_coefficients():
    """A pattern of self-flows only is a NaN row of its table's logp
    entry, and its rounds price at zero under every stacked set."""
    program = lower_workload(
        "rounds", {"rounds": [[[0, 1], [0, 1], 1e6], [[0, 1], [1, 0], 1e6]], "n_ranks": 2}
    )
    topology = generic_cluster((2, 2))
    sets = [[np.array([0, 1])], [np.array([0, 2])], [np.array([0, 1]), np.array([2, 3])]]
    logp = create_backend("logp")
    stacked = logp.run_batch([program], topology, sets)
    entries = list(logp.fabric(topology)._coefficients.values())
    assert len(entries) == len(sets)
    for entry in entries:
        assert np.isnan(entry[0]).all() and not np.isnan(entry[1]).any()
    for (result,) in stacked:
        assert result.per_round[0].seconds == 0.0 < result.per_round[1].seconds


@pytest.mark.parametrize("backend", ["round", "logp"])
def test_sets_with_equal_flow_counts_keep_their_own_live_flows(backend):
    """Two sets that each put two ranks on one core leave one live flow
    each, but not the same one: each prices its own flow's payload."""
    program = lower_workload(
        "rounds", {"rounds": [[[0, 2], [1, 3], [1e3, 2e6]]], "n_ranks": 4}
    )
    topology = generic_cluster((2, 2, 4))
    sets = [[np.array([0, 0, 4, 8])], [np.array([0, 4, 8, 8])]]
    stacked = create_backend(backend).run_batch([program], topology, sets)
    for placements, got in zip(sets, stacked):
        alone = create_backend(backend).run(program, topology, placements)
        assert _hex(got) == _hex([alone])
    assert stacked[0][0].time != stacked[1][0].time
