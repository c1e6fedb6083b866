"""Differential properties: the batch path never diverges from scalar.

The bitwise contract of the vectorized evaluation path is that batching
changes *cost*, never *results*: for any sampled frontier of (hierarchy,
communicator, collective, payload sizes, orders), driving it through
a worker-less ``SweepEngine`` (one in-process vectorized pass) must
reproduce N per-request ``evaluate_request()`` calls bit for bit --
equal ``repr`` on every duration, hence identical order rankings -- for
both the ``logp`` and ``round`` backends.  A second property pins
the same contract one layer down, on ``run_batch`` vs ``run`` of the
backend instances themselves, with size pools chosen to straddle the
bruck/pairwise auto-selection threshold so alignment-group splitting is
exercised.  Pattern-reuse programs (a small pool of src/dst patterns
recurring non-adjacently with varying payloads, compute and repeats) and
a dnn lowering pin the per-pattern pricing of repeated rounds, against
``run`` and against references that price every round separately: the
placed, merged round schedule for ``round``, and a per-round logp model
built with per-level boolean masks.  A last property shares one logp
instance between scalar-payload and per-flow-payload programs over the
same patterns, in both orders, against fresh instances: the memo keeps
only each pattern's ``(alpha, rate_coeff)``, and per-flow payloads
re-derive their shares outside it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bench.microbench import comm_members  # noqa: E402
from repro.core.hierarchy import Hierarchy  # noqa: E402
from repro.core.orders import all_orders  # noqa: E402
from repro.engine import SweepEngine  # noqa: E402
from repro.engine.evaluators import evaluate_request  # noqa: E402
from repro.ir import (  # noqa: E402
    CommProgram,
    CommRound,
    collective_program,
    create_backend,
)
from repro.topology.machines import generic_cluster  # noqa: E402
from repro.workloads import collective_cells, lower_workload  # noqa: E402
from tests.ir.round_oracle import oracle_time  # noqa: E402

RADICES = [(2, 2, 4), (4, 2, 2), (2, 4, 2), (2, 2, 2, 2)]
#: Payload pool straddling the alltoall bruck/pairwise threshold
#: (per-rank 4096 bytes) at the sampled communicator sizes, so one
#: frontier can mix auto-selected algorithms across its size axis.
SIZE_POOL = [2e3, 16e3, 1e5, 1e6, 8e6]
BACKENDS = ["logp", "round"]


@st.composite
def frontiers(draw):
    radices = draw(st.sampled_from(RADICES))
    h = Hierarchy(radices)
    divisors = [d for d in range(2, h.size + 1) if h.size % d == 0]
    comm_size = draw(st.sampled_from(divisors))
    collective = draw(
        st.sampled_from(["alltoall", "allgather", "allreduce"])
    )
    orders = draw(
        st.lists(
            st.sampled_from(all_orders(len(radices))),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    sizes = draw(
        st.lists(
            st.sampled_from(SIZE_POOL), min_size=1, max_size=3, unique=True
        )
    )
    return {
        "radices": radices,
        "hierarchy": h,
        "comm_size": comm_size,
        "collective": collective,
        "orders": tuple(orders),
        "sizes": tuple(sizes),
    }


@pytest.mark.parametrize("backend", BACKENDS)
class TestEvaluateBatchDifferential:
    @given(cfg=frontiers())
    @settings(max_examples=25)
    def test_bitwise_equal_and_same_ranking(self, backend, cfg):
        topo = generic_cluster(cfg["radices"])
        cells = collective_cells(
            [cfg["comm_size"]], [cfg["collective"]], cfg["sizes"]
        )
        requests = [
            cell.request(backend, topo, cfg["hierarchy"], order)
            for order in cfg["orders"]
            for cell in cells
        ]
        engine = SweepEngine()
        batched = engine.evaluate_many(requests)
        assert engine.stats.batched == engine.stats.evaluated
        scalar = [evaluate_request(r) for r in requests]
        assert [repr(r) for r in batched] == [repr(r) for r in scalar]

        def ranking(results, key):
            n = len(cells)
            totals = [
                sum(float(r[key]) for r in results[i * n : (i + 1) * n])
                for i in range(len(cfg["orders"]))
            ]
            ranked = sorted(range(len(totals)), key=lambda i: (totals[i], i))
            return [cfg["orders"][i] for i in ranked]

        for key in ("duration_all", "duration_single"):
            assert ranking(batched, key) == ranking(scalar, key)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRunBatchDifferential:
    @given(cfg=frontiers())
    @settings(max_examples=25)
    def test_kernel_bitwise_equal(self, backend, cfg):
        topo = generic_cluster(cfg["radices"])
        be = create_backend(backend)
        members = comm_members(
            cfg["hierarchy"], cfg["orders"][0], cfg["comm_size"]
        )
        programs = [
            collective_program(
                cfg["collective"], cfg["comm_size"], total_bytes
            )
            for total_bytes in cfg["sizes"]
        ]
        for placements in ([members[0]], list(members)):
            (batched,) = be.run_batch(programs, topo, [placements])
            assert len(batched) == len(programs)
            for program, got in zip(programs, batched):
                ref = be.run(program, topo, placements)
                assert repr(ref.time) == repr(got.time)
                assert ref.per_round == got.per_round


# -- repeated round patterns ---------------------------------------------------


@st.composite
def pattern_programs(draw):
    """Aligned programs reusing a small pattern pool non-adjacently.

    One structure (rounds drawn from a pool of 1-4 src/dst patterns, some
    with self-flows, some empty) is shared by 1-3 programs whose payloads
    (scalar or per-flow), compute and repeats vary independently; a
    second, unaligned program is sometimes stacked alongside.
    """
    radices = draw(st.sampled_from(RADICES))
    h = Hierarchy(radices)
    divisors = [d for d in range(2, h.size + 1) if h.size % d == 0]
    p = draw(st.sampled_from(divisors))
    ranks = st.integers(0, p - 1)

    def pattern():
        n = draw(st.integers(0, 2 * p))
        src = draw(st.lists(ranks, min_size=n, max_size=n))
        dst = draw(st.lists(ranks, min_size=n, max_size=n))
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)

    pool = [pattern() for _ in range(draw(st.integers(1, 4)))]
    uses = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    repeats = [draw(st.integers(1, 3)) for _ in uses]
    payload = st.one_of(
        st.sampled_from([0.0, 1e3, 64e3, 3.7e6]),
        st.just("per-flow"),
    )

    def program(uses, repeats):
        rounds = []
        for use, rep in zip(uses, repeats):
            src, dst = pool[use]
            nbytes = draw(payload)
            if nbytes == "per-flow":
                nbytes = np.array(
                    draw(st.lists(st.sampled_from([0.0, 5e2, 1e5, 2e6]),
                                  min_size=src.size, max_size=src.size)),
                    dtype=float,
                )
            compute = draw(st.sampled_from([0.0, 0.0, 3e-6, 1e-4]))
            rounds.append(CommRound(src, dst, nbytes, rep, compute))
        return CommProgram(p, tuple(rounds))

    programs = [program(uses, repeats) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        other = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
        programs.insert(
            draw(st.integers(0, len(programs))),
            program(other, [1] * len(other)),
        )
    order = draw(st.sampled_from(all_orders(len(radices))))
    root_bw = draw(st.sampled_from([0.0, 2e10]))
    return {
        "topology": dataclasses.replace(generic_cluster(radices), root_bw=root_bw),
        "members": comm_members(h, order, p),
        "programs": programs,
    }


def _round_reference(program, topology, placements) -> float:
    """The round model priced round by round on the merged placed rounds."""
    total = oracle_time(program, topology, placements)
    return total + sum(r.compute * r.repeat for r in program.rounds)


def _logp_reference(program, topology, placements) -> float:
    """The logp model priced round by round with per-level boolean masks."""
    depth = topology.depth
    k = len(placements)
    total = 0.0
    for rnd in program.rounds:
        src = np.concatenate([c[rnd.src] for c in placements])
        dst = np.concatenate([c[rnd.dst] for c in placements])
        lca = topology.lca_level(src, dst)
        live = lca < depth
        src, dst, lca = src[live], dst[live], lca[live]
        t = 0.0
        if lca.size:
            lat = topology.hop_latency(lca)
            inv_share = np.zeros(lca.shape)
            for level in range(depth):
                crossing = lca <= level
                if not crossing.any():
                    continue
                up = src[crossing] // topology.strides[level]
                down = dst[crossing] // topology.strides[level]
                load = np.maximum(np.bincount(up)[up], np.bincount(down)[down])
                inv_share[crossing] = np.maximum(
                    inv_share[crossing], load * (1.0 / topology.link_bw[level])
                )
            n_root = int((lca == 0).sum())
            if topology.root_bw > 0 and n_root:
                at_root = lca == 0
                inv_share[at_root] = np.maximum(
                    inv_share[at_root], n_root / topology.root_bw
                )
            if isinstance(rnd.nbytes, np.ndarray):
                nb = np.concatenate([rnd.nbytes_per_flow()] * k)[live]
                t = float((lat + nb * inv_share).max())
            else:
                t = float(lat.max()) + float(rnd.nbytes) * float(inv_share.max())
        total += t * rnd.repeat
        total += rnd.compute * rnd.repeat
    return total


REFERENCES = {"round": _round_reference, "logp": _logp_reference}


def _assert_batch_matches(backend, topo, programs, members):
    for placements in ([members[0]], list(members)):
        for detail in (True, False):
            be = create_backend(backend)
            (batched,) = be.run_batch(programs, topo, [placements], detail=detail)
            scalar = create_backend(backend)
            for program, got in zip(programs, batched):
                ref = scalar.run(program, topo, placements, detail=detail)
                assert repr(got) == repr(ref)
                assert repr(got.time) == repr(
                    REFERENCES[backend](program, topo, placements)
                )


@pytest.mark.parametrize("backend", BACKENDS)
class TestRepeatedPatterns:
    @given(cfg=pattern_programs())
    @settings(max_examples=40)
    def test_pattern_reuse_bitwise(self, backend, cfg):
        _assert_batch_matches(
            backend, cfg["topology"], cfg["programs"], cfg["members"]
        )

    @pytest.mark.parametrize(
        "radices, params",
        [
            ((2, 2, 4), {"dp": 2, "tp": 2, "pp": 4, "layers": 8}),
            ((2, 2, 2, 2), {"dp": 2, "tp": 4, "pp": 2, "grad_sync": "rs_ag"}),
        ],
    )
    def test_dnn_lowering_bitwise(self, backend, radices, params):
        program = lower_workload("dnn", params)
        h = Hierarchy(radices)
        topo = generic_cluster(radices)
        for order in all_orders(len(radices))[:3]:
            members = comm_members(h, order, program.n_ranks)
            _assert_batch_matches(backend, topo, [program], members)


# -- one logp instance, scalar and per-flow payloads ----------------------------


@st.composite
def shared_pattern_programs(draw):
    """Two scalar-payload and two per-flow-payload programs over one pattern
    pool whose first pattern has only self-flows."""
    radices = draw(st.sampled_from(RADICES))
    h = Hierarchy(radices)
    divisors = [d for d in range(2, h.size + 1) if h.size % d == 0]
    p = draw(st.sampled_from(divisors))
    ranks = st.integers(0, p - 1)

    def pattern(self_flows):
        n = draw(st.integers(1, 2 * p))
        src = draw(st.lists(ranks, min_size=n, max_size=n))
        dst = src if self_flows else draw(st.lists(ranks, min_size=n, max_size=n))
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)

    pool = [pattern(True)] + [pattern(False) for _ in range(draw(st.integers(1, 3)))]
    uses = [0] + draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))

    def program(per_flow):
        rounds = []
        for use in uses:
            src, dst = pool[use]
            if per_flow:
                nbytes = np.array(
                    draw(st.lists(st.sampled_from([0.0, 5e2, 1e5, 2e6]),
                                  min_size=src.size, max_size=src.size)),
                    dtype=float,
                )
            else:
                nbytes = draw(st.sampled_from([0.0, 1e3, 64e3, 3.7e6]))
            rounds.append(CommRound(src, dst, nbytes))
        return CommProgram(p, tuple(rounds))

    order = draw(st.sampled_from(all_orders(len(radices))))
    root_bw = draw(st.sampled_from([0.0, 2e10]))
    return {
        "topology": dataclasses.replace(generic_cluster(radices), root_bw=root_bw),
        "members": comm_members(h, order, p),
        "scalar": [program(False) for _ in range(2)],
        "per_flow": [program(True) for _ in range(2)],
    }


@given(cfg=shared_pattern_programs())
@settings(max_examples=40)
def test_logp_scalar_and_per_flow_share_one_instance(cfg):
    topo = cfg["topology"]
    scalar, per_flow = cfg["scalar"], cfg["per_flow"]
    for programs in (
        [scalar[0], per_flow[0], scalar[1], per_flow[1]],
        [per_flow[0], scalar[0], per_flow[1], scalar[1]],
    ):
        shared = create_backend("logp")
        for placements in ([cfg["members"][0]], list(cfg["members"])):
            fresh = [create_backend("logp").run(p, topo, placements) for p in programs]
            for program, ref in zip(programs, fresh):
                assert repr(shared.run(program, topo, placements)) == repr(ref)
                assert repr(ref.time) == repr(_logp_reference(program, topo, placements))
            # Aligned scalar and per-flow programs also price in one pass.
            (batched,) = shared.run_batch(programs, topo, [placements])
            assert [repr(r) for r in batched] == [repr(r) for r in fresh]


def test_dnn_step_analyses_each_pattern_once():
    """The 256-rank dnn step repeats 73 src/dst patterns over 390 rounds:
    one placement adds one structure per pattern to the round kernel's
    memo, and one entry holding every pattern's pair to the logp one."""
    program = lower_workload(
        "dnn",
        {"dp": 4, "tp": 8, "pp": 8, "layers": 16, "hidden": 1024, "seq": 512},
    )
    assert (len(program.rounds), len({r.structure_key() for r in program.rounds})) == (390, 73)
    radices = (2, 4, 4, 4, 2)
    topo = generic_cluster(radices)
    members = comm_members(Hierarchy(radices), all_orders(len(radices))[7], 256)
    logp = create_backend("logp")
    logp.run_batch([program], topo, [[members[0]]])
    (entry,) = logp.fabric(topo)._coefficients.values()
    assert entry.shape == (73, 2)
    rnd = create_backend("round")
    rnd.run_batch([program], topo, [[members[0]]])
    assert len(rnd.fabric(topo)._structures) == 73
