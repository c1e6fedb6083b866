"""Fidelity ladder: successive halving with error calibration.

The load-bearing property is *harmlessness at eta=1*: with elimination
disabled, the ladder's finalist records are bitwise identical to a plain
full-fidelity sweep over the same space, no matter which cheap rungs ran
first.  On top of that: config validation, promotion arithmetic, the
tau-driven widening rule, and the opt-in exhaustive audit.
"""

from __future__ import annotations

import math

import pytest

from repro.bench.sweeps import ladder_sweep, sweep, to_csv, top_k_records
from repro.core.hierarchy import Hierarchy
from repro.core.orders import all_orders
from repro.engine import EvalRequest, SweepEngine
from repro.engine.fidelity import (
    FidelityLadder,
    LadderAuditError,
    LadderConfig,
    LadderConfigError,
    analytic_order_score,
    default_rungs,
)
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params

NAMES = ("node", "socket", "core")


def _machine(radices=(2, 2, 4)):
    h = Hierarchy(radices, names=NAMES)
    return generic_cluster(radices, names=NAMES), h


class TestLadderConfig:
    def test_defaults_are_valid(self):
        cfg = LadderConfig()
        assert cfg.rungs == ("metric", "logp", "round")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rungs": ()},
            {"rungs": ("logp", "logp")},
            {"rungs": ("logp", "metric", "round")},  # metric not first
            {"rungs": ("metric",)},  # final rung must be an engine model
            {"rungs": ("metric", "nope")},
            {"eta": 0.5},
            {"top_k": 0},
            {"probe": 1},
            {"tau_floor": 1.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(LadderConfigError):
            LadderConfig(**kwargs)

    def test_default_rungs_ladder_toward_each_backend(self):
        assert default_rungs("logp") == ("metric", "logp")
        assert default_rungs("round") == ("metric", "logp", "round")
        assert default_rungs("des") == ("metric", "logp", "round", "des")
        with pytest.raises(LadderConfigError):
            default_rungs("verify")


class TestPromotionMath:
    def _search(self, cfg, n=24, metric=None):
        topo, h = _machine()
        engine = SweepEngine()
        ladder = FidelityLadder(engine, cfg)

        def requests_for(model, order):
            return [
                EvalRequest(
                    model=model, topology=topo, hierarchy=h, order=order,
                    comm_size=4, workload="collective",
                    workload_params=collective_params("alltoall", 4, 1e6),
                )
            ]

        return ladder.search(
            list(all_orders(h.depth))[:n],
            requests_for,
            metric_score=metric
            or (lambda o: analytic_order_score(topo, h, o, 4, 1e6)),
        )

    def test_eta_prunes_but_never_below_top_k(self):
        result = self._search(
            LadderConfig(rungs=("metric", "logp"), eta=3.0, top_k=2, probe=4)
        )
        first = result.rungs[0]
        assert first.n_candidates == 6  # 3! orders
        assert first.n_promoted == max(2, math.ceil(6 / 3.0))
        assert result.rungs[-1].rung == "logp"

    def test_anticorrelated_rung_is_widened_to_keep_everyone(self):
        # A metric that *inverts* the logp ranking: tau = -1 on the probe,
        # so the rung must not be trusted to eliminate anyone.
        topo, h = _machine()
        engine = SweepEngine()
        cfg = LadderConfig(rungs=("metric", "logp"), eta=6.0, top_k=1, probe=6)
        ladder = FidelityLadder(engine, cfg)

        def requests_for(model, order):
            return [
                EvalRequest(
                    model=model, topology=topo, hierarchy=h, order=order,
                    comm_size=4, workload="collective",
                    workload_params=collective_params("alltoall", 4, 1e6),
                )
            ]

        result = ladder.search(
            list(all_orders(h.depth)),
            requests_for,
            metric_score=lambda o: -analytic_order_score(topo, h, o, 4, 1e6),
        )
        first = result.rungs[0]
        assert first.tau is not None and first.tau < 0
        assert first.widened
        assert first.eta_effective == 1.0  # tau <= 0: elimination disabled
        assert first.n_promoted == first.n_candidates

    def test_exhaustive_audit_passes_and_reports(self):
        result = self._search(
            LadderConfig(rungs=("metric", "logp"), eta=2.0, top_k=2, probe=4)
        )
        assert result.audit is None  # opt-in only
        topo, h = _machine()
        engine = SweepEngine()
        ladder = FidelityLadder(
            engine, LadderConfig(rungs=("metric", "logp"), eta=2.0, top_k=2, probe=4)
        )

        def requests_for(model, order):
            return [
                EvalRequest(
                    model=model, topology=topo, hierarchy=h, order=order,
                    comm_size=4, workload="collective",
                    workload_params=collective_params("alltoall", 4, 1e6),
                )
            ]

        result = ladder.search(
            list(all_orders(h.depth)),
            requests_for,
            metric_score=lambda o: analytic_order_score(topo, h, o, 4, 1e6),
            exhaustive_audit=True,
        )
        assert result.audit == {
            "checked_top_k": 2,
            "n_candidates": 6,
            "agrees": True,
        }

    def test_audit_divergence_raises(self):
        # A metric that is *truthful on the probe subset* (so calibration
        # trusts it, tau = 1) but lies about the true best candidate gets
        # that candidate eliminated -- the exhaustive audit must catch it.
        import hashlib

        topo, h = _machine()
        engine = SweepEngine()
        orders = list(all_orders(h.depth))

        def requests_for(model, order):
            return [
                EvalRequest(
                    model=model, topology=topo, hierarchy=h, order=order,
                    comm_size=4, workload="collective",
                    workload_params=collective_params("alltoall", 4, 1e6),
                )
            ]

        truth = {
            o: engine.evaluate(requests_for("logp", o)[0])["duration_all"]
            for o in orders
        }
        best = min(orders, key=lambda o: (truth[o], repr(o)))

        def probe_of(seed):
            ranked = sorted(
                orders,
                key=lambda o: hashlib.sha256(f"{seed}:{o!r}".encode()).hexdigest(),
            )
            return ranked[:2]

        seed = next(s for s in range(50) if best not in probe_of(s))
        cfg = LadderConfig(
            rungs=("metric", "logp"), eta=6.0, top_k=1, probe=2, seed=seed
        )
        ladder = FidelityLadder(engine, cfg)
        with pytest.raises(LadderAuditError):
            ladder.search(
                orders,
                requests_for,
                # Truthful everywhere except the true best, which it
                # condemns -- the probe can't see the lie.
                metric_score=lambda o: 1e9 if o == best else truth[o],
                exhaustive_audit=True,
            )

    def test_metric_rung_requires_metric_score(self):
        ladder = FidelityLadder(SweepEngine())
        with pytest.raises(LadderConfigError, match="metric_score"):
            ladder.search([(0, 1, 2)], lambda m, c: [])


class TestEtaOneBitwiseIdentity:
    """eta=1 disables elimination: the ladder is a full-fidelity sweep."""

    CONFIGS = [
        {"radices": (2, 2, 4), "comm_sizes": [4], "backend": "round"},
        {"radices": (2, 2, 4), "comm_sizes": [2, 8], "backend": "logp"},
        {"radices": (4, 2, 2), "comm_sizes": [16], "backend": "round"},
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_ladder_eta1_matches_plain_sweep(self, cfg):
        topo, h = _machine(cfg["radices"])
        n_orders = len(list(all_orders(h.depth)))
        engine_a = SweepEngine()
        records, result = ladder_sweep(
            topo, h, cfg["comm_sizes"], sizes=(1e6,), engine=engine_a,
            backend=cfg["backend"], eta=1.0, top_k=n_orders, probe=4,
        )
        engine_b = SweepEngine()
        full = sweep(
            topo, h, cfg["comm_sizes"], sizes=(1e6,), engine=engine_b,
            backend=cfg["backend"], batch=True,
        )
        expected = top_k_records(full, n_orders)
        assert to_csv(records) == to_csv(expected)
        # With eta=1 nothing was eliminated before the final rung.
        for rung in result.rungs[:-1]:
            assert rung.n_promoted == rung.n_candidates

    def test_ladder_results_invariant_to_jobs(self):
        topo, h = _machine()
        csvs = []
        for jobs in (1, 2):
            engine = SweepEngine(jobs=jobs)
            records, _ = ladder_sweep(
                topo, h, [4], sizes=(1e6,), engine=engine, backend="round",
                top_k=3, probe=4, batch=False,
            )
            csvs.append(to_csv(records))
        assert csvs[0] == csvs[1]


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ladder_configs = st.fixed_dictionaries(
    {
        "radices": st.sampled_from([(2, 2, 4), (4, 2, 2), (2, 4, 2)]),
        "comm_size": st.sampled_from([2, 4, 8]),
        "collective": st.sampled_from(["alltoall", "allgather", "allreduce"]),
        "total_bytes": st.sampled_from([16e3, 1e6]),
        "backend": st.sampled_from(["logp", "round"]),
        "probe": st.sampled_from([2, 4, 16]),
        "rungs": st.sampled_from([None, ("metric", "logp", "round")]),
    }
)


@settings(max_examples=12, deadline=None)
@given(ladder_configs)
def test_property_eta1_ladder_is_bitwise_a_full_sweep(cfg):
    """For any sampled configuration, the eta=1 ladder (elimination
    disabled) emits records bitwise identical to an exhaustive sweep."""
    if cfg["rungs"] is not None and cfg["rungs"][-1] != cfg["backend"]:
        cfg = {**cfg, "rungs": None}
    topo = generic_cluster(cfg["radices"], names=NAMES)
    h = Hierarchy(cfg["radices"], names=NAMES)
    n_orders = len(list(all_orders(h.depth)))
    records, result = ladder_sweep(
        topo, h, [cfg["comm_size"]], collectives=(cfg["collective"],),
        sizes=(cfg["total_bytes"],), engine=SweepEngine(),
        backend=cfg["backend"], rungs=cfg["rungs"], eta=1.0,
        top_k=n_orders, probe=cfg["probe"],
    )
    full = sweep(
        topo, h, [cfg["comm_size"]], collectives=(cfg["collective"],),
        sizes=(cfg["total_bytes"],), engine=SweepEngine(),
        backend=cfg["backend"], batch=True,
    )
    assert to_csv(records) == to_csv(top_k_records(full, n_orders))
    assert all(r.n_promoted == r.n_candidates for r in result.rungs[:-1])


class TestLadderSweepPlumbing:
    def test_final_rung_must_match_backend(self):
        topo, h = _machine()
        with pytest.raises(ValueError, match="final rung"):
            ladder_sweep(
                topo, h, [4], backend="round", rungs=("metric", "logp")
            )

    def test_ladder_and_sweep_share_cache_keys(self):
        topo, h = _machine()
        engine = SweepEngine()
        sweep(topo, h, [4], sizes=(1e6,), engine=engine, backend="round", batch=True)
        evaluated = engine.stats.evaluated
        # Everything the final rung needs is already cached; only the
        # cheaper screening rungs evaluate anything new.
        _, result = ladder_sweep(
            topo, h, [4], sizes=(1e6,), engine=engine, backend="round",
            top_k=3, probe=4,
        )
        final = result.rungs[-1]
        assert final.rung == "round"
        new = engine.stats.evaluated - evaluated
        round_keys = {
            r.key
            for r in (
                EvalRequest(
                    model="round", topology=topo, hierarchy=h, order=o,
                    comm_size=4, workload="collective",
                    workload_params=collective_params("alltoall", 4, 1e6),
                )
                for o in all_orders(h.depth)
            )
        }
        # No round request was re-evaluated: its keys were warm.
        assert new < len(round_keys)
        assert engine.stats.cache_hits >= final.n_candidates

    def test_failed_candidates_are_excluded_and_reported(self):
        topo, h = _machine()
        engine = SweepEngine()
        cfg = LadderConfig(rungs=("logp",), eta=1.0, top_k=6, probe=4)
        ladder = FidelityLadder(engine, cfg)
        orders = list(all_orders(h.depth))
        bad = orders[0]

        def requests_for(model, order):
            # An unknown collective makes one candidate's grid fail.
            collective = "alltoall" if order != bad else "definitely-not-a-collective"
            return [
                EvalRequest(
                    model=model, topology=topo, hierarchy=h, order=order,
                    comm_size=4, workload="collective",
                    workload_params=collective_params(collective, 4, 1e6),
                )
            ]

        result = ladder.search(orders, requests_for)
        assert bad in result.failed
        assert bad not in result.ranking
        assert len(result.ranking) == len(orders) - 1


class TestTiedMetricRung:
    """A metric rung that scores every candidate alike is reported as such.

    At ``comm_size == hierarchy.size`` the first communicator is the whole
    machine, so its pair histogram -- and the analytic score -- is the same
    for every order.
    """

    def _ladder(self, comm_size):
        topo, h = _machine()
        _, result = ladder_sweep(
            topo, h, [comm_size], collectives=("alltoall",), sizes=(1e5, 1e6),
            backend="logp", top_k=2,
        )
        return result

    def test_whole_machine_communicator_ties_every_order(self):
        metric = self._ladder(16).rungs[0]
        assert metric.rung == "metric"
        assert metric.n_candidates == 6
        assert metric.n_distinct == 1
        assert metric.to_jsonable()["n_distinct"] == 1

    def test_sub_communicator_separates_orders(self):
        result = self._ladder(4)
        metric, final = result.rungs
        assert metric.n_distinct > 1
        assert final.n_distinct == len({result.scores[c] for c in result.ranking})

    def test_cli_marks_the_tied_rung(self, capsys):
        from repro.cli import main

        argv = [
            "sweep", "-H", "node:2 socket:2 core:4", "--comm-sizes", "{}",
            "--sizes", "1e5", "--ladder", "--backend", "logp", "--top-k", "2",
        ]
        def metric_line(comm_size):
            assert main([a.format(comm_size) for a in argv]) == 0
            lines = capsys.readouterr().err.splitlines()
            [line] = [ln for ln in lines if ln.startswith("# ladder metric:")]
            return line

        assert metric_line(16).endswith("s (all tied)")
        assert "all tied" not in metric_line(4)

    def test_precomputed_signature_scores_bitwise_equal(self):
        from repro.core.metrics import signature

        topo, h = _machine()
        for order in all_orders(h.depth):
            sig = signature(h, order, 4)
            for nbytes in (1e3, 1e6, 3.7e7):
                assert analytic_order_score(
                    topo, h, order, 4, nbytes, sig=sig
                ) == analytic_order_score(topo, h, order, 4, nbytes)
