"""The dnn workload: DP x TP x PP training-step lowering.

Three contracts:

- **property**: any (dp, tp, pp) factorization lowers to a program that
  passes the IR validation pass, and every collective the lowering
  embeds conforms to its token model under the symbolic verifier;
- **golden**: one small transformer step on hydra-16 is locked bitwise
  across the ``round``/``des``/``logp`` backends
  (``tests/workloads/golden_dnn.json``, regenerated with
  ``tests/verify/regen_golden.py --dnn``);
- **keys**: every traffic request is a workload request in its
  :class:`~repro.engine.keys.EvalRequest` canonical document, collective
  points included.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import validate_program
from repro.workloads import WorkloadError, collective_params, lower_workload

GOLDEN = Path(__file__).parent / "golden_dnn.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestLowering:
    def test_axes_and_volume(self):
        prog = lower_workload(
            "dnn",
            {"dp": 4, "tp": 4, "pp": 2, "layers": 2, "hidden": 128, "seq": 64},
        )
        assert prog.n_ranks == 32
        assert prog.meta.source == "dnn"
        assert prog.meta.label == "dnn-dp4xtp4xpp2/L2h128"
        # No declared aggregate: consumers fall back to the summed flows.
        assert prog.meta.total_bytes is None
        assert prog.total_bytes == 12845056.0

    def test_single_axis_degenerates(self):
        # Pure DP is just the gradient sync: no TP collectives, no p2p.
        prog = lower_workload("dnn", {"dp": 4, "hidden": 64, "seq": 32})
        assert prog.n_ranks == 4
        assert validate_program(prog).ok

    def test_invalid_config_is_a_workload_error(self):
        with pytest.raises(WorkloadError, match="invalid dnn configuration"):
            lower_workload("dnn", {"dp": 2, "pp": 2, "layers": 3})
        with pytest.raises(WorkloadError, match="invalid dnn configuration"):
            lower_workload("dnn", {"dp": 1, "tp": 1, "pp": 1})
        with pytest.raises(WorkloadError, match="invalid dnn configuration"):
            lower_workload("dnn", {"dp": 2, "grad_sync": "bogus"})


class TestFactorizationProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        dp=st.sampled_from([1, 2, 3, 4]),
        tp=st.sampled_from([1, 2, 4]),
        pp=st.sampled_from([1, 2, 4]),
        layers_per_stage=st.integers(1, 3),
        grad_sync=st.sampled_from(["allreduce", "rs_ag"]),
    )
    def test_every_factorization_is_clean_and_conformant(
        self, dp, tp, pp, layers_per_stage, grad_sync
    ):
        from repro.apps.dnn import DnnConfig, conformance_reports

        if dp * tp * pp < 2:
            return  # a training step needs at least two ranks
        params = {
            "dp": dp,
            "tp": tp,
            "pp": pp,
            "layers": pp * layers_per_stage,
            "hidden": 64,
            "seq": 32,
            "grad_sync": grad_sync,
        }
        prog = lower_workload("dnn", params)
        assert prog.n_ranks == dp * tp * pp
        report = validate_program(prog)
        assert report.ok, report.summary()
        config = DnnConfig(**{k: v for k, v in params.items()})
        for conf in conformance_reports(config):
            assert conf.ok, conf.summary()


class TestGolden:
    """Bitwise lock of one small step on hydra-16 (regen with --dnn)."""

    def sweep(self, golden, backend, orders):
        from repro.bench.sweeps import workload_sweep
        from repro.topology.machines import hydra

        topology = hydra(16)
        return workload_sweep(
            topology,
            topology.hierarchy,
            golden["workload"],
            params=golden["params"],
            orders=orders,
            backend=backend,
            prune=False,
        )

    @pytest.mark.parametrize("backend", ["round", "logp"])
    def test_round_and_logp_bitwise(self, golden, backend):
        orders = sorted(golden["backends"][backend])
        records = self.sweep(
            golden, backend, [tuple(map(int, o.split("-"))) for o in orders]
        )
        assert {r.order for r in records} == set(orders)
        for rec in records:
            ref = golden["backends"][backend][rec.order]
            assert repr(rec.duration_single) == ref["duration_single"]
            assert repr(rec.duration_all) == ref["duration_all"]
            assert rec.comm_size == golden["comm_size"]
            assert rec.n_comms == golden["n_comms"]
            assert repr(rec.total_bytes) == golden["total_bytes"]

    def test_des_bitwise_on_one_order(self, golden):
        # One order keeps the 512-process DES affordable in tier-1; the
        # fixture still carries all four for regen-time drift checks.
        (rec,) = self.sweep(golden, "des", [(0, 1, 2, 3)])
        ref = golden["backends"]["des"][rec.order]
        assert repr(rec.duration_single) == ref["duration_single"]
        assert repr(rec.duration_all) == ref["duration_all"]


class TestRequestKeys:
    def topo(self):
        from repro.topology.machines import generic_cluster

        return generic_cluster((2, 2, 4))

    def test_collective_requests_are_workload_requests(self):
        from repro.engine.keys import EvalRequest

        topo = self.topo()
        req = EvalRequest(
            model="round",
            topology=topo,
            hierarchy=topo.hierarchy,
            order=(2, 1, 0),
            comm_size=16,
            workload="collective",
            workload_params=collective_params("alltoall", 16, 1e5),
        )
        doc = req.canonical()
        assert doc["workload"] == "collective"
        assert doc["workload_params"] == {
            "algorithm": None,
            "collective": "alltoall",
            "p": 16,
            "total_bytes": repr(1e5),
        }
        assert not {"collective", "algorithm", "total_bytes"} & set(doc)

    def test_workload_extends_the_key(self):
        from repro.engine.keys import EvalRequest
        from repro.workloads import canonical_params

        topo = self.topo()
        params = canonical_params("stencil", {"dims": (4, 4)})

        def request(workload_params):
            return EvalRequest(
                model="round",
                topology=topo,
                hierarchy=topo.hierarchy,
                order=(2, 1, 0),
                comm_size=16,
                workload="stencil",
                workload_params=workload_params,
            )

        doc = request(params).canonical()
        assert doc["workload"] == "stencil"
        assert doc["workload_params"]["dims"] == [4, 4]
        other = canonical_params("stencil", {"dims": (2, 8)})
        assert request(params).key != request(other).key
        # ... and param order never matters: canonicalisation sorts.
        assert request(tuple(reversed(params))).key == request(params).key

    def test_sweep_and_ladder_share_content_keys(self):
        """A ladder's final-rung request is bitwise the sweep's request."""
        from repro.bench.sweeps import workload_ladder_sweep, workload_sweep
        from repro.engine import SweepEngine
        from repro.topology.machines import generic_cluster

        topo = generic_cluster((2, 2, 4))
        engine = SweepEngine(jobs=1, prune=False)
        workload_sweep(
            topo, topo.hierarchy, "stencil", params={"dims": (4, 4)},
            engine=engine, prune=False,
        )
        hits_before = engine.stats.memory_hits
        workload_ladder_sweep(
            topo, topo.hierarchy, "stencil", params={"dims": (4, 4)},
            engine=engine, top_k=3,
        )
        assert engine.stats.memory_hits > hits_before
