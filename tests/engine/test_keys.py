"""Content-addressed request keys: stability, sensitivity, invalidation."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import Hierarchy
from repro.engine import CACHE_SCHEMA, EvalRequest
from repro.engine.keys import _jsonify, topology_fingerprint
from repro.topology.machines import generic_cluster
from repro.workloads import collective_params


H = Hierarchy((2, 2, 4), names=("node", "socket", "core"))


def _req(**overrides) -> EvalRequest:
    base = dict(
        model="round",
        topology=generic_cluster((2, 2, 4), names=("node", "socket", "core")),
        hierarchy=H,
        order=(2, 1, 0),
        comm_size=4,
        workload="collective",
        workload_params=collective_params("alltoall", 4, 1e6),
    )
    base.update(overrides)
    return EvalRequest(**base)


class TestKeyStability:
    def test_identical_requests_share_a_key(self):
        assert _req().key == _req().key

    def test_key_is_content_addressed_not_identity(self):
        # Fresh objects with the same physics -> same key.
        a = _req(hierarchy=Hierarchy((2, 2, 4), names=("node", "socket", "core")))
        assert a.key == _req().key

    def test_order_normalization(self):
        # numpy ints, lists: all normalize to the same tuple-of-int order.
        import numpy as np

        assert _req(order=[2, 1, 0]).key == _req(order=(2, 1, 0)).key
        assert _req(order=tuple(np.int64(i) for i in (2, 1, 0))).key == _req().key

    def test_extras_order_is_canonical(self):
        a = _req(extras=(("b", 1), ("a", 2)))
        b = _req(extras=(("a", 2), ("b", 1)))
        assert a.extras == b.extras
        assert a.key == b.key

    def test_key_is_hex_sha256(self):
        key = _req().key
        assert len(key) == 64
        int(key, 16)


class TestKeySensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"model": "des"},
            {"order": (0, 1, 2)},
            {"comm_size": 8},
            {"workload_params": collective_params("allgather", 4, 1e6)},
            {"workload_params": collective_params("alltoall", 4, 1e6, "pairwise")},
            {"workload_params": collective_params("alltoall", 4, 2e6)},
            {"seed": 7},
            {"extras": (("mode", "pipelined"),)},
        ],
    )
    def test_any_field_change_changes_the_key(self, change):
        assert _req(**change).key != _req().key

    def test_topology_parameters_are_keyed(self):
        # Same shape, different link bandwidths -> different machines.
        a = _req(topology=generic_cluster((2, 2, 4)))
        fast = generic_cluster((2, 2, 4))
        doc_a = topology_fingerprint(a.topology)
        doc_b = topology_fingerprint(fast)
        assert doc_a == doc_b  # sanity: identical constructions agree
        b = _req(topology=fast)
        assert a.key == b.key

    def test_masked_hierarchy_is_keyed(self):
        masked = Hierarchy((2, 2, 4), names=("node", "socket", "core"), masked=True)
        assert _req(hierarchy=masked).key != _req().key

    def test_near_boundary_floats_key_apart(self):
        a = _req(workload_params=collective_params("alltoall", 4, 1e6))
        b = _req(
            workload_params=collective_params("alltoall", 4, 1e6 * (1 + 1e-12))
        )
        assert a.key != b.key


class TestInvalidation:
    def test_canonical_embeds_schema_and_version(self):
        from repro import __version__

        doc = _req().canonical()
        assert doc["schema"] == CACHE_SCHEMA
        assert doc["version"] == __version__

    def test_version_bump_invalidates(self, monkeypatch):
        import repro

        before = _req().key
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert _req().key != before


class TestJsonify:
    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            _jsonify(float("nan"))

    def test_inf_round_trips(self):
        assert _jsonify(float("inf")) == "inf"

    def test_floats_use_repr(self):
        assert _jsonify(0.1) == repr(0.1)

    def test_unknown_types_are_rejected(self):
        with pytest.raises(TypeError):
            _jsonify(object())

    def test_numpy_scalars_canonicalise(self):
        import numpy as np

        assert _jsonify(np.float64(2.5)) == repr(2.5)
        assert _jsonify(np.int32(3)) == 3


class TestWorkerSeed:
    def test_deterministic(self):
        assert _req().worker_seed() == _req().worker_seed()

    def test_mixes_declared_seed(self):
        assert _req(seed=1).worker_seed() != _req(seed=2).worker_seed()

    def test_in_numpy_seed_range(self):
        assert 0 <= _req(seed=12345).worker_seed() < 2**31
