"""The workload-frontend registry and its producer migrations.

Two contracts are locked here:

- **registry semantics**: names, schemas, canonicalisation, structured
  errors, and the validate/freeze/memoize policy of the single lowering
  path (:func:`repro.workloads.lower_workload`);
- **producer equivalence**: every producer's registry workload
  (collective/stencil/nascg/splatt) keeps producing the programs its
  application model's own round lists lower to, bit for bit;
  ``collective_program`` stays a thin shim over the registry.
"""

import numpy as np
import pytest

from repro.ir import CommProgram, collective_program
from repro.workloads import (
    UnknownWorkloadError,
    WorkloadError,
    canonical_params,
    collective_cells,
    describe_workloads,
    get_workload,
    lower_workload,
    workload_cell,
    workload_names,
)

BUILTINS = ("collective", "dnn", "nascg", "rounds", "splatt", "stencil")


def assert_programs_equal(a: CommProgram, b: CommProgram) -> None:
    assert a.n_ranks == b.n_ranks
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        np.testing.assert_array_equal(ra.src, rb.src)
        np.testing.assert_array_equal(ra.dst, rb.dst)
        np.testing.assert_array_equal(
            np.asarray(ra.nbytes, dtype=float), np.asarray(rb.nbytes, dtype=float)
        )
        assert ra.repeat == rb.repeat
        assert ra.compute == rb.compute


class TestRegistry:
    def test_builtins_registered_sorted(self):
        assert workload_names() == BUILTINS

    def test_unknown_workload_names_the_registered_set(self):
        with pytest.raises(UnknownWorkloadError) as err:
            get_workload("nope")
        assert err.value.name == "nope"
        assert err.value.known == BUILTINS
        assert "registered: collective, dnn" in str(err.value)

    def test_describe_matches_names(self):
        rows = describe_workloads()
        assert [name for name, _ in rows] == list(BUILTINS)
        for _, wl in rows:
            assert wl.description
            assert all(p.name for p in wl.params)

    def test_unknown_parameter_is_structured(self):
        with pytest.raises(WorkloadError, match=r"unknown parameter\(s\) \['bogus'\]"):
            canonical_params("collective", {"bogus": 1})

    def test_missing_required_parameter(self):
        with pytest.raises(WorkloadError, match="requires parameter 'p'"):
            canonical_params("collective", {"collective": "alltoall"})

    def test_defaults_applied_and_sorted(self):
        params = canonical_params(
            "collective", {"p": 4, "collective": "alltoall", "total_bytes": 1e5}
        )
        assert params == (
            ("algorithm", None),
            ("collective", "alltoall"),
            ("p", 4),
            ("total_bytes", 1e5),
        )

    def test_canonical_params_accept_their_own_output(self):
        once = canonical_params("stencil", {"dims": (4, 4)})
        assert canonical_params("stencil", dict(once)) == once


class TestLowerWorkload:
    def test_memoized_per_canonical_params(self):
        a = lower_workload("collective", {"collective": "alltoall", "p": 4,
                                          "total_bytes": 1e5})
        b = lower_workload("collective", {"total_bytes": 1e5, "p": 4,
                                          "collective": "alltoall",
                                          "algorithm": None})
        assert a is b  # different spellings, one canonical key

    def test_lowered_arrays_are_write_protected(self):
        prog = lower_workload("stencil", {"dims": (4, 4)})
        with pytest.raises(ValueError):
            prog.rounds[0].src[0] = 99

    def test_lowering_validates(self):
        # A rounds workload naming an out-of-range rank must be rejected
        # by the registry's validate-on-lower policy, not executed.
        from repro.ir import IRValidationError

        with pytest.raises(IRValidationError, match="outside the communicator"):
            lower_workload(
                "rounds", {"rounds": [[[0], [5], 8.0]], "n_ranks": 2}
            )


class TestCells:
    def test_collective_grid_is_comm_major_size_minor(self):
        cells = collective_cells([4, 8], ["alltoall", "allgather"], [1e6, 64e6])
        assert [(c.comm_size, c.name, c.total_bytes) for c in cells] == [
            (p, coll, size)
            for p in (4, 8)
            for coll in ("alltoall", "allgather")
            for size in (1e6, 64e6)
        ]
        assert {c.workload for c in cells} == {"collective"}

    def test_workload_cell_is_named_after_its_workload(self):
        cell = workload_cell("stencil", {"dims": [4, 4]})
        assert (cell.name, cell.comm_size) == ("stencil", 16)

    @pytest.mark.parametrize(
        "axes, label",
        [
            (([4, 4], ["alltoall"], [1e6]), "comm sizes"),
            (([4], ["alltoall", "alltoall"], [1e6]), "collectives"),
            (([4], ["alltoall"], [1e6, 64e6, 1e6]), "sizes"),
        ],
    )
    def test_duplicate_axis_values_refused(self, axes, label):
        # The ladder's metric rung sums over distinct (comm_size, payload)
        # pairs; a duplicated axis value would make it disagree with the
        # engine rungs, which score one request per cell.
        with pytest.raises(WorkloadError, match=f"duplicate {label}"):
            collective_cells(*axes)


class TestProducerShims:
    """ir.lower entry points stay bitwise-equal to direct lowerings."""

    @pytest.mark.parametrize("collective", ["alltoall", "allgather", "allreduce"])
    @pytest.mark.parametrize("p", [4, 7, 16])
    def test_collective_program(self, collective, p):
        via_shim = collective_program(collective, p, 2e5)
        direct = lower_workload(
            "collective",
            {"collective": collective, "p": p, "total_bytes": 2e5},
        )
        assert via_shim is direct  # same memo entry
        assert via_shim.meta.collective == collective
        assert via_shim.meta.total_bytes == 2e5

    @pytest.mark.parametrize("dims", [(4, 4), (2, 8)])
    def test_stencil_program_matches_model(self, dims):
        from repro.apps.stencil import StencilModel
        from repro.core.hierarchy import Hierarchy
        from repro.ir.lower import from_rounds
        from repro.simmpi.cart import CartTopology
        from repro.topology.machines import generic_cluster

        h = Hierarchy((2, 2, 4), ("node", "socket", "core"))
        topo = generic_cluster((2, 2, 4), names=h.names)
        model = StencilModel(topo, h, dims)
        cart = CartTopology(h, dims, (2, 1, 0))
        shim = lower_workload(
            "stencil",
            {
                "dims": tuple(model.dims),
                "periodic": tuple(int(f) for f in cart.periodic),
                "cell_bytes": model.cell_bytes,
                "local_extent": model.local_extent,
            },
        )
        legacy = from_rounds(model.exchange_rounds(cart), n_ranks=shim.n_ranks)
        assert_programs_equal(shim, legacy)

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_nascg_program_matches_model(self, p):
        from repro.apps.nascg.parallel import CGTimeModel
        from repro.ir.lower import from_rounds
        from repro.topology.machines import lumi_node

        model = CGTimeModel(lumi_node(), "C")
        shim = lower_workload("nascg", {"klass": model.klass.name, "p": p})
        legacy = from_rounds(model.comm_rounds_per_iteration(p), n_ranks=p)
        assert_programs_equal(shim, legacy)

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_splatt_program_matches_pairwise_rounds(self, p):
        from repro.collectives.misc import alltoallv_pairwise_rounds
        from repro.ir.lower import from_rounds

        shim = lower_workload(
            "splatt", {"p": p, "per_pair_bytes": 1e4, "mode": 1}
        )
        sizes = np.full((p, p), 1e4)
        np.fill_diagonal(sizes, 0.0)
        legacy = from_rounds(alltoallv_pairwise_rounds(sizes), n_ranks=p)
        assert_programs_equal(shim, legacy)
        assert shim.meta.source == "splatt"
        assert shim.meta.algorithm == "pairwise"


class TestRoundsWorkload:
    def test_short_and_long_entries(self):
        prog = lower_workload(
            "rounds",
            {
                "rounds": [[[0], [1], 64.0], [[1], [0], 32.0, 2, 1e-6]],
                "n_ranks": 2,
                "label": "pingpong",
            },
        )
        assert prog.n_ranks == 2
        assert prog.rounds[0].repeat == 1 and prog.rounds[0].compute == 0.0
        assert prog.rounds[1].repeat == 2 and prog.rounds[1].compute == 1e-6
        assert prog.meta.label == "pingpong"

    def test_malformed_entry_names_the_round(self):
        with pytest.raises(WorkloadError, match=r"round 1 must be \[src, dst, nbytes\]"):
            lower_workload("rounds", {"rounds": [[[0], [1], 8.0], [[0], [1]]]})
