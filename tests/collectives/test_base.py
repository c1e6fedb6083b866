"""Validation in the shared round-schedule plumbing."""

import numpy as np
import pytest

from repro.collectives.base import RoundSpec
from repro.ir import CommProgram, CommRound, from_rounds, get_backend
from repro.topology.machines import generic_cluster

TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))


def _price(rounds, cores):
    """The round model's result of ``rounds`` with ranks on ``cores``."""
    program = from_rounds(rounds, n_ranks=len(cores))
    return get_backend("round").run(program, TOPO, [np.asarray(cores)])


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        RoundSpec(np.array([0, 1]), np.array([1]), 8.0)


def test_nonpositive_repeat_rejected():
    with pytest.raises(ValueError):
        RoundSpec(np.array([0]), np.array([1]), 8.0, repeat=0)


def test_out_of_range_rank_rejected():
    spec = RoundSpec(np.array([0]), np.array([2]), 8.0)
    with pytest.raises(ValueError, match="outside the communicator"):
        _price([spec], [4, 5])


def test_negative_src_rank_rejected():
    # Regression: only the upper bound used to be validated, so a negative
    # rank silently indexed member_cores from the end.
    spec = RoundSpec(np.array([-1]), np.array([1]), 8.0)
    with pytest.raises(ValueError, match="outside the communicator"):
        _price([spec], [4, 5])


def test_negative_dst_rank_rejected():
    spec = RoundSpec(np.array([0]), np.array([-2]), 8.0)
    with pytest.raises(ValueError, match="outside the communicator"):
        _price([spec], [4, 5])


def test_valid_rounds_map_to_cores():
    spec = RoundSpec(np.array([0, 1]), np.array([1, 0]), 8.0, repeat=3)
    placed = _price([spec], [7, 9])
    # The same flows written in core space, on the identity placement.
    direct = CommProgram(16, (CommRound([7, 9], [9, 7], 8.0, repeat=3),))
    expected = get_backend("round").run(direct, TOPO, [np.arange(16)])
    assert placed.time == expected.time
    assert placed.per_round[0].repeat == 3


def test_empty_round_passes_validation():
    spec = RoundSpec(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0.0)
    result = _price([spec], [0, 1])
    assert result.per_round[0].n_flows == 0
    assert result.time == 0.0
