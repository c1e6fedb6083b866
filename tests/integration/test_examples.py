"""Smoke tests: the example scripts must run and emit their key lines.

Each example executes end to end exactly as a user would run it; the
pinned lines are the round model's own numbers, so a change to how the
model prices a program shows up here.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, timeout: int = 180) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "rank 10 has coordinates [1, 0, 2]" in out
    assert "ring cost [0,1,2] = 9 vs [1,0,2] = 7" in out
    assert "map_cpu:" in out


def test_slurm_gaps():
    out = _run("slurm_gaps.py")
    assert "mixed-radix only" in out
    assert "block:block" in out


def test_chaos_alltoall():
    out = _run("chaos_alltoall.py")
    assert "healthy alltoall on 32 ranks" in out
    assert "24 survivors shrink to a new world" in out
    assert "surviving hierarchy: (3, 2, 4)" in out
    assert "identical on every run" in out


def test_subcommunicator_collectives():
    out = _run("subcommunicator_collectives.py")
    assert "MPI_Alltoall in 16 subcommunicators" in out
    assert "x1 = only the first subcommunicator" in out


def test_order_advisor():
    out = _run("order_advisor.py")
    assert "1. 3-2-0-1 (16 - 46.7, 53.3, 0.0, 0.0) [plane=16] -> 1.108 ms" in out
    assert "worst/best factor: 8.41x" in out
    # Round-by-round timelines of the best and the worst order.
    assert "total 0.049 ms over 6 rounds" in out
    assert "total 0.489 ms over 6 rounds" in out
    assert "      5.8 us    256 flows  [core]" in out
    assert "     12.3 us    256 flows  [group]" in out
    assert "     81.5 us    256 flows  [node]" in out


def test_splatt_reordering():
    out = _run("splatt_reordering.py")
    assert "nell-1 (2902330, 2143368, 25495389) on 1024 ranks -> process grid (4, 4, 64)" in out
    assert "  1-0-3-2   2.16 s" in out
    assert "Slurm default 1-3-2-0: 3.15 s -> best order saves 31%" in out
    # The mpisee-style profile of the Slurm-default run.
    for row in (
        "compute                  0      0       1     1.6300",
        "MPI_Alltoallv           16     64       1     1.1499",
        "MPI_Alltoallv          256      4       2     0.3627",
        "MPI_Allreduce         1024      1       1     0.0018",
        "MPI_Bcast             1024      1       1     0.0018",
    ):
        assert row in out
    assert "Pearson(CPD duration, Alltoallv@16-rank comms) = 1.000" in out


@pytest.mark.slow
def test_core_selection_cg():
    out = _run("core_selection_cg.py", timeout=300)
    assert "distributed CG on simulated MPI" in out
    assert "faster than Slurm's default packing" in out
