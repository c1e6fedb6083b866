"""Ablation: fast round model vs exact discrete-event simulation.

DESIGN.md commits to two network models -- the vectorized
synchronized-round fabric used at figure scale and the exact max-min DES
used for functional validation.  This benchmark quantifies (a) how close
their timings are on round-structured collectives and (b) the speed gap
that justifies having both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.allgather import ring_program, ring_rounds
from repro.collectives.alltoall import pairwise_program, pairwise_rounds
from repro.ir import from_rounds, get_backend
from repro.simmpi import Comm, Simulator
from repro.topology.machines import hydra

P = 16
NBYTES_TOTAL = 4e6  # paper-convention total size


def _des_time(topology, cores, make_prog):
    comms = Comm.world(P)
    sim = Simulator(topology, cores)
    sim.run({r: make_prog(comms[r]) for r in range(P)})
    return max(sim.finish_times.values())


def _fast_time(topology, cores, rounds):
    cores = np.asarray(cores)
    program = from_rounds(rounds, n_ranks=cores.size)
    return get_backend("round").run(program, topology, [cores]).time


@pytest.mark.parametrize(
    "name,rounds_fn,prog_fn,block_shape",
    [
        ("allgather_ring", ring_rounds, ring_program, (int(NBYTES_TOTAL) // P // 8,)),
        (
            "alltoall_pairwise",
            pairwise_rounds,
            pairwise_program,
            (P, int(NBYTES_TOTAL) // P // P // 8),
        ),
    ],
)
def test_models_agree(benchmark, name, rounds_fn, prog_fn, block_shape):
    topo = hydra(4)
    cores = list(range(0, 4 * P, 4))  # spread over groups/sockets/nodes

    def payload(rank):
        return np.zeros(block_shape)

    t_des = _des_time(topo, cores, lambda c: prog_fn(c, payload(c.rank)))
    rounds = rounds_fn(P, NBYTES_TOTAL)
    t_fast = benchmark(_fast_time, topo, cores, rounds)
    rel = abs(t_fast - t_des) / t_des
    print(f"\n{name}: DES {t_des*1e3:.3f} ms, round model {t_fast*1e3:.3f} ms, "
          f"deviation {rel:.1%}")
    # Round-synchronized algorithms: the fast model must track the DES.
    assert rel < 0.35, f"models diverge by {rel:.1%}"


def test_des_cost_vs_fast_model(benchmark):
    """The reason the fast model exists: a full Figure-3-size point would
    take the DES minutes; the round model does it in milliseconds.  Here
    we compare at a size the DES can finish quickly."""
    import time

    topo = hydra(4)
    cores = list(range(P))
    t0 = time.perf_counter()
    _des_time(topo, cores, lambda c: pairwise_program(c, np.zeros((P, 256))))
    des_wall = time.perf_counter() - t0
    benchmark(_fast_time, topo, cores, pairwise_rounds(P, P * P * 256 * 8))
    fast_wall = benchmark.stats.stats.mean
    print(f"\nwall-clock: DES {des_wall*1e3:.1f} ms vs fast {fast_wall*1e3:.2f} ms "
          f"per evaluation ({des_wall / fast_wall:.0f}x)")
    assert fast_wall < des_wall
