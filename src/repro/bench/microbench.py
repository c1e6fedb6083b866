"""The Section 4.1 micro-benchmark protocol on the simulated cluster.

Protocol (verbatim from the paper):

1. Reorder ranks of ``MPI_COMM_WORLD`` in a new communicator.
2. Create several subcommunicators, all containing the same number of
   processes (contiguous blocks of reordered ranks).
3. In the first subcommunicator only, measure the performance of the
   collective operation.
4. In all subcommunicators simultaneously, execute the collective and
   measure its performance.

Our simulator is deterministic, so instead of iterating inside a 0.5 s
time window we evaluate one collective invocation exactly; the
"simultaneous" scenario merges every subcommunicator's round ``i`` into
one synchronized round, which is the steady state the paper's time window
is designed to reach.

The reported *collective bandwidth* matches the paper's definition: the
figure-axis data size (communicator size x count x sizeof(datatype))
divided by the average duration of one collective call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.ir.program import CommProgram

# Imported here, not on first use: the sweep engine forks its local
# workers after importing this module, so the collectives (and the
# simulator and network modules they load) are shared with every worker
# instead of imported again in each.
from repro.collectives.selector import select_algorithm
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import OrderSignature, signature
from repro.core.orders import Order
from repro.core.reorder import RankReordering
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class MicrobenchPoint:
    """One (data size, order) measurement."""

    total_bytes: float
    duration_single: float  # one subcommunicator active
    duration_all: float  # all subcommunicators active simultaneously

    @property
    def bandwidth_single(self) -> float:
        """Collective bandwidth (bytes/s) with one active communicator."""
        return self.total_bytes / self.duration_single

    @property
    def bandwidth_all(self) -> float:
        """Collective bandwidth (bytes/s) with all communicators active."""
        return self.total_bytes / self.duration_all


@dataclass(frozen=True)
class MicrobenchSeries:
    """A size sweep for one order (one curve of a paper figure)."""

    order: Order
    signature: OrderSignature
    collective: str
    algorithm: str
    comm_size: int
    n_comms: int
    points: tuple[MicrobenchPoint, ...]

    def legend(self) -> str:
        return self.signature.legend()

    def bandwidths_single(self) -> np.ndarray:
        return np.array([p.bandwidth_single for p in self.points])

    def bandwidths_all(self) -> np.ndarray:
        return np.array([p.bandwidth_all for p in self.points])

    def sizes(self) -> np.ndarray:
        return np.array([p.total_bytes for p in self.points])


@lru_cache(maxsize=512)
def comm_members(
    hierarchy: Hierarchy, order: tuple[int, ...], comm_size: int
) -> np.ndarray:
    """Memoized ``(n_comms, comm_size)`` member table for one reordering.

    The communicator structure depends only on (hierarchy, order,
    comm_size) -- not on the payload size -- yet a size sweep used to
    re-derive it per point.  One cached read-only table serves every
    payload size (and every scenario) of the sweep; the returned array is
    write-protected so cached rows can be handed to backends directly.
    """
    reordering = RankReordering(hierarchy, tuple(order), comm_size)
    members = reordering.all_comm_members()  # canonical ranks == core IDs
    members.setflags(write=False)
    return members


def run_program(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    order: Sequence[int],
    program: "CommProgram",
    backend: str = "round",
) -> MicrobenchPoint:
    """Steps 1-4 of the protocol for one already-lowered program.

    The communicator size is the program's rank count: step 2 carves the
    reordered world into ``hierarchy.size // program.n_ranks``
    subcommunicators and the program runs on the first (``single``) and on
    all of them simultaneously (``all``).  This is the workload-frontend
    entry point -- :func:`run_microbench` is the collective-shaped shim
    over it -- so dnn training steps, stencil halos and raw round programs
    all measure through the identical placement/backend plumbing.

    The reported ``total_bytes`` prefers the producer's declared volume
    (``program.meta.total_bytes``, the figure-axis size for collectives)
    and falls back to the program's summed flow bytes.
    """
    from repro.ir import get_backend

    hierarchy.check_process_count(topology.n_cores)
    members = comm_members(hierarchy, tuple(order), program.n_ranks)

    engine = get_backend(backend)
    duration_single = engine.run(program, topology, [members[0]]).time
    duration_all = engine.run(program, topology, list(members)).time
    total = program.meta.total_bytes
    if total is None:
        total = program.total_bytes
    return MicrobenchPoint(float(total), duration_single, duration_all)


def run_microbench(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    order: Sequence[int],
    comm_size: int,
    collective: str,
    total_bytes: float,
    algorithm: str | None = None,
    backend: str = "round",
) -> MicrobenchPoint:
    """Steps 1-4 of the protocol for one data size.

    ``hierarchy`` is the *description* fed to the mixed-radix algorithm
    (it may include fake levels); its size must equal the core count of
    ``topology`` (one MPI process per core, canonical rank ``r`` bound to
    core ``r``).

    The collective is lowered once to a :class:`~repro.ir.program.CommProgram`
    and executed by the registered ``backend`` -- ``round`` (the paper's
    model), ``logp`` (fast advisory analytics) or ``des`` (exact flow
    simulation).  The shared backend instance keeps its per-topology
    pattern caches warm across calls.
    """
    from repro.ir import collective_program

    program = collective_program(collective, comm_size, total_bytes, algorithm)
    point = run_program(topology, hierarchy, order, program, backend=backend)
    # Report the requested figure-axis size verbatim (bit-identical to the
    # historical signature even if a producer ever rounds its meta volume).
    return MicrobenchPoint(
        total_bytes, point.duration_single, point.duration_all
    )


def size_sweep(
    topology: MachineTopology,
    hierarchy: Hierarchy,
    order: Sequence[int],
    comm_size: int,
    collective: str,
    sizes: Sequence[float],
    algorithm: str | None = None,
    backend: str = "round",
) -> MicrobenchSeries:
    """One figure curve: the protocol across a size sweep."""
    points = tuple(
        run_microbench(
            topology, hierarchy, order, comm_size, collective, s, algorithm,
            backend=backend,
        )
        for s in sizes
    )
    algo_label = algorithm or "+".join(
        sorted({select_algorithm(collective, comm_size, s) for s in sizes})
    )
    return MicrobenchSeries(
        order=tuple(order),
        signature=signature(hierarchy, order, comm_size),
        collective=collective,
        algorithm=algo_label,
        comm_size=comm_size,
        n_comms=hierarchy.size // comm_size,
        points=points,
    )


def paper_sizes(lo: float = 16e3, hi: float = 512e6, n: int = 11) -> list[float]:
    """Log-spaced sizes spanning the paper's 16 KB - 512 MB x-axis."""
    return list(np.logspace(np.log10(lo), np.log10(hi), n))
