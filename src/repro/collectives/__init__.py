"""Collective operation algorithms.

Each collective is implemented twice, from one description of its
communication pattern:

- a *rounds* face -- ``rounds(p, total_bytes) -> list[RoundSpec]`` giving,
  per synchronized round, the ``(src, dst, nbytes)`` flows in communicator
  rank space.  Lowered to a :class:`~repro.ir.program.CommProgram` and
  placed onto cores, it feeds the fast contention model (the ``round``
  backend of :mod:`repro.ir.backends`) that regenerates the paper's
  figures at full scale.
- a *program* face -- a generator per rank that actually moves NumPy
  payloads through the simulated MPI runtime, proving the algorithm
  correct and cross-validating the fast model's timings at small scale.

Size convention (Section 4.1.2 of the paper): ``total_bytes`` is the
figure x-axis, ``communicator size x count x sizeof(datatype)``, i.e. each
rank *contributes* ``total_bytes / p``:

- alltoall: each rank sends ``total/p**2`` to every peer;
- allgather: each rank contributes a ``total/p`` block, gathers ``total``;
- allreduce / reduce / bcast / scan: the vector is ``total/p`` long.

Algorithm selection (:mod:`repro.collectives.selector`) mimics the
size/communicator-size decision rules of OpenMPI's *tuned* component; the
paper lets the MPI library pick and notes fixed algorithms show the same
trends, which the ablation benchmark verifies.
"""

from repro.collectives.base import RoundSpec
from repro.collectives.selector import get_algorithm, select_algorithm, list_algorithms

__all__ = [
    "RoundSpec",
    "get_algorithm",
    "select_algorithm",
    "list_algorithms",
]
