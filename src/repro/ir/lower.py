"""Lowering passes: producers -> IR -> executable forms.

The single conversion pipeline between the producers and the backends:

```
collectives.rounds_for ----\\
apps (stencil/nascg/splatt) +--> CommProgram --+--> round / logp backends
raw RoundSpec sequences ----/    (repro.ir)    |     (place each pattern on
                                               |     the cores, price it on
                                               |     the per-topology Fabric)
                                               +--> round_endpoints +
                                                    rank_program   (per-rank
                                                    DES generators)
```

Producers lower here (:func:`from_rounds`, :func:`collective_program`);
the analytic backends place a program's rounds onto cores themselves
(:mod:`repro.ir.backends`), and the DES posts the per-rank programs this
module builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Sequence, Tuple

import numpy as np

from repro.ir.program import CommProgram, CommRound, ProgramMeta

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.simmpi.communicator import Comm

#: ``sends[rank]`` entries are ``(dst, nbytes, tag)``; ``recvs[rank]``
#: entries are ``(src, tag)`` -- the DES posting lists for one round.
SendMap = Dict[int, List[Tuple[int, float, int]]]
RecvMap = Dict[int, List[Tuple[int, int]]]


# -- producers -> IR ---------------------------------------------------------


def from_rounds(
    rounds: Sequence[Any],
    n_ranks: int | None = None,
    meta: ProgramMeta | None = None,
) -> CommProgram:
    """Lower a sequence of round-like objects to a :class:`CommProgram`.

    Accepts anything with ``src``/``dst``/``nbytes``/``repeat`` attributes
    (``RoundSpec``, :class:`~repro.ir.program.CommRound`, or ad-hoc
    stand-ins), so the collectives package never needs to import the IR.
    ``n_ranks`` defaults to one past the largest endpoint.
    """
    lowered = [
        r
        if isinstance(r, CommRound)
        else CommRound(r.src, r.dst, r.nbytes, getattr(r, "repeat", 1))
        for r in rounds
    ]
    if n_ranks is None:
        n_ranks = 1
        for r in lowered:
            if r.src.size:
                n_ranks = max(n_ranks, int(r.src.max()) + 1, int(r.dst.max()) + 1)
    return CommProgram(n_ranks, tuple(lowered), meta or ProgramMeta())


def collective_program(
    collective: str,
    p: int,
    total_bytes: float,
    algorithm: str | None = None,
) -> CommProgram:
    """Lower one collective (auto-selecting the algorithm) to the IR.

    A thin shim over the ``collective`` workload frontend
    (:func:`repro.workloads.lower_workload`): the lowered program depends
    only on the four arguments and is memoized, validated, and
    write-protected by the registry's single lowering path.
    """
    from repro.workloads import collective_params, lower_workload

    return lower_workload(
        "collective", collective_params(collective, p, total_bytes, algorithm)
    )


# -- IR -> per-rank DES programs ---------------------------------------------


def round_endpoints(rnd: Any, tag_base: int) -> tuple[SendMap, RecvMap]:
    """Bucket one round's flows by rank in a single pass.

    Per-rank lists keep the round's flow order, so the DES posts
    operations in the same sequence a per-rank scan would (FIFO channel
    matching makes that order part of the semantics).  Accepts any
    round-like object (``CommRound``, ``RoundSpec``).
    """
    nb = np.broadcast_to(np.asarray(rnd.nbytes, dtype=float), rnd.src.shape)
    sends: SendMap = {}
    recvs: RecvMap = {}
    src, dst = rnd.src, rnd.dst
    for i in range(src.size):
        s, d = int(src[i]), int(dst[i])
        tag = tag_base + i
        sends.setdefault(s, []).append((d, float(nb[i]), tag))
        recvs.setdefault(d, []).append((s, tag))
    return sends, recvs


def rank_program(
    comm: "Comm", sends: SendMap, recvs: RecvMap, compute: float = 0.0
) -> Generator[Any, Any, None]:
    """One rank's DES program for a single round instance.

    An optional local compute block runs first (the op-view's
    :class:`~repro.ir.program.ComputeOp`), then receives post (in flow
    order), then sends, then one waitall -- the op-view order
    :meth:`repro.ir.program.CommProgram.rank_ops` documents.
    """
    from repro.simmpi.ops import Compute

    rank = comm.rank

    def program() -> Generator[Any, Any, None]:
        if compute > 0.0:
            yield Compute(compute)
        reqs = []
        for src, tag in recvs.get(rank, ()):
            reqs.append((yield comm.irecv(src, tag=tag)))
        for dst, nbytes, tag in sends.get(rank, ()):
            reqs.append((yield comm.isend(dst, nbytes, None, tag=tag)))
        if reqs:
            yield comm.wait(*reqs)
        return None

    return program()
