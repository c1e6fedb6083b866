"""Per-round oracle of the round model.

The ``round`` backend prices whole programs in vectorized passes over
round patterns.  This is the definition it must equal bit for bit, one
round at a time:

1. place each round: communicator ranks become cores, and every
   placement's flows join one merged round (instance-major, the "all
   subcommunicators at once" scenario);
2. price the merged round with :meth:`Fabric.round_structures` as
   ``max(lat + nbytes / share)`` over its live flows (``0.0`` without
   any);
3. add ``t * repeat`` in round order, starting from ``0.0``.

Compute is not included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ir import CommProgram
from repro.netsim.fabric import Fabric
from repro.topology.machine import MachineTopology


def placed_rounds(rounds, placements) -> list[tuple]:
    """``(src, dst, nbytes, repeat)`` per round in core space.

    ``rounds`` is a :class:`CommProgram` or a sequence of round-like
    objects; ``placements`` one core array per communicator instance (a
    1-D array is one instance).  Scalar payloads stay scalar; per-flow
    payloads are tiled once per instance.
    """
    if isinstance(rounds, CommProgram):
        rounds = rounds.rounds
    if isinstance(placements, np.ndarray) and placements.ndim == 1:
        placements = [placements]
    cores_list = [np.asarray(c, dtype=np.int64) for c in placements]
    out = []
    for spec in rounds:
        src = np.asarray(spec.src, dtype=np.int64)
        dst = np.asarray(spec.dst, dtype=np.int64)
        for cores in cores_list:
            if src.size and (
                min(src.min(), dst.min()) < 0
                or max(src.max(), dst.max()) >= cores.size
            ):
                raise ValueError("round refers to ranks outside the communicator")
        nbytes = spec.nbytes
        if isinstance(nbytes, np.ndarray):
            per_flow = np.broadcast_to(nbytes.astype(float), src.shape)
            nbytes = np.tile(per_flow, len(cores_list))
        out.append(
            (
                np.concatenate([c[src] for c in cores_list]),
                np.concatenate([c[dst] for c in cores_list]),
                nbytes,
                getattr(spec, "repeat", 1),
            )
        )
    return out


def round_time(fabric: Fabric, src, dst, nbytes) -> float:
    """One placed round's duration: ``max(lat + nbytes / share)``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    live, lat, share = fabric.round_structures([(src, dst)])[0]
    if not lat.size:
        return 0.0
    nb = np.broadcast_to(np.asarray(nbytes, dtype=float), src.shape)[live]
    return float((lat + nb / share).max())


def round_times(program, topology: MachineTopology, placements) -> list[float]:
    """Per-round durations of one instance of each round."""
    fabric = Fabric(topology)
    return [
        round_time(fabric, src, dst, nbytes)
        for src, dst, nbytes, _ in placed_rounds(program, placements)
    ]


def oracle_time(
    program, topology: MachineTopology, placements: Sequence[np.ndarray] | np.ndarray
) -> float:
    """The round model's program time: ``sum(t * repeat)`` in round order."""
    fabric = Fabric(topology)
    total = 0.0
    for src, dst, nbytes, repeat in placed_rounds(program, placements):
        total += round_time(fabric, src, dst, nbytes) * repeat
    return total
