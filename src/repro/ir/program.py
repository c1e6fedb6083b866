"""The typed communication-program IR.

A :class:`CommProgram` is the single, backend-neutral description of a
communication schedule: an ordered sequence of synchronized
:class:`CommRound`\\ s over ``n_ranks`` communicator ranks, with optional
per-round local compute and provenance metadata
(:class:`ProgramMeta`).  Everything the repo previously encoded three
different ways -- ``RoundSpec`` lists in :mod:`repro.collectives`,
per-rank generator programs in :mod:`repro.simmpi`, and placed flow
schedules in :mod:`repro.netsim.fabric` -- lowers from (or into) this
form via :mod:`repro.ir.lower`, and every execution backend in
:mod:`repro.ir.backends` consumes it.

Two equivalent views of the same program:

- the **vector view** (:attr:`CommProgram.rounds`): per round, parallel
  ``src``/``dst``/``nbytes`` arrays in communicator-rank space -- what
  the analytical backends evaluate directly;
- the **per-rank op view** (:meth:`CommProgram.rank_ops`): the sequence
  of :class:`RecvOp`/:class:`SendOp`/:class:`ComputeOp`/:class:`BarrierOp`
  each rank executes -- what the DES lowering posts, and what the
  validation pass cross-checks against the vector view.

The op view fixes the posting order the DES backend uses: within a
round every rank posts its nonblocking receives first (in flow order),
then its nonblocking sends (in flow order), then waits on all of them --
the round barrier.  Tags are flow indices within the round, so FIFO
channel matching is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np


@dataclass(frozen=True)
class SendOp:
    """One rank's half of a flow: send ``nbytes`` to ``peer``."""

    peer: int
    nbytes: float
    tag: int


@dataclass(frozen=True)
class RecvOp:
    """One rank's half of a flow: receive ``nbytes`` from ``peer``.

    ``nbytes`` is the *expected* payload (MPI receives do not name a
    size, but carrying it lets the validation pass check byte
    conservation between the two halves of every flow).
    """

    peer: int
    nbytes: float
    tag: int


@dataclass(frozen=True)
class ComputeOp:
    """Local work preceding the round's communication."""

    seconds: float


@dataclass(frozen=True)
class BarrierOp:
    """End-of-round synchronization point (waitall over the round's ops)."""

    round_index: int


RankOp = Union[SendOp, RecvOp, ComputeOp, BarrierOp]


@dataclass(frozen=True)
class CommRound:
    """One synchronized round: a batch of flows that start together.

    ``src``/``dst`` are communicator ranks (int64 arrays of equal shape);
    ``nbytes`` is the per-flow payload, scalar or per-flow array;
    ``repeat`` collapses consecutive identical rounds (a ring allgather
    is one pattern repeated ``p - 1`` times); ``compute`` is local work,
    in seconds, every rank performs before the round's communication.
    """

    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray | float
    repeat: int = 1
    compute: float = 0.0

    def __post_init__(self) -> None:
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if isinstance(self.nbytes, np.ndarray) and self.nbytes.shape != src.shape:
            object.__setattr__(
                self, "nbytes", np.broadcast_to(self.nbytes, src.shape)
            )
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if not (self.compute >= 0.0 and np.isfinite(self.compute)):
            raise ValueError("compute must be finite and >= 0")

    @property
    def n_flows(self) -> int:
        return int(self.src.size)

    def nbytes_per_flow(self) -> np.ndarray:
        """Per-flow payload bytes as a read-only broadcast array."""
        return np.broadcast_to(np.asarray(self.nbytes, dtype=float), self.src.shape)

    def structure_key(self) -> tuple[bytes, bytes]:
        """Hashable identity of the flow *pattern* (payload excluded).

        The analytical backends key their per-pattern caches on this, so
        one pattern evaluated at many payload sizes pays for one
        structural analysis (the payload-dependent part is O(depth)).
        The byte serialization is memoized on the (frozen) round, so the
        per-lookup cost of a warm structure cache is two dict probes, not
        two array copies.
        """
        cached = self.__dict__.get("_structure_key")
        if cached is None:
            cached = (self.src.tobytes(), self.dst.tobytes())
            object.__setattr__(self, "_structure_key", cached)
        return cached

    def key(self) -> tuple:
        """Hashable identity of the full round (pattern + payload)."""
        nbytes = self.nbytes
        if isinstance(nbytes, np.ndarray):
            nb_key: tuple | float = (nbytes.tobytes(),)
        else:
            nb_key = float(nbytes)
        return (self.src.tobytes(), self.dst.tobytes(), nb_key, float(self.compute))


@dataclass(frozen=True)
class ProgramMeta:
    """Provenance of a program: where it was lowered from.

    ``source`` names the producer (``"collective"``, ``"stencil"``,
    ``"nascg"``, ``"splatt"``, ``"rounds"``, ...); the remaining fields
    carry whatever the producer knows about itself (``None`` when not
    applicable).  Metadata never affects execution -- backends may log it
    but must not branch on it.
    """

    source: str = "rounds"
    collective: str | None = None
    algorithm: str | None = None
    total_bytes: float | None = None
    label: str | None = None


@dataclass(frozen=True)
class CommProgram:
    """A complete communication program over ``n_ranks`` ranks."""

    n_ranks: int
    rounds: tuple[CommRound, ...]
    meta: ProgramMeta = field(default_factory=ProgramMeta)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if self.n_ranks < 1:
            raise ValueError("a program needs at least one rank")

    @property
    def n_rounds(self) -> int:
        """Executed round count (repeats expanded)."""
        return sum(r.repeat for r in self.rounds)

    @property
    def n_distinct_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_bytes(self) -> float:
        """Total payload bytes moved by one execution of the program."""
        total = 0.0
        for r in self.rounds:
            total += float(r.nbytes_per_flow().sum()) * r.repeat
        return total

    def rank_ops(self, rank: int, expand_repeats: bool = False) -> list[RankOp]:
        """The op sequence ``rank`` executes (the DES posting order).

        Per round: an optional :class:`ComputeOp`, then this rank's
        receives in flow order, then its sends in flow order, then the
        round's :class:`BarrierOp`.  With ``expand_repeats`` each
        repeated instance is emitted separately (tags restart per
        instance, matching the lockstep replay, which times each round on
        a fresh clock).
        """
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} outside program of {self.n_ranks} rank(s)")
        ops: list[RankOp] = []
        for index, rnd in enumerate(self.rounds):
            instance = self._round_ops(rank, index, rnd)
            for _ in range(rnd.repeat if expand_repeats else 1):
                ops.extend(instance)
        return ops

    def _round_ops(self, rank: int, index: int, rnd: CommRound) -> list[RankOp]:
        ops: list[RankOp] = []
        if rnd.compute > 0.0:
            ops.append(ComputeOp(rnd.compute))
        nb = rnd.nbytes_per_flow()
        src, dst = rnd.src, rnd.dst
        for i in range(src.size):
            if int(dst[i]) == rank:
                ops.append(RecvOp(int(src[i]), float(nb[i]), i))
        for i in range(src.size):
            if int(src[i]) == rank:
                ops.append(SendOp(int(dst[i]), float(nb[i]), i))
        ops.append(BarrierOp(index))
        return ops
