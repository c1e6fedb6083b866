"""Communicators and groups.

A :class:`Group` is an ordered tuple of world ranks; a :class:`Comm` binds
a group to one member's position in it plus a communicator ID used to scope
message tags (messages never match across communicators, mirroring MPI
semantics).  ``split`` reproduces ``MPI_Comm_split``: processes supply a
``(color, key)`` pair and obtain the communicator of their color with ranks
sorted by key (ties broken by previous rank, as the standard requires) --
exactly the mechanism the paper uses to install a reordered world
communicator and to carve subcommunicators out of it.

Fault tolerance follows the ULFM draft: :meth:`Comm.revoke` marks a
communicator unusable across *all* handles (further operation builders
raise :class:`CommRevokedError`), :meth:`Comm.shrink` builds a working
communicator out of the survivors of a failure (collectives on a
communicator containing dead ranks raise
:class:`~repro.simmpi.errors.RankFailedError` inside the simulator), and
:meth:`Comm.agree` is the fault-tolerant agreement that lets survivors
reach a consistent view of the failure before shrinking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.simmpi.errors import CommRevokedError, RankFailedError
from repro.simmpi.ops import Compute, Irecv, Isend, Recv, Request, Send, Sendrecv, Wait

_comm_ids = itertools.count(1)


def new_comm_id() -> int:
    """A fresh process-wide communicator ID (scopes message keys)."""
    return next(_comm_ids)


#: Communicator IDs revoked via :meth:`Comm.revoke` (shared by all handles).
_revoked_ids: set[int] = set()


@dataclass(frozen=True)
class Group:
    """Ordered set of world ranks."""

    world_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        ranks = tuple(int(r) for r in self.world_ranks)
        if len(set(ranks)) != len(ranks):
            raise ValueError("group contains duplicate ranks")
        object.__setattr__(self, "world_ranks", ranks)

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def rank_of(self, world_rank: int) -> int:
        return self.world_ranks.index(world_rank)

    def translate(self, group_rank: int) -> int:
        return self.world_ranks[group_rank]


class Comm:
    """One process's handle on a communicator.

    All point-to-point helpers *return operation descriptors*; a rank
    program uses them as ``data = yield comm.recv(src)``.
    """

    def __init__(self, group: Group, my_group_rank: int, comm_id: int | None = None):
        self.group = group
        self.rank = my_group_rank
        if not 0 <= my_group_rank < group.size:
            raise ValueError(f"rank {my_group_rank} outside group of size {group.size}")
        self.comm_id = new_comm_id() if comm_id is None else comm_id

    # -- introspection ------------------------------------------------------

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def world_rank(self) -> int:
        return self.group.translate(self.rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comm(id={self.comm_id}, rank={self.rank}/{self.size})"

    # -- ULFM-style fault tolerance ------------------------------------------

    @property
    def revoked(self) -> bool:
        """Whether any handle revoked this communicator."""
        return self.comm_id in _revoked_ids

    def revoke(self) -> None:
        """Mark the communicator unusable for every handle (ULFM
        ``MPIX_Comm_revoke``).  Idempotent; operation builders raise
        :class:`CommRevokedError` afterwards."""
        _revoked_ids.add(self.comm_id)

    def _check_usable(self) -> None:
        if self.comm_id in _revoked_ids:
            raise CommRevokedError(self.comm_id)

    @staticmethod
    def shrink(
        comms: Sequence["Comm"], failed: Iterable[int]
    ) -> dict[int, "Comm"]:
        """ULFM ``MPIX_Comm_shrink``: a working communicator of survivors.

        ``failed`` holds *world* ranks known dead (e.g. from
        :attr:`RankFailedError.failed_ranks` or
        :attr:`~repro.simmpi.runtime.Simulator.failed_ranks`).  Returns
        ``{old_rank: new Comm}`` for the surviving members, preserving
        their relative order.  Raises when every member failed.
        """
        if not comms:
            return {}
        base = comms[0]
        if any(c.comm_id != base.comm_id for c in comms):
            raise ValueError("shrink requires handles on one communicator")
        dead = frozenset(int(r) for r in failed)
        survivors = [
            c for c in sorted(comms, key=lambda c: c.rank)
            if c.world_rank not in dead
        ]
        if not survivors:
            raise RankFailedError(dead, "cannot shrink: every member failed")
        group = Group(tuple(c.world_rank for c in survivors))
        comm_id = new_comm_id()
        return {
            c.rank: Comm(group, new_rank, comm_id)
            for new_rank, c in enumerate(survivors)
        }

    @staticmethod
    def agree(
        comms: Sequence["Comm"],
        values: Mapping[int, Any],
        failed: Iterable[int] = (),
        op: Callable[[Any, Any], Any] | None = None,
    ) -> Any:
        """ULFM ``MPIX_Comm_agree``: survivors agree on one reduced value.

        ``values`` maps each surviving member's *communicator* rank to its
        contribution; contributions of ``failed`` world ranks are ignored.
        The default ``op`` forms the union of iterable contributions (the
        classic use: agreeing on the set of known-failed ranks); any
        commutative two-argument callable may be supplied.  The fold runs
        in ascending rank order, so the result is deterministic.
        """
        if not comms:
            raise ValueError("agree needs at least one participant")
        base = comms[0]
        if any(c.comm_id != base.comm_id for c in comms):
            raise ValueError("agree requires handles on one communicator")
        dead = frozenset(int(r) for r in failed)
        alive = [c for c in sorted(comms, key=lambda c: c.rank) if c.world_rank not in dead]
        if not alive:
            raise RankFailedError(dead, "cannot agree: every member failed")
        missing = [c.rank for c in alive if c.rank not in values]
        if missing:
            raise ValueError(f"surviving rank(s) {missing} supplied no value")
        contributions = [values[c.rank] for c in alive]
        if op is None:
            agreed: set = set()
            for contrib in contributions:
                agreed |= set(contrib)
            return frozenset(agreed)
        acc = contributions[0]
        for contrib in contributions[1:]:
            acc = op(acc, contrib)
        return acc

    # -- point-to-point op builders (comm-local ranks) ----------------------

    def send(self, dst: int, nbytes: float, payload: Any = None, tag: int = 0) -> Send:
        self._check_usable()
        return Send(self.group.translate(dst), nbytes, payload, (self.comm_id, tag))

    def recv(self, src: int, tag: int = 0) -> Recv:
        self._check_usable()
        return Recv(self.group.translate(src), (self.comm_id, tag))

    def sendrecv(
        self,
        dst: int,
        nbytes: float,
        payload: Any,
        src: int,
        tag: int = 0,
    ) -> Sendrecv:
        self._check_usable()
        return Sendrecv(
            self.group.translate(dst),
            nbytes,
            payload,
            self.group.translate(src),
            (self.comm_id, tag),
            (self.comm_id, tag),
        )

    def isend(self, dst: int, nbytes: float, payload: Any = None, tag: int = 0) -> Isend:
        """Nonblocking send; yielding returns a :class:`Request`."""
        self._check_usable()
        return Isend(self.group.translate(dst), nbytes, payload, (self.comm_id, tag))

    def irecv(self, src: int, tag: int = 0) -> Irecv:
        """Nonblocking receive; yielding returns a :class:`Request`."""
        self._check_usable()
        return Irecv(self.group.translate(src), (self.comm_id, tag))

    @staticmethod
    def wait(*requests: Request) -> Wait:
        """Block on requests; yielding returns their ``data`` list."""
        return Wait(*requests)

    @staticmethod
    def compute(seconds: float) -> Compute:
        return Compute(seconds)

    # -- communicator construction ------------------------------------------

    @staticmethod
    def world(n: int) -> list["Comm"]:
        """Handles on a fresh world communicator of size ``n`` (one per rank)."""
        group = Group(tuple(range(n)))
        comm_id = new_comm_id()
        return [Comm(group, r, comm_id) for r in range(n)]

    @staticmethod
    def split(
        comms: Sequence["Comm"], color_key: Mapping[int, tuple[int, int]]
    ) -> dict[int, "Comm"]:
        """Collective ``MPI_Comm_split`` over per-rank handles.

        ``color_key`` maps each member's *current* rank to its
        ``(color, key)``.  Returns ``{old_rank: new Comm}``; ranks passing a
        negative color (``MPI_UNDEFINED``) are omitted.  All handles must
        belong to the same communicator.
        """
        if not comms:
            return {}
        base = comms[0]
        if any(c.comm_id != base.comm_id for c in comms):
            raise ValueError("split requires handles on one communicator")
        if set(color_key) != {c.rank for c in comms}:
            raise ValueError("every member must supply a (color, key)")
        by_color: dict[int, list[tuple[int, int]]] = {}
        for rank, (color, key) in color_key.items():
            if color >= 0:
                by_color.setdefault(color, []).append((key, rank))
        out: dict[int, Comm] = {}
        handles = {c.rank: c for c in comms}
        for color, members in by_color.items():
            members.sort()  # by key, then by previous rank
            world = tuple(handles[rank].world_rank for _, rank in members)
            group = Group(world)
            comm_id = new_comm_id()
            for new_rank, (_, old_rank) in enumerate(members):
                out[old_rank] = Comm(group, new_rank, comm_id)
        return out

    @staticmethod
    def from_members(world_ranks: Sequence[int]) -> list["Comm"]:
        """Handles on a communicator whose rank ``i`` is ``world_ranks[i]``."""
        group = Group(tuple(world_ranks))
        comm_id = new_comm_id()
        return [Comm(group, r, comm_id) for r in range(group.size)]
