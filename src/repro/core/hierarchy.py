"""Hierarchy descriptions.

A *hierarchy* describes how many sub-components each level of a machine
contains, from the outermost level to the innermost one.  The paper denotes
a machine with two nodes, two sockets per node and four cores per socket as
``[[2, 2, 4]]`` (Figure 1).  The product of all radices is the total number
of enumerated units (cores, and therefore MPI ranks when running one process
per core).

Hierarchies are *descriptions*, not measurements: as Section 3.2 points out,
it can be useful to provide a hierarchy that differs from the physical one,
e.g. splitting a 16-core socket into two *fake* groups of 8 to expose more
ordering possibilities, or prepending network levels (switches, cabinets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Hierarchy:
    """An immutable mixed-radix hierarchy description.

    Parameters
    ----------
    radices:
        Number of sub-components at each level, outermost first.  Every
        radix must be an integer >= 2 (a level with a single component
        carries no information and would silently inflate the order count).
    names:
        Optional human-readable level names, outermost first (e.g.
        ``("node", "socket", "core")``).  Defaults to ``level0``, ...
    masked:
        True when this hierarchy was derived from a strict subset of a
        larger machine's units (:meth:`without_cores`,
        :func:`hierarchy_of_units`).  A masked hierarchy is homogeneous as
        a *description*, but the physical units behind it need not be, so
        first-communicator-only shortcuts (e.g. order equivalence keyed on
        subcommunicator 0) are unsafe and are auto-upgraded to
        all-communicator checks.  Excluded from equality and repr.

    Examples
    --------
    >>> h = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
    >>> h.size
    16
    >>> h.depth
    3
    """

    radices: tuple[int, ...]
    names: tuple[str, ...] = field(default=())
    masked: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        radices = tuple(int(r) for r in self.radices)
        if len(radices) == 0:
            raise ValueError("hierarchy must have at least one level")
        for r in radices:
            if r < 2:
                raise ValueError(
                    f"every hierarchy radix must be >= 2, got {r} in {radices}"
                )
        object.__setattr__(self, "radices", radices)
        names = tuple(self.names) or tuple(f"level{i}" for i in range(len(radices)))
        if len(names) != len(radices):
            raise ValueError(
                f"got {len(names)} level names for {len(radices)} levels"
            )
        object.__setattr__(self, "names", names)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields equality compares (``masked`` is not
        one), worked out once: engine groups and prune keys look
        hierarchies up per request."""
        return hash((self.radices, self.names))

    def __getstate__(self) -> dict:
        # String hashes are salted per process: a copy hashes afresh.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    # -- basic properties -------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of levels (``|h|`` in the paper)."""
        return len(self.radices)

    @property
    def size(self) -> int:
        """Total number of units: the product of all radices."""
        return math.prod(self.radices)

    def __len__(self) -> int:
        return self.depth

    def __iter__(self) -> Iterator[int]:
        return iter(self.radices)

    def __getitem__(self, i: int) -> int:
        return self.radices[i]

    def __str__(self) -> str:
        inner = ", ".join(str(r) for r in self.radices)
        return f"[[{inner}]]"

    # -- derived hierarchies ----------------------------------------------

    def permuted(self, order: Sequence[int]) -> "Hierarchy":
        """Hierarchy whose level ``i`` is this hierarchy's level ``order[i]``.

        This is the "permuted hierarchy" column of Table 1 in the paper.
        """
        _check_order(order, self.depth)
        return Hierarchy(
            tuple(self.radices[i] for i in order),
            tuple(self.names[i] for i in order),
            masked=self.masked,
        )

    def with_fake_level(self, level: int, split: int) -> "Hierarchy":
        """Split ``level`` into a fake level of ``split`` groups.

        A radix ``r`` at ``level`` becomes two levels ``(split, r // split)``.
        Section 3.2: *"a socket containing 16 cores can be faked as
        containing 2 components with 8 cores each"*.
        """
        r = self.radices[level]
        if split < 2 or r % split != 0 or r // split < 2:
            raise ValueError(
                f"cannot split radix {r} at level {level} into {split} groups"
            )
        radices = (
            self.radices[:level] + (split, r // split) + self.radices[level + 1 :]
        )
        names = (
            self.names[:level]
            + (f"{self.names[level]}-group", self.names[level])
            + self.names[level + 1 :]
        )
        return Hierarchy(radices, names)

    def with_prefix(self, radices: Sequence[int], names: Sequence[str] | None = None) -> "Hierarchy":
        """Prepend outer levels (e.g. network switches, cabinets)."""
        radices = tuple(int(r) for r in radices)
        if names is None:
            names = tuple(f"net{i}" for i in range(len(radices)))
        return Hierarchy(radices + self.radices, tuple(names) + self.names)

    def inner(self, start_level: int) -> "Hierarchy":
        """The sub-hierarchy below (and including) ``start_level``."""
        if not 0 <= start_level < self.depth:
            raise IndexError(start_level)
        return Hierarchy(
            self.radices[start_level:], self.names[start_level:], masked=self.masked
        )

    # -- validation helpers -----------------------------------------------

    def check_process_count(self, nprocs: int) -> None:
        """Constraint (1) of Section 3.2.

        The product of all radices must equal the number of MPI processes
        (one process per enumerated unit).
        """
        if nprocs != self.size:
            raise ValueError(
                f"hierarchy {self} enumerates {self.size} units but the job "
                f"has {nprocs} processes; provide a hierarchy whose radix "
                f"product equals the process count"
            )

    def strides(self) -> tuple[int, ...]:
        """Multiplier of each level's coordinate in the canonical numbering.

        ``strides()[i]`` is the product of all radices *below* level ``i``;
        the canonical (initial) rank of coordinates ``c`` is
        ``sum(c[i] * strides()[i])``.
        """
        out = [1] * self.depth
        for i in range(self.depth - 2, -1, -1):
            out[i] = out[i + 1] * self.radices[i + 1]
        return tuple(out)

    def without_cores(self, dead: Iterable[int]) -> "Hierarchy":
        """The hierarchy formed by the units surviving ``dead``.

        The fault-tolerance counterpart of the fake-level tricks above: a
        crashed node (all units under one level-0 component) shrinks that
        radix digit by one, a drained socket shrinks the socket digit, and
        levels reduced to a single surviving child are dropped.  Raises
        ``ValueError`` when the survivors are not homogeneous (different
        survivor counts under different parents) -- such irregular
        machines cannot be described by one mixed-radix base; enumerate
        them through the masked path
        (:func:`repro.core.coreselect.masked_map_cpu_list`) instead.

        >>> Hierarchy((3, 2, 4)).without_cores(range(8))  # node 0 died
        Hierarchy(radices=(2, 2, 4), names=('level0', 'level1', 'level2'))
        """
        dead_set = {int(c) for c in dead}
        survivors = [u for u in range(self.size) if u not in dead_set]
        return hierarchy_of_units(self, survivors)


def _check_order(order: Sequence[int], depth: int) -> None:
    if sorted(order) != list(range(depth)):
        raise ValueError(
            f"order {tuple(order)} is not a permutation of 0..{depth - 1}"
        )


def hierarchy_of_units(hierarchy: Hierarchy, units: Sequence[int]) -> Hierarchy:
    """The reduced hierarchy formed by a subset of enumerated units.

    Each level's new radix is the number of *distinct* children used under
    each used parent; levels reduced to one child are dropped.  Raises
    ``ValueError`` when the subset is not homogeneous.  This single
    derivation backs both partial-node core selection (Section 3.4 of the
    paper) and the fault-shrink path
    (:meth:`Hierarchy.without_cores`).
    """
    from repro.core.mixed_radix import decompose_many

    import numpy as np

    ids = sorted({int(u) for u in units})
    if not ids:
        raise ValueError("an empty unit set does not form a hierarchy")
    if ids[0] < 0 or ids[-1] >= hierarchy.size:
        raise ValueError(f"unit IDs outside hierarchy of size {hierarchy.size}")
    coords = decompose_many(hierarchy, np.asarray(ids, dtype=np.int64))
    radices: list[int] = []
    names: list[str] = []
    for level in range(hierarchy.depth):
        if level == 0:
            used = len(np.unique(coords[:, 0]))
        else:
            groups: dict[tuple[int, ...], set[int]] = {}
            for row in coords:
                groups.setdefault(tuple(row[:level]), set()).add(int(row[level]))
            counts = {len(v) for v in groups.values()}
            if len(counts) != 1:
                raise ValueError(
                    "unit set is not homogeneous at level "
                    f"{hierarchy.names[level]}"
                )
            used = counts.pop()
        if used > 1:
            radices.append(used)
            names.append(hierarchy.names[level])
    if not radices:
        raise ValueError("a single unit does not form a hierarchy")
    return Hierarchy(
        tuple(radices),
        tuple(names),
        masked=hierarchy.masked or len(ids) < hierarchy.size,
    )


def homogeneous_hierarchy(counts: Iterable[tuple[str, int]]) -> Hierarchy:
    """Build a hierarchy from ``(name, count)`` pairs, outermost first."""
    pairs = list(counts)
    return Hierarchy(
        tuple(c for _, c in pairs),
        tuple(n for n, _ in pairs),
    )
