"""Characterization metrics for orderings (Section 3.3).

Two metrics describe how an order maps a subcommunicator onto the machine:

*Ring cost* -- the cost of sending a message around the communicator in
rank order (rank 0 -> 1 -> ... -> p-1).  Each hop costs 1 when the two
processes share the lowest hierarchy level, plus 1 for every additional
level the message must cross.  Low ring cost = contiguous rank assignment,
high ring cost = round-robin assignment.

*Percentages of process pairs per level* -- for each hierarchy level, the
share of communicator process pairs whose closest common level is that
level (pairs "fitting into a smaller level" are excluded).  High
percentages at inner levels = packed mapping; at outer levels = spread.

Both metrics are computed on the *first* subcommunicator (reordered ranks
``0 .. comm_size-1``), exactly as the paper's figure legends do, and can be
combined into an :class:`OrderSignature` to detect redundant orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy, _check_order


def hop_cost(coords_a: Sequence[int], coords_b: Sequence[int]) -> int:
    """Communication cost between two cores given their coordinates.

    Cost 0 for the same core, 1 inside the same lowest level, +1 for every
    extra level crossed: ``depth - j`` where ``j`` is the outermost level at
    which the coordinates differ.
    """
    if len(coords_a) != len(coords_b):
        raise ValueError("coordinate vectors must have equal depth")
    depth = len(coords_a)
    for j in range(depth):
        if coords_a[j] != coords_b[j]:
            return depth - j
    return 0


def _first_comm_coords(
    hierarchy: Hierarchy, order: Sequence[int], comm_size: int
) -> np.ndarray:
    """Coordinates of the first subcommunicator's members, by new rank.

    Row ``k`` holds the coordinates of the core whose *reordered* rank is
    ``k`` (for ``k < comm_size``); subcommunicators are blocks of contiguous
    reordered ranks, per Section 3.2.  Algorithm 2 inverted: new rank ``k``
    is peeled into digits fastest level (``order[0]``) first, so the cost
    is O(comm_size * depth), independent of the machine size.
    """
    if comm_size < 1 or hierarchy.size % comm_size != 0:
        raise ValueError(
            f"communicator size {comm_size} must divide {hierarchy.size}"
        )
    radices = hierarchy.radices
    _check_order(order, len(radices))
    coords = np.zeros((comm_size, len(radices)), dtype=np.int64)
    rest = np.arange(comm_size, dtype=np.int64)
    for level in order:
        coords[:, level] = rest % radices[level]
        rest //= radices[level]
    return coords


def ring_cost_of_coords(coords: np.ndarray) -> int:
    """Ring cost of a communicator given member coordinates in rank order."""
    depth = coords.shape[1]
    if coords.shape[0] < 2:
        return 0
    a = coords[:-1]
    b = coords[1:]
    diff = a != b
    # First differing level per hop; hops with identical coords cost 0.
    any_diff = diff.any(axis=1)
    first = np.argmax(diff, axis=1)
    costs = np.where(any_diff, depth - first, 0)
    return int(costs.sum())


def ring_cost(
    hierarchy: Hierarchy, order: Sequence[int], comm_size: int
) -> int:
    """Ring cost of the first subcommunicator under ``order``."""
    return ring_cost_of_coords(_first_comm_coords(hierarchy, order, comm_size))


def pair_level_counts_of_coords(coords: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Exact pair counts per level, innermost level first.

    Returns ``(counts, total)`` where ``counts[k]`` is the number of
    communicator process pairs whose closest common level is the ``k``-th
    innermost one and ``total`` is ``n * (n - 1) / 2``.  The percentages of
    :func:`pair_level_percentages_of_coords` are ``100 * counts / total``;
    equivalence keys use the integer pairs directly so near-boundary
    ratios never collide (or split) through float rounding.

    Closed form instead of an O(n^2 * depth) pairwise comparison: with
    ``S_j`` the number of pairs sharing their first ``j`` coordinates
    (``S_0 = total``), the pairs whose first difference is level ``j``
    number ``S_j - S_{j+1}``.  One lexicographic sort (O(depth * n log n))
    makes every prefix group a contiguous run of rows, and each ``S_j`` is
    then an O(n) pass over the group sizes.  Identical rows share every
    prefix, so they land in no bucket.  Coordinates may be any integers;
    nothing assumes they are bounded by a hierarchy's radices.
    """
    n, depth = coords.shape
    total = n * (n - 1) // 2
    if n < 2 or depth == 0:
        return tuple(0 for _ in range(depth)), total
    rows = coords[np.lexsort(coords.T[::-1])]
    # starts[i]: row i + 1 opens a new group of the current prefix length.
    starts = np.zeros(n - 1, dtype=bool)
    shared = [total]  # shared[j] = S_j
    for j in range(depth):
        starts |= rows[1:, j] != rows[:-1, j]
        bounds = np.flatnonzero(starts) + 1
        sizes = np.diff(bounds, prepend=0, append=n)
        shared.append(int((sizes * (sizes - 1)).sum()) // 2)
    # Level j (outermost first, cost depth - j) holds S_j - S_{j+1} pairs;
    # report innermost (cost 1) first.
    return (
        tuple(shared[j] - shared[j + 1] for j in range(depth - 1, -1, -1)),
        total,
    )


def pair_level_percentages_of_coords(coords: np.ndarray) -> tuple[float, ...]:
    """Percentages of process pairs per level, innermost level first."""
    counts, total = pair_level_counts_of_coords(coords)
    if total == 0:
        return tuple(0.0 for _ in counts)
    return tuple(float(100.0 * c / total) for c in counts)


def pair_level_percentages(
    hierarchy: Hierarchy, order: Sequence[int], comm_size: int
) -> tuple[float, ...]:
    """Pair percentages of the first subcommunicator, innermost first."""
    return pair_level_percentages_of_coords(
        _first_comm_coords(hierarchy, order, comm_size)
    )


@dataclass(frozen=True)
class OrderSignature:
    """Ring cost + pair percentages of the first subcommunicator.

    Two orders with identical signatures map the communicator onto
    same-shaped resources with the same internal rank layout and are
    expected to perform identically absent inter-communicator traffic
    (Section 3.3).
    """

    order: tuple[int, ...]
    ring_cost: int
    pair_percentages: tuple[float, ...]
    #: Exact integer pair counts per level (innermost first) and the pair
    #: total backing ``pair_percentages``.  Populated by :func:`signature`;
    #: the equivalence key uses these rationals so percentages that differ
    #: by less than any float-rounding granularity still key apart.
    pair_counts: tuple[int, ...] = ()
    n_pairs: int = 0

    def legend(self) -> str:
        """The paper's figure-legend format:
        ``0-1-2-3 (60 - 0.0, 0.0, 0.0, 100.0)``."""
        pcts = ", ".join(f"{p:.1f}" for p in self.pair_percentages)
        label = "-".join(str(i) for i in self.order)
        return f"{label} ({self.ring_cost} - {pcts})"

    @property
    def key(self) -> tuple:
        """Hashable equivalence key (excludes the order itself).

        Keys on the exact ``(count, total)`` integer pairs when available;
        signatures built from percentages alone fall back to the historic
        rounded-float key.
        """
        if self.pair_counts:
            return (self.ring_cost, self.pair_counts, self.n_pairs)
        return (self.ring_cost, tuple(round(p, 6) for p in self.pair_percentages))


def signature_of_coords(order: Sequence[int], coords: np.ndarray) -> OrderSignature:
    """:class:`OrderSignature` of a communicator given member coordinates."""
    counts, total = pair_level_counts_of_coords(coords)
    pcts = (
        tuple(0.0 for _ in counts)
        if total == 0
        else tuple(float(100.0 * c / total) for c in counts)
    )
    return OrderSignature(
        tuple(order), ring_cost_of_coords(coords), pcts, counts, total
    )


def signature(
    hierarchy: Hierarchy, order: Sequence[int], comm_size: int
) -> OrderSignature:
    """Compute the :class:`OrderSignature` of ``order``."""
    coords = _first_comm_coords(hierarchy, order, comm_size)
    return signature_of_coords(order, coords)
