"""Order equivalence classes (Section 3.3).

For a fixed hierarchy and subcommunicator size, several of the ``depth!``
orders produce mappings that cannot be distinguished by performance (absent
inter-communicator traffic): they place every subcommunicator on
same-shaped resources with the same internal rank layout.  The paper's
example: on ``[[2, 2, 4]]`` the orders ``[2, 0, 1]`` and ``[2, 1, 0]``
merely exchange which socket two of the communicators use.

We group orders by their :class:`~repro.core.metrics.OrderSignature`
(ring cost + exact per-level pair counts of the first subcommunicator).
On homogeneous hierarchies all subcommunicators of an order share one
signature, so the first communicator suffices; :func:`equivalence_classes`
optionally verifies that with ``check_all_comms=True``.  Masked
hierarchies (derived from a strict subset of a machine's units, see
:meth:`repro.core.hierarchy.Hierarchy.without_cores`) auto-enable the
all-communicator key: their subcommunicators need not be congruent, so
the comm-0 shortcut would mis-class orders.

Keys are built on the exact integer pair counts, never on rounded
percentages: two near-boundary pair ratios that round to the same float
(or straddle a rounding boundary) must not merge (or split) a class.

These signature classes are the paper's explanatory notion (the CLI's
``classes`` listing prints them).  Every answer groups on the finer
:func:`placement_key` instead, an O(depth) closed form over the order
alone: the sweep engine reuses results on it, and the advisor ranks and
lists its classes, labelling each with its representative's signature.
Equal signatures do not imply equal time once levels have different
link parameters or communicators share links (the ``all`` scenario).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.hierarchy import Hierarchy, _check_order

if TYPE_CHECKING:
    from repro.core.metrics import OrderSignature


def _comm_signatures(
    hierarchy: Hierarchy, order: Sequence[int], comm_size: int
) -> list[tuple]:
    """Exact signature key of every subcommunicator under ``order``.

    Each key is ``(ring_cost, pair_counts, n_pairs)`` with the pair
    counts as exact integers (innermost level first) -- byte-for-byte
    comparable rationals, immune to the float rounding that used to merge
    or split percentages near a ``1e-6`` bucket boundary.
    """
    from repro.core.metrics import signature_of_coords
    from repro.core.mixed_radix import decompose_many
    from repro.core.reorder import RankReordering

    reordering = RankReordering(hierarchy, tuple(order), comm_size)
    keys = []
    for c in range(reordering.n_comms):
        coords = decompose_many(hierarchy, reordering.comm_members(c))
        keys.append(signature_of_coords(order, coords).key)
    return keys


def resolve_check_all_comms(
    hierarchy: Hierarchy, check_all_comms: bool | None
) -> bool:
    """Resolve the ``check_all_comms`` mode for a hierarchy.

    ``None`` (auto) enables the strict all-communicator key exactly when
    the hierarchy is masked; explicitly passing ``False`` for a masked
    hierarchy is refused, because the comm-0 signature is not trustworthy
    there.
    """
    if check_all_comms is None:
        return hierarchy.masked
    if hierarchy.masked and not check_all_comms:
        raise ValueError(
            f"hierarchy {hierarchy} is masked (derived from a strict subset "
            "of a machine's units); its subcommunicators need not be "
            "congruent, so first-communicator-only equivalence keys are "
            "unsafe.  Pass check_all_comms=True (or leave it unset)."
        )
    return check_all_comms


def equivalence_classes(
    hierarchy: Hierarchy,
    comm_size: int,
    orders: Iterable[Sequence[int]] | None = None,
    check_all_comms: bool | None = None,
) -> dict[tuple, list[OrderSignature]]:
    """Group orders whose mappings are performance-equivalent.

    Returns ``{signature_key: [OrderSignature, ...]}``; each value list is
    one equivalence class, in input order.  With ``check_all_comms`` the key
    is the sorted multiset of *all* subcommunicators' signatures instead of
    the first communicator's only (strictly finer, slower).  The default
    (``None``) picks the first-communicator key for ordinary hierarchies
    and auto-enables the all-communicator key for masked ones; explicitly
    passing ``False`` for a masked hierarchy raises ``ValueError``.

    Each signature comes from :func:`repro.core.metrics.signature`, which
    decomposes comm 0's ranks directly in O(comm_size * depth); only the
    all-communicator key reorders the whole machine.
    """
    from repro.core.metrics import signature
    from repro.core.orders import all_orders

    check_all = resolve_check_all_comms(hierarchy, check_all_comms)
    if orders is None:
        orders = all_orders(hierarchy.depth)
    classes: dict[tuple, list[OrderSignature]] = {}
    for order in orders:
        order = tuple(order)
        sig = signature(hierarchy, order, comm_size)
        if check_all:
            key = tuple(sorted(_comm_signatures(hierarchy, order, comm_size)))
        else:
            key = sig.key
        classes.setdefault(key, []).append(sig)
    return classes


def placement_key(
    hierarchy: Hierarchy, order: Sequence[int], comm_size: int
) -> tuple[int, ...]:
    """Canonical form of an order's full placement, up to machine symmetry.

    Two orders share this key iff their mappings are related by (a) a
    per-level permutation of subtrees -- an automorphism of any machine
    whose parameters are uniform within a level -- and (b) a reordering of
    the subcommunicators other than comm 0 (the merged concurrent
    schedule is comm-order-blind; comm 0 is pinned because the
    single-communicator scenario measures it specifically).  This is the
    sound result-reuse key: placements sharing it run isomorphic
    simulations.  It is strictly finer than the all-communicator
    signature key of :func:`equivalence_classes` -- equal signatures do
    not imply equal keys here (e.g. same-shaped orders spanning
    different physical levels).

    Closed form, O(depth): the key is the shortest prefix of ``order``
    (fastest level first) whose levels' radices multiply to a multiple
    of ``comm_size``.  Reordered ranks count through that prefix's
    levels in blocks, every block holds whole communicators, and the
    blocks are translates of block 0 along the remaining levels.  So two
    orders with the same prefix carve the machine into the same
    communicators, each with the same internal rank order, and differ
    only in which block they enumerate next -- the comm reordering (b)
    ignores.  Orders with different prefixes are never isomorphic:
    between consecutive ranks of a communicator the levels that change
    form a carry chain ``prefix[:i + 1]``, every ``i`` occurs (by
    minimality, the block boundary of ``prefix[:i]`` falls inside a
    communicator), and relabeling digits keeps which levels change, so
    the chains spell out the prefix in order.  When ``comm_size``
    factors through the order the prefix is just the levels comm 0
    spans; for ragged sizes (radix 3, communicators of 2) some
    communicators straddle sub-blocks, and the argument is unchanged.
    """
    order = tuple(order)
    _check_order(order, hierarchy.depth)
    if comm_size < 1 or hierarchy.size % comm_size != 0:
        raise ValueError(
            f"comm_size {comm_size} must divide world size {hierarchy.size}"
        )
    block = 1
    for k, level in enumerate(order):
        if block % comm_size == 0:
            return order[:k]
        block *= hierarchy.radices[level]
    return order
