"""Core contribution of the paper: mixed-radix enumeration of hierarchies.

This subpackage implements Section 3 of the paper:

- :mod:`repro.core.hierarchy` -- hierarchy descriptions ``[[n0, n1, ...]]``
  (number of sub-components per level), validation, fake levels.
- :mod:`repro.core.mixed_radix` -- Algorithms 1 and 2: decomposing a rank
  into per-level coordinates and recomposing a (permuted) rank.
- :mod:`repro.core.orders` -- permutations of hierarchy levels ("orders"),
  including an explicit implementation of Heap's algorithm.
- :mod:`repro.core.metrics` -- the two characterization metrics of
  Section 3.3: *ring cost* and *percentages of process pairs per level*.
- :mod:`repro.core.reorder` -- use case 1 (Section 3.2): rank reordering of
  ``MPI_COMM_WORLD`` and hierarchy-aware subcommunicator construction.
- :mod:`repro.core.coreselect` -- use case 2 (Section 3.4): Algorithm 3,
  generating ``--cpu-bind=map_cpu`` core lists for partial-node jobs.
- :mod:`repro.core.equivalence` -- grouping orders with identical mapping
  signatures (Section 3.3), and the finer placement key that prunes
  redundant evaluations.
"""

from repro.core.hierarchy import Hierarchy
from repro.core.mixed_radix import (
    MixedRadix,
    decompose,
    decompose_many,
    recompose,
    recompose_many,
)
from repro.core.orders import (
    Order,
    all_orders,
    heap_permutations,
    identity_order,
    inverse_order,
    order_from_lehmer,
    order_to_lehmer,
)
from repro.core.metrics import (
    OrderSignature,
    hop_cost,
    pair_level_percentages,
    ring_cost,
    signature,
)
from repro.core.reorder import (
    RankReordering,
    reorder_rank,
    reorder_ranks,
    subcommunicator_members,
)
from repro.core.coreselect import CoreSelection, map_cpu_list, distinct_core_sets
from repro.core.equivalence import equivalence_classes

__all__ = [
    "Hierarchy",
    "MixedRadix",
    "decompose",
    "decompose_many",
    "recompose",
    "recompose_many",
    "Order",
    "all_orders",
    "heap_permutations",
    "identity_order",
    "inverse_order",
    "order_from_lehmer",
    "order_to_lehmer",
    "OrderSignature",
    "hop_cost",
    "pair_level_percentages",
    "ring_cost",
    "signature",
    "RankReordering",
    "reorder_rank",
    "reorder_ranks",
    "subcommunicator_members",
    "CoreSelection",
    "map_cpu_list",
    "distinct_core_sets",
    "equivalence_classes",
]
