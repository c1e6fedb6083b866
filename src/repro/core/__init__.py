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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.hierarchy": ("Hierarchy",),
        "repro.core.mixed_radix": (
            "MixedRadix",
            "decompose",
            "decompose_many",
            "recompose",
            "recompose_many",
        ),
        "repro.core.orders": (
            "Order",
            "all_orders",
            "heap_permutations",
            "identity_order",
            "inverse_order",
            "order_from_lehmer",
            "order_to_lehmer",
        ),
        "repro.core.metrics": (
            "OrderSignature",
            "hop_cost",
            "pair_level_percentages",
            "ring_cost",
            "signature",
        ),
        "repro.core.reorder": (
            "RankReordering",
            "reorder_rank",
            "reorder_ranks",
            "subcommunicator_members",
        ),
        "repro.core.coreselect": ("CoreSelection", "map_cpu_list", "distinct_core_sets"),
        "repro.core.equivalence": ("equivalence_classes",),
    },
)
