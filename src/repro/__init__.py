"""repro: mixed-radix enumeration of deeply hierarchical architectures.

A reproduction of Swartvagher, Hunold, Träff & Vardas, *"Using Mixed-Radix
Decomposition to Enumerate Computational Resources of Deeply Hierarchical
Architectures"* (SC-W 2023), as a reusable library:

- the paper's contribution -- rank reordering and core selection via
  mixed-radix decomposition (:mod:`repro.core`);
- every substrate its evaluation needs, built from scratch: machine
  topologies (:mod:`repro.topology`), a flow-level network simulator
  (:mod:`repro.netsim`), a simulated MPI with real collective algorithms
  (:mod:`repro.simmpi`, :mod:`repro.collectives`), a Slurm-like launcher
  (:mod:`repro.launcher`), the evaluation applications
  (:mod:`repro.apps`), profiling (:mod:`repro.profiling`) and the
  benchmark harness regenerating every figure (:mod:`repro.bench`).

Quick start::

    from repro import Hierarchy, MixedRadix, ring_cost

    h = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
    mr = MixedRadix(h)
    mr.reorder(10, (0, 2, 1))       # -> 5  (Table 1 of the paper)
    ring_cost(h, (0, 1, 2), 4)      # -> 9  (Figure 2 discussion)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.coreselect": ("CoreSelection", "map_cpu_list"),
        "repro.core.hierarchy": ("Hierarchy",),
        "repro.core.mixed_radix": ("MixedRadix", "decompose", "recompose"),
        "repro.core.metrics": (
            "OrderSignature",
            "pair_level_percentages",
            "ring_cost",
            "signature",
        ),
        "repro.core.reorder": ("RankReordering", "reorder_ranks"),
        "repro.core.orders": ("all_orders", "identity_order", "inverse_order"),
        "repro.core.equivalence": ("equivalence_classes",),
        "repro.topology.machine": ("MachineTopology",),
        "repro.topology.machines": ("hydra", "lumi", "lumi_node"),
        "repro.launcher.mapping": ("ProcessMapping",),
        "repro.launcher.slurm": ("SlurmJob", "distribution_to_order"),
    },
)
__all__ += ["__version__"]
