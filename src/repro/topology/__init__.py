"""Hardware topology substrate.

The paper's experiments ran on two physical clusters (Hydra and LUMI).
This subpackage models such machines as annotated hierarchies: a
:class:`~repro.core.hierarchy.Hierarchy` plus per-level network link
parameters (bandwidth and latency of the links crossed at each level) and
per-level memory-bandwidth capacities (used by the application compute
models).  Presets calibrated to the paper's machine descriptions live in
:mod:`repro.topology.machines`; hwloc-style *synthetic topology strings*
("node:16 socket:2 numa:4 core:8") are parsed by :mod:`repro.topology.hwloc`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.topology.machine": ("LevelParams", "MachineTopology"),
        "repro.topology.machines": (
            "generic_cluster",
            "hydra",
            "hydra_node",
            "lumi",
            "lumi_node",
        ),
        "repro.topology.hwloc": ("parse_synthetic", "format_synthetic"),
        "repro.topology.tree": ("TopologyTree", "TopologyNode"),
    },
)
