"""Machine presets calibrated to the paper's experimental platforms.

The absolute numbers below are *plausible* figures for the named hardware
(Omni-Path 100 Gb/s NICs, Slingshot-11 200 Gb/s, UPI / Infinity-Fabric
cross-socket links, shared-memory copy bandwidths); the reproduction's
claims rest only on the *relations* between levels -- inner links are
faster and more numerous, the node up-link (the NIC) is the scarcest shared
resource -- which these presets preserve.  All parameters are explicit so
experiments can recalibrate them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.topology.machine import LevelParams, MachineTopology

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.hierarchy import Hierarchy

GB = 1e9

#: Machine presets a query or a CLI ``--machine`` may name.
MACHINES = ("generic", "hydra", "lumi")


def hydra(n_nodes: int = 16, nics: int = 1, fake_split: bool = True) -> MachineTopology:
    """The paper's Hydra cluster.

    32 nodes, two 16-core Xeon Gold 6130F sockets per node, one or two
    100 Gb/s Omni-Path NICs.  Following Section 4 we describe a node as
    ``[[2, 2, 8]]``: two sockets, and a *fake* level splitting each
    16-core socket into two 8-core groups (sub-NUMA clustering disabled,
    so the split is purely descriptive).  Full hierarchy:
    ``[[n_nodes, 2, 2, 8]]``.
    """
    if not fake_split:
        levels = (
            LevelParams("node", n_nodes, link_bw=12.5 * GB * nics, link_lat=1.5e-6, mem_bw=0.0),
            LevelParams("socket", 2, link_bw=24.0 * GB, link_lat=0.9e-6, mem_bw=60.0 * GB),
            LevelParams("core", 16, link_bw=6.0 * GB, link_lat=0.4e-6, mem_bw=12.0 * GB),
        )
    else:
        levels = (
            LevelParams("node", n_nodes, link_bw=12.5 * GB * nics, link_lat=1.5e-6, mem_bw=0.0),
            LevelParams("socket", 2, link_bw=24.0 * GB, link_lat=0.9e-6, mem_bw=60.0 * GB),
            LevelParams("group", 2, link_bw=16.0 * GB, link_lat=0.6e-6, mem_bw=35.0 * GB),
            LevelParams("core", 8, link_bw=6.0 * GB, link_lat=0.4e-6, mem_bw=12.0 * GB),
        )
    return MachineTopology(name=f"hydra-{n_nodes}n-{nics}nic", levels=levels, flop_rate=16e9)


def hydra_node(nics: int = 1, fake_split: bool = True) -> MachineTopology:
    """A single Hydra node (``[[2, 2, 8]]`` with the fake split)."""
    return hydra(2, nics=nics, fake_split=fake_split).node_topology()


def lumi(n_nodes: int = 16) -> MachineTopology:
    """The paper's LUMI partition.

    Nodes with two 64-core AMD EPYC 7763 sockets, 4 NUMA domains per
    socket, 2 L3 complexes (CCDs) per NUMA domain, 8 cores per L3;
    Slingshot-11 200 Gb/s interconnect.  Hierarchy
    ``[[n_nodes, 2, 4, 2, 8]]`` exactly as Section 4 describes.
    """
    levels = (
        LevelParams("node", n_nodes, link_bw=25.0 * GB, link_lat=1.4e-6, mem_bw=0.0),
        LevelParams("socket", 2, link_bw=36.0 * GB, link_lat=0.9e-6, mem_bw=190.0 * GB),
        LevelParams("numa", 4, link_bw=40.0 * GB, link_lat=0.65e-6, mem_bw=48.0 * GB),
        LevelParams("l3", 2, link_bw=30.0 * GB, link_lat=0.5e-6, mem_bw=34.0 * GB),
        LevelParams("core", 8, link_bw=7.0 * GB, link_lat=0.3e-6, mem_bw=20.0 * GB),
    )
    return MachineTopology(name=f"lumi-{n_nodes}n", levels=levels, flop_rate=39e9)


def lumi_node() -> MachineTopology:
    """One LUMI node (``[[2, 4, 2, 8]]``), the Figure 9 platform."""
    return lumi(2).node_topology()


def generic_cluster(
    radices: tuple[int, ...],
    names: tuple[str, ...] | None = None,
    nic_bw: float = 12.5 * GB,
    base_lat: float = 1.5e-6,
) -> MachineTopology:
    """A synthetic machine with geometrically graded level parameters.

    Useful for tests and for exploring hierarchies unlike the two paper
    platforms.  Link bandwidth grows by ~1.6x per inner level until the
    per-core link, latency shrinks by ~1.5x per level; memory capacities
    follow a similar gradient.
    """
    depth = len(radices)
    if names is None:
        names = tuple(
            ["node", "socket", "numa", "l3", "core"][max(0, 5 - depth) :]
            if depth <= 5
            else [f"level{i}" for i in range(depth)]
        )
    levels = []
    for i, (name, radix) in enumerate(zip(names, radices)):
        inner = depth - 1 - i
        bw = nic_bw * (1.6**(depth - 1 - inner)) if i > 0 else nic_bw
        if i == depth - 1:
            bw = min(bw, 7.0 * GB)
        levels.append(
            LevelParams(
                name=name,
                radix=radix,
                link_bw=bw,
                link_lat=base_lat / (1.5**i),
                mem_bw=0.0 if i == 0 else 200.0 * GB / (2.2**i),
            )
        )
    return MachineTopology(name="generic-" + "x".join(map(str, radices)), levels=tuple(levels))


def topology_for(machine: str, hierarchy: "Hierarchy") -> MachineTopology:
    """The named preset sized to ``hierarchy`` (level 0 is the node
    count for ``hydra`` and ``lumi``).

    Raises ``ValueError`` for an unknown machine or a hierarchy whose
    radices the preset does not have.
    """
    if machine == "hydra":
        topology = hydra(hierarchy.radices[0])
    elif machine == "lumi":
        topology = lumi(hierarchy.radices[0])
    elif machine == "generic":
        topology = generic_cluster(hierarchy.radices, hierarchy.names)
    else:
        raise ValueError(
            f"unknown machine {machine!r} (available: {', '.join(MACHINES)})"
        )
    if topology.hierarchy.radices != hierarchy.radices:
        raise ValueError(
            f"hierarchy {hierarchy} does not match the {machine} preset "
            f"{topology.hierarchy}"
        )
    return topology
