"""Slurm ``--distribution`` policies expressed as mixed-radix orders.

Slurm can distribute ranks at exactly two hierarchy levels -- compute node
and socket -- with ``block`` or ``cyclic`` policies, plus ``plane=k``
(blocks of ``k`` consecutive ranks dealt to nodes round-robin).  Section
3.4's point is that mixed-radix orders strictly generalize this: every
``--distribution`` value corresponds to an order, but not vice versa
(Figure 2 shows ``[1, 0, 2]`` has no Slurm equivalent, and no option at
all touches NUMA/L3/fake levels).

Conventions: the hierarchy's level 0 must be the node level, and the
socket level is level 1.  Deeper levels (NUMA, L3, fake groups, cores) are
"sub-socket" and Slurm always enumerates them innermost-first (the
canonical within-socket order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.core.orders import Order
from repro.launcher.mapping import ProcessMapping

_POLICIES = ("block", "cyclic")


def distribution_to_order(hierarchy: Hierarchy, distribution: str) -> Order:
    """The order realizing ``--distribution=<value>`` on ``hierarchy``.

    Supported values: ``block|cyclic ':' block|cyclic`` (node and socket
    policies; a missing socket token means ``block``) and ``plane=<k>``.

    >>> h = Hierarchy((2, 2, 4))
    >>> distribution_to_order(h, "cyclic:block")
    (0, 2, 1)
    >>> distribution_to_order(h, "plane=4")
    (2, 0, 1)
    """
    depth = hierarchy.depth
    if depth < 2:
        raise ValueError("distributions need at least node and core levels")
    value = distribution.strip().lower()
    if value.startswith("plane="):
        k = int(value[len("plane=") :])
        return _plane_order(hierarchy, k)
    parts = value.split(":")
    if len(parts) == 1:
        parts.append("block")
    node_pol, socket_pol = parts[0], parts[1]
    if node_pol not in _POLICIES or socket_pol not in _POLICIES:
        raise ValueError(f"unsupported distribution {distribution!r}")
    sub_socket = list(range(depth - 1, 1, -1))  # innermost first
    if node_pol == "block" and socket_pol == "block":
        return tuple(range(depth - 1, -1, -1))
    if node_pol == "block" and socket_pol == "cyclic":
        return tuple([1] + sub_socket + [0])
    if node_pol == "cyclic" and socket_pol == "block":
        return tuple([0] + sub_socket + [1])
    return tuple([0, 1] + sub_socket)  # cyclic:cyclic


def _plane_order(hierarchy: Hierarchy, k: int) -> Order:
    """``plane=k``: blocks of ``k`` ranks dealt to nodes round-robin.

    Expressible as an order only when ``k`` equals the size of a suffix of
    the within-node hierarchy (a whole number of innermost levels).
    """
    depth = hierarchy.depth
    prod = 1
    for level in range(depth - 1, 0, -1):
        prod *= hierarchy.radices[level]
        if prod == k:
            suffix = list(range(depth - 1, level - 1, -1))
            middle = list(range(level - 1, 0, -1))
            return tuple(suffix + [0] + middle)
    raise ValueError(
        f"plane={k} does not align with the hierarchy {hierarchy}; "
        "expressible plane sizes are suffix products of the node hierarchy"
    )


def expressible_distributions(hierarchy: Hierarchy) -> dict[str, Order]:
    """Every ``--distribution`` value and the order it realizes.

    The complement of this dict's values (within all ``depth!`` orders) is
    exactly the paper's point: mappings only mixed-radix enumeration can
    express.  A one-level hierarchy has no node and core levels to
    distribute over, so it has none.
    """
    out: dict[str, Order] = {}
    if hierarchy.depth < 2:
        return out
    for node_pol in _POLICIES:
        for socket_pol in _POLICIES:
            value = f"{node_pol}:{socket_pol}"
            out[value] = distribution_to_order(hierarchy, value)
    prod = 1
    for level in range(hierarchy.depth - 1, 0, -1):
        prod *= hierarchy.radices[level]
        if prod < hierarchy.size // hierarchy.radices[0] or level == 1:
            try:
                out[f"plane={prod}"] = _plane_order(hierarchy, prod)
            except ValueError:  # pragma: no cover - by construction aligned
                pass
    return out


def order_to_distribution(hierarchy: Hierarchy, order: Sequence[int]) -> str | None:
    """The ``--distribution`` value realizing ``order``, or ``None``.

    Figure 2's captions: orders without a Slurm equivalent return None.
    One dict lookup in :func:`_distribution_of`, the reverse of
    :func:`expressible_distributions` built once per radix tuple.
    """
    return _distribution_of(hierarchy.radices).get(tuple(order))


@lru_cache(maxsize=256)
def _distribution_of(radices: tuple[int, ...]) -> dict[Order, str]:
    """Order -> the first ``--distribution`` value (in
    :func:`expressible_distributions` order) that realizes it.

    Only the radices shape the orders, so level names and masking share
    one map.  Bounded like the advisor's class memo, whose class sets
    each name one radix tuple.
    """
    out: dict[Order, str] = {}
    for value, order in expressible_distributions(Hierarchy(radices)).items():
        out.setdefault(order, value)
    return out


DEFAULT_DISTRIBUTION = "block:cyclic"
"""Slurm's default for multi-socket nodes on the paper's Hydra cluster
(Figures 3/4/8 mark order [1,3,2,0] = block:cyclic as the Slurm default).
Sites differ; LUMI's default was block:block (Figure 5 marks [4,3,2,1,0])."""


@dataclass(frozen=True)
class SlurmJob:
    """A simulated ``srun`` invocation.

    Combines node count, tasks per node, a distribution or explicit
    ``map_cpu`` list, and produces the :class:`ProcessMapping` the real
    launcher would.

    Degraded placement: ``drained_nodes`` are excluded from the allocation
    outright (crashed or administratively drained); ``dead_nic_nodes``
    still run but cannot reach the network, so they are avoided whenever
    enough healthy nodes remain and only used as a last resort for
    single-node jobs (a multi-node job scheduled onto a dead NIC could
    never communicate, so that is refused).
    """

    machine_hierarchy: Hierarchy  # node level outermost
    n_nodes: int
    ntasks_per_node: int
    distribution: str | None = None
    cpu_bind_map: tuple[int, ...] | None = None
    drained_nodes: tuple[int, ...] = ()
    dead_nic_nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.distribution is not None and self.cpu_bind_map is not None:
            raise ValueError("give either a distribution or a map_cpu list")
        cores_per_node = self.machine_hierarchy.size // self.machine_hierarchy.radices[0]
        if not 1 <= self.ntasks_per_node <= cores_per_node:
            raise ValueError(
                f"ntasks_per_node must be in 1..{cores_per_node}"
            )
        if self.cpu_bind_map is not None and len(self.cpu_bind_map) != self.ntasks_per_node:
            raise ValueError("map_cpu list length must equal ntasks_per_node")
        object.__setattr__(self, "drained_nodes", tuple(sorted({int(n) for n in self.drained_nodes})))
        object.__setattr__(self, "dead_nic_nodes", tuple(sorted({int(n) for n in self.dead_nic_nodes})))
        total_nodes = self.machine_hierarchy.radices[0]
        for n in self.drained_nodes + self.dead_nic_nodes:
            if not 0 <= n < total_nodes:
                raise ValueError(f"faulted node {n} outside the machine")

    @property
    def n_tasks(self) -> int:
        return self.n_nodes * self.ntasks_per_node

    def allocated_nodes(self) -> list[int]:
        """The nodes the scheduler grants, honouring the fault state.

        Healthy nodes first (ascending); dead-NIC nodes back-fill only a
        single-node allocation; drained nodes never.  Raises when the
        degraded machine cannot host the job.
        """
        total = self.machine_hierarchy.radices[0]
        drained = set(self.drained_nodes)
        dead_nic = set(self.dead_nic_nodes) - drained
        healthy = [n for n in range(total) if n not in drained and n not in dead_nic]
        if len(healthy) >= self.n_nodes:
            return healthy[: self.n_nodes]
        if self.n_nodes == 1 and dead_nic:
            return sorted(dead_nic)[:1]
        raise ValueError(
            f"cannot place {self.n_nodes} node(s): only {len(healthy)} healthy "
            f"of {total} ({len(drained)} drained, {len(dead_nic)} with dead NICs)"
        )

    def mapping(self) -> ProcessMapping:
        """The process-to-core binding this invocation produces."""
        h = self.machine_hierarchy
        cores_per_node = h.size // h.radices[0]
        nodes = self.allocated_nodes()
        if self.cpu_bind_map is not None:
            return ProcessMapping.from_map_cpu(h, self.n_nodes, self.cpu_bind_map, nodes=nodes)
        if self.ntasks_per_node != cores_per_node:
            # Without an explicit list Slurm packs the first cores per node.
            return ProcessMapping.from_map_cpu(
                h, self.n_nodes, tuple(range(self.ntasks_per_node)), nodes=nodes
            )
        order = distribution_to_order(h, self.distribution or DEFAULT_DISTRIBUTION)
        full = ProcessMapping.from_order(h, order)
        node_of = full.core_of // cores_per_node
        keep = np.isin(node_of, nodes)
        return ProcessMapping(h, full.core_of[keep][: self.n_tasks])
