"""Annotated machine topologies.

A :class:`MachineTopology` is a hierarchy whose levels carry network and
memory parameters.  Conventions:

- Level 0 is the outermost level (compute nodes in a cluster topology,
  sockets in a single-node topology); the innermost level is cores.
- ``link_bw[i]`` is the capacity, in bytes/s and per direction, of the
  *up-link* connecting one level-``i`` component to its parent.  A message
  between two cores whose closest common level is ``j`` (first differing
  coordinate index ``j``) traverses the up-links of the source's ancestors
  at levels ``j .. depth-1`` and the down-links of the destination's
  ancestors at the same levels.
- ``link_lat[i]`` is the one-way latency of such a message (indexed by the
  first differing level ``j``); inner levels are faster.
- ``mem_bw[i]`` is the sustainable memory bandwidth shared by all cores of
  one level-``i`` component (e.g. an L3 complex or a NUMA domain);
  ``mem_bw[depth-1]`` is the per-core limit.  Used by the application
  compute models, not by the network simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from repro.core.hierarchy import Hierarchy

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LevelParams:
    """Network and memory parameters of one hierarchy level."""

    name: str
    radix: int
    link_bw: float  # bytes/s per direction of one component's up-link
    link_lat: float  # seconds, one-way, when this is the first level crossed
    mem_bw: float  # bytes/s shared by one component's cores (0 = unlimited)


@dataclass(frozen=True)
class MachineTopology:
    """A hierarchy annotated with per-level performance parameters."""

    name: str
    levels: tuple[LevelParams, ...]
    flop_rate: float = 20e9  # per-core sustained flop/s for compute models
    root_bw: float = 0.0  # aggregate capacity above level 0 (0 = non-blocking)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("topology needs at least one level")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields equality compares, worked out once:
        fabrics, evaluator groups and prune keys look topologies up per
        request, and the generated hash re-walks every level."""
        return hash((self.name, self.levels, self.flop_rate, self.root_bw))

    def __getstate__(self) -> dict:
        # String hashes are salted per process: a copy hashes afresh.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    # -- structure ---------------------------------------------------------

    @cached_property
    def hierarchy(self) -> Hierarchy:
        return Hierarchy(
            tuple(lv.radix for lv in self.levels),
            tuple(lv.name for lv in self.levels),
        )

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_cores(self) -> int:
        return self.hierarchy.size

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """``strides[i]`` = number of cores under one level-``i`` component."""
        out = [1] * self.depth
        for i in range(self.depth - 2, -1, -1):
            out[i] = out[i + 1] * self.levels[i + 1].radix
        return tuple(out)

    @cached_property
    def component_counts(self) -> tuple[int, ...]:
        """``component_counts[i]`` = number of level-``i`` components."""
        out = []
        n = 1
        for lv in self.levels:
            n *= lv.radix
            out.append(n)
        return tuple(out)

    @cached_property
    def link_bw(self) -> np.ndarray:
        import numpy as np

        return np.array([lv.link_bw for lv in self.levels], dtype=float)

    @cached_property
    def link_lat(self) -> np.ndarray:
        import numpy as np

        return np.array([lv.link_lat for lv in self.levels], dtype=float)

    @cached_property
    def mem_bw(self) -> np.ndarray:
        import numpy as np

        return np.array([lv.mem_bw for lv in self.levels], dtype=float)

    # -- queries -----------------------------------------------------------

    def coords_of(self, cores: np.ndarray | Sequence[int]) -> np.ndarray:
        """``(n, depth)`` coordinates of ``cores`` in the machine hierarchy."""
        import numpy as np

        from repro.core.mixed_radix import decompose_many

        return decompose_many(self.hierarchy, np.asarray(cores, dtype=np.int64))

    def component_of(self, cores: np.ndarray, level: int) -> np.ndarray:
        """Index of the level-``level`` component containing each core."""
        import numpy as np

        cores = np.asarray(cores, dtype=np.int64)
        return cores // self.strides[level]

    def lca_level(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """First differing level between core pairs (``depth`` for same core).

        Returns the outermost level index at which the two cores' coordinates
        differ; a value of ``depth`` marks a self-flow (no network traversal).
        """
        import numpy as np

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        out = np.full(src.shape, self.depth, dtype=np.int64)
        for level in range(self.depth - 1, -1, -1):
            stride = self.strides[level]
            differ = (src // stride) != (dst // stride)
            out[differ] = level
        return out

    def hop_latency(self, lca: np.ndarray) -> np.ndarray:
        """One-way latency per flow given first-differing levels ``lca``."""
        import numpy as np

        lat = np.append(self.link_lat, 0.0)  # depth -> self-flow, no latency
        return lat[np.minimum(lca, self.depth)]

    # -- derived topologies --------------------------------------------------

    def with_nodes(self, n_nodes: int) -> "MachineTopology":
        """Same machine with a different count at level 0 (node count)."""
        first = replace(self.levels[0], radix=n_nodes)
        return replace(self, levels=(first,) + self.levels[1:])

    def scaled_link_bw(self, level: int, factor: float) -> "MachineTopology":
        """Copy with one level's link bandwidth multiplied by ``factor``.

        Used e.g. to model Hydra's second NIC (doubling the node up-link).
        """
        lv = replace(self.levels[level], link_bw=self.levels[level].link_bw * factor)
        levels = self.levels[:level] + (lv,) + self.levels[level + 1 :]
        return replace(self, levels=levels)

    def node_topology(self) -> "MachineTopology":
        """The single-node topology (drops level 0)."""
        if self.depth < 2:
            raise ValueError("cannot take node topology of a single-level machine")
        return replace(self, name=f"{self.name}-node", levels=self.levels[1:])

    # -- memory model --------------------------------------------------------

    def effective_mem_bw(self, active_cores: Sequence[int] | np.ndarray) -> np.ndarray:
        """Per-core sustainable memory bandwidth under contention.

        Each active core receives the minimum, over all levels, of that
        level's capacity divided by the number of active cores sharing the
        component (levels with ``mem_bw == 0`` are non-binding).  This is
        the bandwidth model behind the CG experiment (Figure 9): packing
        cores into one L3/NUMA divides its capacity among them.
        """
        import numpy as np

        cores = np.asarray(active_cores, dtype=np.int64)
        bw = np.full(cores.shape, np.inf)
        for level in range(self.depth):
            cap = self.levels[level].mem_bw
            if cap <= 0:
                continue
            comp = self.component_of(cores, level)
            counts = np.bincount(comp, minlength=self.component_counts[level])
            bw = np.minimum(bw, cap / counts[comp])
        return bw
