"""Counters of the analytic kernels' structure memos.

Kept apart from :mod:`repro.netsim.fabric`, so the engine reports them
(``--bench-json``, the service's ``/stats``) without importing numpy or
the kernels in a process that never ran one.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FabricCacheStats:
    """Hit/miss/eviction counters of a family of fabric memos.

    :data:`STRUCTURE_CACHE_STATS` counts the structure memos of both
    analytic kernels (:func:`repro.netsim.fabric.lru_structures`) and appears in the engine's
    ``/stats``.  Advisory counters only, never control flow.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def to_jsonable(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


#: Aggregate structure-memo counters
#: (:func:`repro.netsim.fabric.lru_structures`) across every fabric in
#: the process.
STRUCTURE_CACHE_STATS = FabricCacheStats()
