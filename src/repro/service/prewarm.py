"""Background pre-warming of popular machines into the engine cache.

A freshly booted advisor service has a cold cache: the first query for
each (machine, payload) grid pays full evaluation cost.  Pre-warm
workers remove that first-hit penalty for the machines the service is
most likely to be asked about (the paper's hydra and LUMI case-study
topologies) by sweeping their advice grids through the same
single-thread executor and engine the query path uses — so warmed keys
land in the in-memory LRU *and*, when the engine has a ``cache_dir``, in
the shared on-disk warm tier other service processes and CLI sweeps
read.

The workers are polite by design:

- they only run while the service is **idle** (no in-flight client
  request and none seen for ``idle_s`` seconds), yielding the
  single-threaded engine executor to clients the moment one arrives;
- they share the query path's executor, so a pre-warm grid and a live
  query never evaluate concurrently: whichever runs second finds the
  keys they share in the engine cache instead of doubling the work;
- a failing spec is recorded in :class:`PrewarmState` and retried next
  cycle; it never takes the service down.

Once every spec's grid is warm, subsequent cycles are cheap no-ops (all
keys hit the cache), so the loop doubles as a keep-warm heartbeat.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.app import AdvisorService

#: Payload grid swept per spec — the advise() defaults, so a default
#: query is warm, plus the paper's small/large sweep endpoints.
DEFAULT_SIZES = (1e5, 1e6, 64e6)


@dataclass(frozen=True)
class PrewarmSpec:
    """One (machine, communicator) grid to keep warm."""

    machine: str
    hierarchy: str
    comm_size: int
    collective: str = "alltoall"
    total_bytes: tuple[float, ...] = DEFAULT_SIZES
    backend: str | None = None  # None: the service default
    #: Warm through the multi-fidelity ladder instead of the full grid:
    #: the screening rungs plus the finalist keys get hot (what ladder
    #: queries and sweeps sharing the cache dir will ask for) without
    #: paying full fidelity for classes the ladder would eliminate.
    ladder: bool = False

    @property
    def label(self) -> str:
        return f"{self.machine}/{self.collective}@{self.comm_size}"

    def query_doc(self) -> dict:
        """The equivalent ``/advise`` body (feeds the shared planner)."""
        doc = {
            "machine": self.machine,
            "hierarchy": self.hierarchy,
            "comm_size": self.comm_size,
            "collective": self.collective,
            "total_bytes": list(self.total_bytes),
        }
        if self.backend is not None:
            doc["backend"] = self.backend
        return doc


def default_specs(machines: Sequence[str] = ("hydra", "lumi")) -> tuple[PrewarmSpec, ...]:
    """The stock pre-warm set: the paper's case-study machines at a
    representative communicator size."""
    catalog = {
        "hydra": PrewarmSpec(
            machine="hydra",
            hierarchy="node:4 socket:2 group:2 core:8",
            comm_size=16,
        ),
        "lumi": PrewarmSpec(
            machine="lumi",
            hierarchy="node:2 socket:2 numa:4 l3:2 core:8",
            comm_size=16,
        ),
    }
    unknown = [m for m in machines if m not in catalog]
    if unknown:
        raise ValueError(
            f"no pre-warm preset for {unknown} (available: {', '.join(catalog)})"
        )
    return tuple(catalog[m] for m in machines)


@dataclass
class PrewarmState:
    """Observable progress of the pre-warm workers (see ``/stats``)."""

    specs: tuple[str, ...] = ()
    cycles: int = 0  # completed passes over all specs
    grids_warmed: int = 0  # spec grids evaluated (incl. all-cache-hit passes)
    keys_submitted: int = 0  # keys the engine evaluated fresh for pre-warm
    errors: int = 0
    last_error: str | None = None
    warm: set = field(default_factory=set)  # spec labels warmed at least once

    def to_jsonable(self) -> dict:
        return {
            "specs": list(self.specs),
            "cycles": self.cycles,
            "grids_warmed": self.grids_warmed,
            "keys_submitted": self.keys_submitted,
            "errors": self.errors,
            "last_error": self.last_error,
            "warm": sorted(self.warm),
        }

    @property
    def complete(self) -> bool:
        """Every configured spec has been warmed at least once."""
        return bool(self.specs) and set(self.specs) <= self.warm


async def prewarm_once(service: "AdvisorService", spec: PrewarmSpec) -> int:
    """Warm one spec's grid; returns the number of keys the engine
    evaluated fresh (0 once the grid is warm)."""
    from repro.service.app import PlacementQuery

    query = PlacementQuery.from_doc(spec.query_doc())
    plan = service.plan(query)
    warm = service.evaluate_plan_ladder if spec.ladder else service.evaluate_plan
    _, evaluated, _ = await warm(plan)
    return evaluated


async def prewarm_worker(
    service: "AdvisorService",
    specs: Sequence[PrewarmSpec],
    idle_s: float = 1.0,
    stop: asyncio.Event | None = None,
    poll_s: float = 0.1,
    keepwarm_s: float = 30.0,
) -> None:
    """Sweep ``specs`` into the cache whenever the service sits idle.

    Runs until ``stop`` is set (the server sets it on shutdown).  After
    the first complete pass the loop slows to a ``keepwarm_s`` heartbeat
    — every key hits the cache, so a pass is nearly free, but it keeps
    the LRU entries fresh under eviction pressure from ad-hoc queries.
    """
    state = service.prewarm_state
    state.specs = tuple(s.label for s in specs)
    stop = stop if stop is not None else asyncio.Event()
    while not stop.is_set():
        if service.idle_for() < idle_s:
            await _wait(stop, poll_s)
            continue
        for spec in specs:
            if stop.is_set() or service.active_requests:
                break  # a client showed up: yield immediately
            try:
                state.keys_submitted += await prewarm_once(service, spec)
                state.grids_warmed += 1
                state.warm.add(spec.label)
            except Exception as err:  # noqa: BLE001 - worker must survive
                state.errors += 1
                state.last_error = f"{spec.label}: {err}"
        else:
            state.cycles += 1
            if state.complete:
                await _wait(stop, keepwarm_s)
                continue
        await _wait(stop, poll_s)


async def _wait(stop: asyncio.Event, timeout: float) -> None:
    """Sleep up to ``timeout`` seconds, waking early when stopped."""
    try:
        await asyncio.wait_for(stop.wait(), timeout)
    except (asyncio.TimeoutError, TimeoutError):
        pass


__all__ = [
    "DEFAULT_SIZES",
    "PrewarmSpec",
    "PrewarmState",
    "default_specs",
    "prewarm_once",
    "prewarm_worker",
]
