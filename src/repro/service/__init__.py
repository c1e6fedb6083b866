"""The placement-advisor service: ranked placements over HTTP.

``repro.service`` turns the offline :func:`repro.core.advisor.advise`
pipeline into a long-running query service (``repro-mrd serve``):
queries are planned with the same code path as the CLI, evaluated one
grid at a time on a single-thread executor over one shared
:class:`~repro.engine.SweepEngine`, and assembled with the same
ranking code — so served advice is bitwise-identical to the offline
answer, and concurrent and repeated queries share evaluation work
through the engine's two-tier cache: each key is evaluated once.
"""

from repro.service.app import (
    AdvisorService,
    MACHINES,
    PlacementQuery,
    QueryError,
    build_service,
    known_collectives,
    topology_for,
)
from repro.service.http import (
    MAX_BODY,
    ServiceServer,
    run_server,
    start_service_server,
)
from repro.service.prewarm import (
    DEFAULT_SIZES,
    PrewarmSpec,
    PrewarmState,
    default_specs,
    prewarm_once,
    prewarm_worker,
)

__all__ = [
    "AdvisorService",
    "DEFAULT_SIZES",
    "MACHINES",
    "MAX_BODY",
    "PlacementQuery",
    "PrewarmSpec",
    "PrewarmState",
    "QueryError",
    "ServiceServer",
    "build_service",
    "default_specs",
    "known_collectives",
    "prewarm_once",
    "prewarm_worker",
    "run_server",
    "start_service_server",
    "topology_for",
]
