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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.service.app": (
            "AdvisorService",
            "MACHINES",
            "PlacementQuery",
            "QueryError",
            "build_service",
            "known_collectives",
            "topology_for",
        ),
        "repro.service.http": (
            "MAX_BODY",
            "ServiceServer",
            "run_server",
            "start_service_server",
        ),
        "repro.service.prewarm": (
            "DEFAULT_SIZES",
            "PrewarmSpec",
            "PrewarmState",
            "default_specs",
            "prewarm_once",
            "prewarm_worker",
        ),
    },
)
