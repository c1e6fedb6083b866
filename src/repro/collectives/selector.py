"""Size-based algorithm selection, in the spirit of OpenMPI's ``tuned``.

The paper leaves algorithm choice to the MPI library ("we do not force a
specific algorithm...; results with a fixed algorithm show similar
trends").  :func:`select_algorithm` reproduces typical decision rules:
latency-optimal log-round algorithms for small payloads, bandwidth-optimal
pairwise/ring algorithms for large ones, with power-of-two-only algorithms
guarded.  ``benchmarks/bench_ablation_algorithms.py`` quantifies how much
the choice matters per mapping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.collectives.base import RoundSpec

RoundsFn = Callable[[int, float], "list[RoundSpec]"]


#: Every rounds-face algorithm: ``(collective, name) -> fn``.  Bound on
#: first lookup, not at import: choosing an algorithm by name
#: (:func:`select_algorithm`) must not load the algorithm modules, and
#: numpy with them.  Until then the module ``__getattr__`` below binds it
#: for outside readers too (tests patch it in place).
_REGISTRY: dict[tuple[str, str], RoundsFn]


def _registry() -> dict[tuple[str, str], RoundsFn]:
    global _REGISTRY
    try:
        return _REGISTRY
    except NameError:
        pass
    from repro.collectives import allgather, allreduce, alltoall, misc, rooted

    registry: dict[tuple[str, str], RoundsFn] = {}
    for collective, module in (
        ("alltoall", alltoall),
        ("allgather", allgather),
        ("allreduce", allreduce),
    ):
        for name, fn in module.ROUNDS.items():
            registry[(collective, name)] = fn
    for name, fn in rooted.ROUNDS.items():
        collective, algo = name.rsplit("_", 1)
        registry[(collective, algo)] = fn
    registry[("bcast", "scatter_allgather")] = rooted.bcast_scatter_allgather_rounds
    registry[("barrier", "dissemination")] = misc.barrier_rounds
    registry[("scan", "recursive_doubling")] = misc.scan_rounds
    registry[("reduce_scatter", "halving")] = misc.reduce_scatter_halving_rounds
    registry[("reduce_scatter", "ring")] = misc.reduce_scatter_ring_rounds
    _REGISTRY = registry
    return registry


def __getattr__(name: str) -> Any:
    if name == "_REGISTRY":
        return _registry()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def list_algorithms(collective: str | None = None) -> list[tuple[str, str]]:
    """All registered ``(collective, algorithm)`` pairs."""
    return sorted(
        key for key in _registry() if collective is None or key[0] == collective
    )


def is_registered(collective: str, algorithm: str | None = None) -> bool:
    """Whether ``collective`` has a registered algorithm (``algorithm``,
    when given); a lookup in the live registry, with no sort."""
    registry = _registry()
    if algorithm is not None:
        return (collective, algorithm) in registry
    return any(c == collective for c, _ in registry)


def get_algorithm(collective: str, algorithm: str) -> RoundsFn:
    """Look up a rounds-face algorithm by name."""
    try:
        return _registry()[(collective, algorithm)]
    except KeyError:
        known = ", ".join(a for c, a in list_algorithms(collective))
        raise KeyError(
            f"unknown algorithm {algorithm!r} for {collective!r} "
            f"(known: {known or 'none'})"
        ) from None


def _is_pow2(p: int) -> bool:
    return p >= 1 and not p & (p - 1)


def select_algorithm(collective: str, p: int, total_bytes: float) -> str:
    """Pick an algorithm the way a tuned MPI library would.

    ``total_bytes`` follows the paper's convention (communicator size x
    per-rank count); per-rank payload is ``total_bytes / p``.
    """
    per_rank = total_bytes / max(p, 1)
    if collective == "alltoall":
        return "bruck" if per_rank <= 4096 and p >= 8 else "pairwise"
    if collective == "allgather":
        if per_rank <= 1024 and p >= 8:
            return "bruck"
        if _is_pow2(p) and per_rank <= 65536:
            return "recursive_doubling"
        return "ring"
    if collective == "allreduce":
        if per_rank <= 65536:
            return "recursive_doubling" if _is_pow2(p) else "ring"
        return "rabenseifner" if _is_pow2(p) else "ring"
    if collective == "reduce_scatter":
        return "halving" if _is_pow2(p) else "ring"
    if collective in ("bcast", "reduce", "gather", "scatter"):
        return "binomial"
    if collective == "barrier":
        return "dissemination"
    if collective == "scan":
        return "recursive_doubling"
    raise KeyError(f"unknown collective {collective!r}")


def rounds_for(
    collective: str,
    p: int,
    total_bytes: float,
    algorithm: str | None = None,
) -> list[RoundSpec]:
    """Rounds of ``collective`` on ``p`` ranks, auto-selecting by default."""
    name = algorithm or select_algorithm(collective, p, total_bytes)
    return get_algorithm(collective, name)(p, total_bytes)
