"""The execution-backend registry.

Backends are looked up by name: :func:`get_backend` for a shared
per-process instance whose caches amortize across calls,
:func:`create_backend` for a cold instance.  The builtin ``round``,
``des`` and ``logp`` backends are registered by class name and built
from :mod:`repro.ir.backends` on first use, so naming, listing and
checking a backend (``--backend`` choices, a sweep's grid check) loads
no kernel and no numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:
    from repro.ir.backends import BackendCapabilities, ExecutionBackend


def _builtin(cls_name: str) -> Callable[[], ExecutionBackend]:
    def factory() -> ExecutionBackend:
        from repro.ir import backends

        backend: ExecutionBackend = getattr(backends, cls_name)()
        return backend

    return factory


_FACTORIES: Dict[str, Callable[[], ExecutionBackend]] = {
    "round": _builtin("RoundBackend"),
    "des": _builtin("DESBackend"),
    "logp": _builtin("LogPBackend"),
}
_INSTANCES: Dict[str, ExecutionBackend] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend constructor under ``name`` (last wins)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def create_backend(name: str) -> ExecutionBackend:
    """A fresh instance with cold caches (benchmarking, isolation)."""
    check_backend(name)
    return _FACTORIES[name]()


def get_backend(name: str) -> ExecutionBackend:
    """The shared per-process instance (warm pattern caches)."""
    if name not in _INSTANCES:
        _INSTANCES[name] = create_backend(name)
    return _INSTANCES[name]


def check_backend(name: str) -> None:
    """Refuse a name no backend is registered under (a ``ValueError``
    listing the registry), without building the backend."""
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r} (available: {', '.join(backend_names())})"
        )


def describe_backends() -> list[tuple[str, BackendCapabilities]]:
    return [(name, create_backend(name).capabilities) for name in backend_names()]
