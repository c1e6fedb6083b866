"""Lazy package exports (PEP 562).

Every package ``__init__`` of the pipeline re-exports its public names
through :func:`lazy_exports` instead of importing its submodules:
``from repro.core import Hierarchy`` imports ``repro.core.hierarchy`` on
first use, not when ``repro.core`` is imported.  A process therefore
loads only the modules its job runs -- a sweep replayed from the record
log never loads numpy, the kernels or the simulators.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``,
    which re-exports every name of ``exports`` (defining module -> the
    names it defines).

    A name resolves by importing its module on first access and is then
    stored on the package, so later lookups are plain attribute reads.
    Any other name raises :class:`AttributeError`, which is also what
    lets ``from package import submodule`` fall through to the import
    system.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *where})

    return __getattr__, __dir__, list(where)
