"""Layer tracer for the end-to-end benchmark's traced runs.

Wraps the public entry points of each pipeline layer (:data:`LAYERS`) so
every call records one span: layer, entry point, thread, start and end on
the system-wide monotonic clock, and the span that was open when it began
(carried in a ``contextvars`` variable, so asyncio tasks keep their own
parent chains).  No file under ``src/`` changes: ``sitecustomize`` in this
directory calls :func:`activate` when ``REPRO_BENCH_TRACE`` names a
directory, and the wrappers are installed as each target module finishes
importing.

Each process appends each span to ``<dir>/spans-<pid>.txt`` as the span
closes, one line per span, because forked pool workers leave through
``os._exit`` without running ``atexit`` handlers.
"""

from __future__ import annotations

import contextvars
import functools
import importlib.abc
import inspect
import itertools
import os
import sys
import threading
import time

#: Layer -> the entry points (module, attribute path) whose calls it owns.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("repro.cli", "main"),),
    "frontend": (
        ("repro.bench.sweeps", "sweep"),
        ("repro.bench.sweeps", "ladder_sweep"),
        ("repro.bench.sweeps", "workload_sweep"),
        ("repro.bench.sweeps", "workload_ladder_sweep"),
    ),
    "lower": (
        ("repro.workloads.base", "lower_workload"),
        ("repro.ir.lower", "collective_program"),
    ),
    "key": (("repro.engine.keys", "EvalRequest.canonical"),),
    "cache": (
        ("repro.engine.cache", "ResultCache.get"),
        ("repro.engine.cache", "ResultCache.put"),
        ("repro.engine.cache", "ResultCache.warm"),
    ),
    "journal": (("repro.engine.journal", "SweepJournal.record"),),
    "prune": (
        ("repro.core.equivalence", "placement_key"),
        ("repro.core.equivalence", "equivalence_classes"),
    ),
    "metric": (
        ("repro.core.metrics", "signature"),
        ("repro.engine.fidelity", "analytic_order_score"),
    ),
    "ladder": (("repro.engine.fidelity", "FidelityLadder.search"),),
    "engine": (
        ("repro.engine.core", "SweepEngine.evaluate_many"),
        ("repro.engine.core", "SweepEngine.evaluate_batch"),
    ),
    "dispatch.pipe": (("repro.engine.supervisor", "TaskSupervisor.run"),),
    "dispatch.socket": (("repro.engine.distributed", "DistributedSupervisor.run"),),
    "kernel.round": (
        ("repro.ir.backends", "RoundBackend.run"),
        ("repro.ir.backends", "RoundBackend.run_batch"),
    ),
    "kernel.logp": (
        ("repro.ir.backends", "LogPBackend.run"),
        ("repro.ir.backends", "LogPBackend.run_batch"),
    ),
    "kernel.des": (("repro.ir.backends", "DESBackend.run"),),
    "plan": (("repro.core.advisor", "plan_query"),),
    "assemble": (
        ("repro.core.advisor", "advice_from_results"),
        ("repro.bench.sweeps", "top_k_records"),
        ("repro.bench.sweeps", "to_csv"),
    ),
    "service": (("repro.service.app", "AdvisorService.advise"),),
}

_current_span: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_trace_span", default=0
)


class SpanWriter:
    """Appends finished spans of the current process to ``spans-<pid>.txt``.

    Span ids are ``pid << 32 | n``, unique across every process of a job,
    so a forked child's spans may name a parent from the process it was
    forked from; the analysis treats such spans as roots of their thread.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._open()

    def _open(self) -> None:
        pid = os.getpid()
        path = os.path.join(self.directory, f"spans-{pid}.txt")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._ids = itertools.count((pid << 32) | 1)

    def after_fork(self) -> None:
        """In a forked child: own file and fresh ids."""
        os.close(self._fd)
        self._open()

    def next_id(self) -> int:
        return next(self._ids)

    def write(self, *span) -> None:
        """Append ``(sid, parent, layer, name, start_ns, end_ns)`` and the
        thread.  One ``O_APPEND`` write per line, so threads need no lock."""
        line = "%d %d %s %s %d %d %d\n" % (*span, threading.get_native_id())
        os.write(self._fd, line.encode())


def wrap(fn, layer: str, name: str, writer: SpanWriter):
    """``fn`` recording one span per call (coroutine functions stay async)."""

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            sid = writer.next_id()
            parent = _current_span.get()
            token = _current_span.set(sid)
            start = time.monotonic_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                _current_span.reset(token)
                writer.write(sid, parent, layer, name, start, end)

        traced = traced_async
    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = writer.next_id()
            parent = _current_span.get()
            token = _current_span.set(sid)
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                _current_span.reset(token)
                writer.write(sid, parent, layer, name, start, end)

    traced.__e2e_original__ = fn
    return traced


class Tracer:
    """Installs (and removes) the :data:`LAYERS` wrappers.

    Modules already imported are patched by :meth:`install` itself; the
    rest are patched by a ``sys.meta_path`` hook right after their code
    runs, before any importer can bind the original function.
    """

    def __init__(self, writer: SpanWriter, layers=LAYERS):
        self.writer = writer
        self._targets: dict[str, list[tuple[str, str]]] = {}
        for layer, points in layers.items():
            for module, attr in points:
                self._targets.setdefault(module, []).append((layer, attr))
        self._patched: list[tuple[object, str, object]] = []
        self._hook: _PatchOnImport | None = None

    def install(self) -> None:
        self._hook = _PatchOnImport(self)
        sys.meta_path.insert(0, self._hook)
        for module in list(self._targets):
            if module in sys.modules:
                self.patch_module(sys.modules[module])

    def uninstall(self) -> None:
        """Remove the import hook and restore every patched attribute."""
        if self._hook is not None and self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        self._hook = None
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def patch_module(self, module) -> None:
        for layer, path in self._targets.get(module.__name__, ()):
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if hasattr(original, "__e2e_original__"):
                continue  # already wrapped (module reloaded or patched twice)
            entry_point = f"{module.__name__}:{path}"
            setattr(owner, attr, wrap(original, layer, entry_point, self.writer))
            self._patched.append((owner, attr, original))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds target modules through the other finders and patches them
    once their code has run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self.tracer._targets:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self.tracer.patch_module)
        return spec


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to the real loader, then patches the executed module."""

    def __init__(self, loader, on_loaded):
        self._loader = loader
        self._on_loaded = on_loaded

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._on_loaded(module)

    def __getattr__(self, name):
        return getattr(self._loader, name)


def activate(directory: str, layers=LAYERS) -> Tracer:
    """Start tracing this process (and its forked children) into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    writer = SpanWriter(directory)
    os.register_at_fork(after_in_child=writer.after_fork)
    tracer = Tracer(writer, layers)
    tracer.install()
    return tracer
