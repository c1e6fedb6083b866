"""The sweep-execution engine: memoize, prune, fan out, survive.

:class:`SweepEngine` turns batches of :class:`~repro.engine.keys.EvalRequest`
into results while exploiting three independent sources of cheapness:

1. **Memoization** -- every result is stored under its content-addressed
   key in a two-tier cache (:mod:`repro.engine.cache`): repeated points
   inside one sweep, across sweeps, and across processes (with
   ``cache_dir``) cost one lookup.
2. **Equivalence pruning** -- requests that differ only in the order, with
   placements that are isomorphic under machine symmetry
   (:func:`repro.core.equivalence.placement_key`), are evaluated once and
   the result broadcast to the whole class: the paper's Section 3.3
   insight turned into compute savings, restricted to the provably sound
   subset.  The opt-in audit mode (``prune=False``) re-simulates every
   class member and asserts the broadcast would have been sound.
3. **Parallel fan-out** -- independent evaluations run on a *supervised*
   worker pool (:mod:`repro.engine.supervisor`): per-task dispatch with
   deadlines, crash detection and worker respawn, retry with exponential
   backoff, quarantine of tasks that exhaust their attempt budget, and
   graceful degradation to in-process execution if the pool dies.
   Results keep deterministic ordering and per-request worker seeding,
   so ``jobs=1`` and ``jobs=N`` are bitwise identical -- on healthy
   machines and through every recovery path.

Execution is **crash-safe**: each completed evaluation is cached (and,
with a ``cache_dir``, journaled to an append-only JSONL manifest,
:mod:`repro.engine.journal`) the moment it finishes, so an interrupted
sweep re-run over the same grid re-evaluates only the keys that never
completed and produces bitwise-identical output.

The engine keeps running statistics (wall clock, hit rate, evaluations
saved, recovery counters) and renders them as the machine-readable
``BENCH_sweep.json`` artifact later PRs track for perf trajectory.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import repro.engine.evaluators as _evaluators
from repro.engine.cache import ResultCache
from repro.engine.journal import JOURNAL_NAME, SweepJournal
from repro.engine.keys import EvalRequest
from repro.engine.supervisor import (
    EvalFailure,
    TaskSupervisor,
    is_failure,
)
from repro.util.retry import RetryPolicy

#: Models whose results depend on the order only through its strict
#: equivalence class, making class-broadcast sound.  ``logp`` qualifies:
#: the placement-key symmetry (machine automorphisms) preserves the LCA
#: histograms its coefficients are computed from.
PRUNABLE_MODELS = frozenset({"round", "des", "logp"})

#: Relative tolerance the audit mode allows between class members.  Class
#: symmetry makes results mathematically equal; float summation order may
#: differ, so exact bitwise equality is not demanded -- but anything past
#: a few ulps means the classes are wrong.
AUDIT_RTOL = 1e-9

#: Default wall-clock pause after a task's first failed attempt (seconds);
#: doubles per retry.  Small: most engine failures are deterministic or
#: crash-shaped, so waiting longer buys nothing.
DEFAULT_RETRY_BACKOFF = 0.05


class EngineAuditError(AssertionError):
    """An equivalence class's members did not produce matching results."""


@dataclass
class EngineStats:
    """Counters the engine accumulates across ``evaluate`` calls."""

    jobs: int = 1
    prune: bool = True
    wall_clock: float = 0.0
    requests: int = 0
    evaluated: int = 0
    pruned: int = 0  # evaluations skipped via class broadcast
    audited: int = 0  # class members re-simulated in audit mode
    batched: int = 0  # evaluations served by a vectorized batch pass
    batch_fallbacks: int = 0  # batch passes that fell back to the pool
    memory_hits: int = 0
    disk_hits: int = 0
    # -- robustness counters (the supervised executor & cache integrity) --
    retries: int = 0  # failed attempts that were re-dispatched
    crashes: int = 0  # attempts lost to worker death
    timeouts: int = 0  # attempts lost to the task deadline
    worker_exceptions: int = 0  # attempts lost to evaluator exceptions
    quarantined: int = 0  # tasks recorded as EvalFailure results
    workers_respawned: int = 0
    degraded_serial: bool = False  # a pool died; work continued in-process
    cache_quarantined: int = 0  # corrupt disk records detected & set aside
    tmp_files_removed: int = 0  # stale writer staging files GC'd at startup
    journal_replayed: int = 0  # completed keys loaded from the journal
    journal_missing: int = 0  # journaled keys whose cache record was gone

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    def to_jsonable(self) -> dict:
        from repro import __version__
        from repro.netsim.fabric import FABRIC_CACHE_STATS, STRUCTURE_CACHE_STATS

        return {
            "version": __version__,
            "jobs": self.jobs,
            "prune": self.prune,
            "wall_clock_s": self.wall_clock,
            "requests": self.requests,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "pruned_evaluations_saved": self.pruned,
            "audited": self.audited,
            "batched": self.batched,
            "batch_fallbacks": self.batch_fallbacks,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "worker_exceptions": self.worker_exceptions,
            "quarantined": self.quarantined,
            "workers_respawned": self.workers_respawned,
            "degraded_serial": self.degraded_serial,
            "cache_quarantined": self.cache_quarantined,
            "tmp_files_removed": self.tmp_files_removed,
            "journal_replayed": self.journal_replayed,
            "journal_missing": self.journal_missing,
            # Round-pattern cache of the fast model and the analytic
            # kernels' structure memos (this process's fabrics; workers
            # accumulate their own and are not merged).
            "fabric_round_cache": FABRIC_CACHE_STATS.to_jsonable(),
            "structure_cache": STRUCTURE_CACHE_STATS.to_jsonable(),
        }


@dataclass
class _Group:
    """Requests proven interchangeable (one equivalence class x params)."""

    indices: list[int] = field(default_factory=list)


class SweepEngine:
    """Memoized, pruned, supervised-parallel evaluation of sweep requests.

    Parameters
    ----------
    jobs:
        Worker processes for independent evaluations; 1 evaluates inline.
    cache_dir:
        Optional directory for the persistent JSON result cache.  Also
        enables the crash-safe completion journal
        (``<cache_dir>/sweep-journal.jsonl``) and startup GC of stale
        ``*.tmp`` files from killed writers.
    prune:
        Evaluate one representative per equivalence class and broadcast
        (default).  ``False`` enables the audit mode: every class member
        is re-simulated and the results are asserted to agree.
    lru_size:
        In-process cache entries kept.
    task_timeout:
        Wall-clock seconds one evaluation may run before its worker is
        killed and the task retried (None: no deadline).  Only enforced
        with ``jobs > 1``.
    max_attempts:
        Times a task may run before being quarantined as a structured
        :class:`~repro.engine.supervisor.EvalFailure` result.
    retry_backoff:
        Base wall-clock pause after a failed attempt; doubles per retry.
    dispatcher:
        Optional persistent executor with the supervisor's
        ``run(requests, on_complete)``/``stats`` shape (notably
        :class:`~repro.engine.distributed.DistributedSupervisor`).  When
        set, non-batched evaluation fans out through it instead of a
        per-batch fork pool; its lifecycle (``close()``) belongs to the
        caller.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
        prune: bool = True,
        lru_size: int = 4096,
        task_timeout: float | None = None,
        max_attempts: int = 3,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        dispatcher=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.dispatcher = dispatcher
        self.prune = prune
        self.cache = ResultCache(maxsize=lru_size, cache_dir=cache_dir)
        self.retry_policy = RetryPolicy(
            max_attempts=max_attempts,
            base_backoff=retry_backoff,
            timeout=task_timeout,
        )
        self.stats = EngineStats(jobs=jobs, prune=prune)
        self.failures: list[EvalFailure] = []
        self.journal: SweepJournal | None = None
        if cache_dir is not None:
            self.stats.tmp_files_removed = self.cache.gc_tmp_files()
            self.journal = SweepJournal(Path(cache_dir) / JOURNAL_NAME)
            self.stats.journal_replayed = self.journal.replayed
        self._class_keys: dict[tuple, tuple] = {}
        # Engine internals (cache bookkeeping, stats, journal handle) are
        # not thread-safe; the advisor service shares one engine across
        # request handlers and pre-warm workers, so the whole pipeline
        # runs under one reentrant lock.  Single-threaded callers (CLI
        # sweeps) pay one uncontended acquire per batch.
        self._lock = threading.RLock()

    # -- public API --------------------------------------------------------

    def evaluate(self, request: EvalRequest) -> dict:
        """Evaluate (or recall) a single request."""
        return self.evaluate_many([request])[0]

    def evaluate_many(self, requests: Sequence[EvalRequest]) -> list[dict]:
        """Evaluate a batch; results align with the input order.

        Duplicate and cached requests are recalled, equivalence classes
        are collapsed (or audited), and the remaining distinct
        evaluations run on the supervised worker pool in deterministic
        order.  Tasks that exhaust their retry budget come back as
        structured failure records (see
        :func:`repro.engine.supervisor.is_failure`) instead of aborting
        the batch; every successful result is cached -- and journaled,
        with a ``cache_dir`` -- the moment it completes, so partial
        progress survives crashes and interrupts.
        """
        return self._evaluate(requests, batched=False)

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> list[dict]:
        """:meth:`evaluate_many` through the vectorized batch evaluators.

        Identical pipeline and bitwise-identical results: the same
        content keys consult and populate the same two-tier cache
        record by record (so a warm batch run after a scalar run -- or
        vice versa -- evaluates nothing), the same equivalence pruning
        and journaling apply, and requests whose model has no batch
        evaluator (or whose batch pass raises) fall back to the
        supervised pool.  Only the inner loop changes: batchable
        evaluations run in-process as stacked array passes instead of
        one task per request.
        """
        return self._evaluate(requests, batched=True)

    def _evaluate(
        self, requests: Sequence[EvalRequest], batched: bool
    ) -> list[dict]:
        with self._lock:
            return self._evaluate_locked(requests, batched)

    def _evaluate_locked(
        self, requests: Sequence[EvalRequest], batched: bool
    ) -> list[dict]:
        t0 = time.perf_counter()
        requests = list(requests)
        for r in requests:  # configuration errors fail fast, pre-dispatch
            if r.model not in _evaluators.EVALUATORS:
                raise ValueError(
                    f"no evaluator registered for model {r.model!r}; "
                    f"known models: {sorted(_evaluators.EVALUATORS)}"
                )
        self.stats.requests += len(requests)
        results: list[dict | None] = [None] * len(requests)
        hits_before = (self.cache.memory_hits, self.cache.disk_hits)
        quarantined_before = self.cache.quarantined

        # 1. Resolve duplicates and cache hits.
        keys = [r.key for r in requests]
        by_key: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            by_key.setdefault(key, []).append(i)
        unresolved: list[int] = []  # first index per still-unknown key
        for key, idxs in by_key.items():
            hit = self.cache.get(key)
            if hit is not None:
                for i in idxs:
                    results[i] = hit
            else:
                if self.journal is not None and key in self.journal:
                    # The journal promised this key but the cache lost it
                    # (corruption, deletion): surface and re-evaluate.
                    self.stats.journal_missing += 1
                unresolved.append(idxs[0])

        # 2. Group unresolved requests by equivalence class.
        groups: dict[tuple, _Group] = {}
        for i in unresolved:
            groups.setdefault(self._prune_key(requests[i]), _Group()).indices.append(i)

        # 3. Decide what actually runs.
        to_run: list[int] = []
        for group in groups.values():
            if self.prune:
                to_run.append(group.indices[0])
            else:
                to_run.extend(group.indices)
        to_run.sort()  # deterministic dispatch order

        # 4. Fan out under supervision, persisting each completion at once.
        def on_complete(pos: int, outcome: dict | EvalFailure) -> None:
            i = to_run[pos]
            if isinstance(outcome, EvalFailure):
                return  # never cache or journal a failure: re-evaluate later
            self.cache.put(keys[i], outcome, requests[i].canonical())
            self._journal_record(keys[i])

        run_requests = [requests[i] for i in to_run]
        if batched:
            evaluated = self._run_batched(run_requests, on_complete)
        else:
            evaluated = self._run(run_requests, on_complete)
        for i, outcome in zip(to_run, evaluated):
            if isinstance(outcome, EvalFailure):
                self.failures.append(outcome)
                results[i] = outcome.to_result()
            else:
                results[i] = outcome
        self.stats.evaluated += len(to_run)

        # 5. Broadcast (or audit) within each class group.
        for group in groups.values():
            rep = group.indices[0]
            rest = group.indices[1:]
            rep_result = results[rep]
            if self.prune:
                for i in rest:
                    results[i] = rep_result
                    if is_failure(rep_result):
                        # The members share the representative's physics,
                        # so its failure stands in for them -- but nothing
                        # is cached, so a later run retries all of them.
                        continue
                    # Store under the member's own key so later direct
                    # lookups (and other processes via the disk tier) hit.
                    self.cache.put(keys[i], rep_result, requests[i].canonical())
                    self._journal_record(keys[i])
                    self.stats.pruned += 1
            elif rest:
                if not any(is_failure(results[i]) for i in group.indices):
                    self._audit(requests, results, group.indices)
                    self.stats.audited += len(rest)

        # 6. Fill remaining duplicates of now-resolved keys.
        for key, idxs in by_key.items():
            done = results[idxs[0]]
            for i in idxs[1:]:
                results[i] = done
        self.stats.memory_hits += self.cache.memory_hits - hits_before[0]
        self.stats.disk_hits += self.cache.disk_hits - hits_before[1]
        self.stats.cache_quarantined += self.cache.quarantined - quarantined_before
        self.stats.wall_clock += time.perf_counter() - t0
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def write_bench_json(
        self, path: str | os.PathLike, extra: dict | None = None
    ) -> dict:
        """Write the ``BENCH_sweep.json`` perf artifact; returns the doc."""
        doc = self.stats.to_jsonable()
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return doc

    def failure_summary(self) -> str:
        """Human-readable digest of every quarantined task (or '')."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} task(s) quarantined:"]
        lines += [f"  - {f.summary()}" for f in self.failures]
        return "\n".join(lines)

    # -- internals ---------------------------------------------------------

    def _journal_record(self, key: str) -> None:
        if self.journal is not None:
            self.journal.record(key)

    def _prune_key(self, request: EvalRequest) -> tuple:
        """Group key: everything but the order, plus the placement's
        canonical form (:func:`repro.core.equivalence.placement_key`).

        Orders sharing the canonical placement run isomorphic simulations
        (the mappings differ only by a machine automorphism and the
        ordering of concurrent subcommunicators), so reusing the
        representative's result is sound.  The paper's broader
        signature classes are deliberately NOT used here: equal
        signatures do not guarantee equal durations on machines with
        per-level parameter gradients (the audit mode demonstrably
        catches such merges).  Requests outside :data:`PRUNABLE_MODELS`
        (or without an order) are singleton groups keyed by content key.
        """
        if (
            request.model not in PRUNABLE_MODELS
            or request.order is None
            or request.hierarchy is None
            or request.comm_size is None
        ):
            return ("solo", request.key)
        doc = request.canonical()
        doc.pop("order", None)
        base = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        cls = self._class_key_cached(request)
        return ("class", base, cls)

    def _class_key_cached(self, request: EvalRequest) -> tuple:
        from repro.core.equivalence import placement_key

        h = request.hierarchy
        memo = (h.radices, h.names, h.masked, request.order, request.comm_size)
        hit = self._class_keys.get(memo)
        if hit is None:
            hit = placement_key(h, request.order, request.comm_size)
            self._class_keys[memo] = hit
        return hit

    def _audit(
        self,
        requests: Sequence[EvalRequest],
        results: Sequence[dict | None],
        indices: Sequence[int],
    ) -> None:
        """Assert every class member agrees with the representative."""
        rep = indices[0]
        ref = results[rep]
        for i in indices[1:]:
            got = results[i]
            assert ref is not None and got is not None
            if set(ref) != set(got):
                raise EngineAuditError(
                    f"audit: result fields diverge between orders "
                    f"{requests[rep].order} and {requests[i].order}"
                )
            for name, a in ref.items():
                b = got[name]
                if not _close(float(a), float(b)):
                    raise EngineAuditError(
                        "equivalence-class audit failed: orders "
                        f"{requests[rep].order} and {requests[i].order} were "
                        f"keyed equivalent but {name} differs "
                        f"({a!r} vs {b!r}, rtol={AUDIT_RTOL})"
                    )

    def _run_batched(self, requests, on_complete) -> list[dict | EvalFailure]:
        """Evaluate distinct requests through the batch evaluators.

        Batchable models run in-process as one vectorized pass (each
        completion persisted through ``on_complete`` exactly as the
        supervised path does); non-batchable models -- and the whole
        batchable slice, should its vectorized pass raise -- fall back
        to :meth:`_run`.
        """
        if not requests:
            return []
        results: list[dict | EvalFailure | None] = [None] * len(requests)
        vec = [
            pos
            for pos, r in enumerate(requests)
            if r.model in _evaluators.BATCH_EVALUATORS
        ]
        rest = [
            pos
            for pos, r in enumerate(requests)
            if r.model not in _evaluators.BATCH_EVALUATORS
        ]
        if vec:
            try:
                outcomes = _evaluators.evaluate_requests_batch(
                    [requests[pos] for pos in vec]
                )
            except Exception:
                self.stats.batch_fallbacks += 1
                rest = sorted(rest + vec)
            else:
                for pos, outcome in zip(vec, outcomes):
                    on_complete(pos, outcome)
                    results[pos] = outcome
                self.stats.batched += len(vec)
        if rest:

            def sub_complete(
                sub_pos: int, outcome, _map: list[int] = rest
            ) -> None:
                on_complete(_map[sub_pos], outcome)

            outcomes = self._run([requests[pos] for pos in rest], sub_complete)
            for pos, outcome in zip(rest, outcomes):
                results[pos] = outcome
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _run(self, requests, on_complete) -> list[dict | EvalFailure]:
        """Evaluate distinct requests under the task supervisor.

        With a ``dispatcher`` configured, the batch runs on it (e.g. a
        socket worker pool) instead of a per-batch fork pool; either way
        the per-run stats deltas are merged into the engine's.
        """
        if not requests:
            return []
        if self.dispatcher is not None:
            supervisor = self.dispatcher
        else:
            supervisor = TaskSupervisor(jobs=self.jobs, policy=self.retry_policy)
        try:
            return supervisor.run(requests, on_complete=on_complete)
        finally:
            s = supervisor.stats
            self.stats.retries += s.retries
            self.stats.crashes += s.crashes
            self.stats.timeouts += s.timeouts
            self.stats.worker_exceptions += s.exceptions
            self.stats.quarantined += s.quarantined
            self.stats.workers_respawned += s.workers_respawned
            self.stats.degraded_serial = (
                self.stats.degraded_serial or s.degraded_serial
            )


def _close(a: float, b: float) -> bool:
    if a == b:  # covers inf == inf and exact matches
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= AUDIT_RTOL * max(abs(a), abs(b))
