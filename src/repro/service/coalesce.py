"""Request coalescing keyed by evaluation content keys.

The placement-advisor service answers every query by evaluating a grid
of content-addressed :class:`~repro.engine.keys.EvalRequest` points.
Popular queries arrive concurrently, and their grids overlap: without
coordination, N identical in-flight queries would compute the same
points N times before the first result ever reaches the cache.

:class:`KeyCoalescer` closes that window.  Every point of every query is
registered under its :attr:`EvalRequest.key <repro.engine.keys.EvalRequest.key>`
— the same SHA-256 content key the engine's two-tier cache and journal
use — in a single-threaded (event-loop owned) in-flight table:

- a key nobody is computing and not already warm is **submitted** (the
  caller ships it to the engine for fresh evaluation);
- a key some other query is already computing is **coalesced** (the
  caller awaits the in-flight future instead of re-submitting);
- a key appearing twice in one query, or one the ``probe`` reports as
  already satisfied by the engine's cache/journal, is **deduped** — no
  fresh evaluation happens for it (warm keys still ride the engine
  batch to fetch their cached values, costing one lookup each).

Engine evaluation is synchronous, so submitted slices run in an executor
(the service passes a single-threaded one, serializing engine access);
resolution happens via a done-callback on the executor future, so an
evaluation always settles its futures even if the submitting request was
cancelled mid-flight.  Failures propagate to every waiter and clear the
in-flight entries, so the next query retries the keys.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.keys import EvalRequest


@dataclass
class CoalesceStats:
    """Counters accumulated across every :meth:`KeyCoalescer.evaluate`."""

    calls: int = 0  # evaluate() invocations (one per advise/prewarm grid)
    keys: int = 0  # grid points requested, including duplicates
    deduped: int = 0  # keys needing no evaluation: in-call duplicates + cache/journal-warm
    submitted: int = 0  # cold keys shipped to the engine for fresh evaluation
    coalesced: int = 0  # keys that awaited another call's in-flight work
    peak_inflight: int = 0  # widest concurrent in-flight table

    def to_jsonable(self) -> dict:
        return {
            "calls": self.calls,
            "keys": self.keys,
            "deduped": self.deduped,
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "peak_inflight": self.peak_inflight,
        }


@dataclass(frozen=True)
class CallStats:
    """What one :meth:`KeyCoalescer.evaluate` call did with its keys."""

    keys: int
    deduped: int
    submitted: int
    coalesced: int


class KeyCoalescer:
    """Coalesce concurrent evaluations sharing request content keys.

    ``evaluate`` is the blocking grid evaluator (normally
    :meth:`SweepEngine.evaluate_many <repro.engine.core.SweepEngine.evaluate_many>`);
    ``executor`` is where submitted slices run (None: the loop's default
    thread pool).  ``probe`` (normally :meth:`ResultCache.warm
    <repro.engine.cache.ResultCache.warm>`) reports, per content key,
    whether the engine can satisfy it from its cache/journal without
    evaluating — such keys count as *deduped*, not *submitted*.  All
    bookkeeping happens on the event loop, so no locks are needed; the
    executor only ever runs the evaluator.
    """

    def __init__(
        self,
        evaluate: Callable[[list[EvalRequest]], list[dict]],
        executor: Executor | None = None,
        probe: Callable[[str], bool] | None = None,
    ):
        self._evaluate_fn = evaluate
        self._executor = executor
        self._probe = probe
        self._inflight: dict[str, asyncio.Future] = {}
        self.stats = CoalesceStats()

    @property
    def inflight(self) -> int:
        """Keys currently being evaluated on behalf of some call."""
        return len(self._inflight)

    async def evaluate(
        self, requests: Sequence[EvalRequest]
    ) -> tuple[list[dict], CallStats]:
        """Evaluate a grid; results align with ``requests``.

        Returns the results plus this call's :class:`CallStats` (how many
        keys were submitted vs coalesced vs deduped).
        """
        requests = list(requests)
        loop = asyncio.get_running_loop()
        submit: list[EvalRequest] = []
        waits: dict[str, asyncio.Future] = {}
        coalesced = deduped = warm = 0
        for r in requests:
            key = r.key
            if key in waits:
                deduped += 1
                continue
            fut = self._inflight.get(key)
            if fut is None:
                fut = loop.create_future()
                self._inflight[key] = fut
                submit.append(r)
                # Already-warm keys ride the engine batch (to fetch their
                # cached values) but count as deduped: no fresh evaluation
                # happens for them.
                if self._probe is not None and self._probe(key):
                    warm += 1
            else:
                coalesced += 1
            waits[key] = fut
        deduped += warm
        submitted = len(submit) - warm
        self.stats.calls += 1
        self.stats.keys += len(requests)
        self.stats.deduped += deduped
        self.stats.submitted += submitted
        self.stats.coalesced += coalesced
        self.stats.peak_inflight = max(self.stats.peak_inflight, len(self._inflight))
        if submit:
            exec_fut = loop.run_in_executor(self._executor, self._evaluate_fn, submit)
            # Resolution rides a done-callback, not this coroutine: if the
            # submitting request is cancelled, coalesced waiters still get
            # their results when the evaluation lands.
            exec_fut.add_done_callback(
                lambda done, submit=submit: self._resolve(submit, done)
            )
        # Shield the shared futures: cancelling one waiter must not
        # cancel the in-flight work other waiters are coalesced onto.
        outcomes = await asyncio.gather(
            *(asyncio.shield(f) for f in waits.values()), return_exceptions=True
        )
        by_key = dict(zip(waits, outcomes))
        for out in outcomes:
            if isinstance(out, BaseException):
                raise out
        call = CallStats(
            keys=len(requests),
            deduped=deduped,
            submitted=submitted,
            coalesced=coalesced,
        )
        return [by_key[r.key] for r in requests], call

    def _resolve(self, submit: list[EvalRequest], done: asyncio.Future) -> None:
        """Settle the in-flight futures of one submitted slice."""
        results: list[dict] | None = None
        if done.cancelled():
            err: BaseException | None = asyncio.CancelledError(
                "coalesced evaluation was cancelled"
            )
        else:
            err = done.exception()
            if err is None:
                results = done.result()
                if len(results) != len(submit):
                    err = RuntimeError(
                        f"grid evaluator returned {len(results)} results "
                        f"for {len(submit)} requests"
                    )
        for i, r in enumerate(submit):
            fut = self._inflight.pop(r.key, None)
            if fut is None or fut.done():
                continue
            if err is not None:
                fut.set_exception(err)
            else:
                assert results is not None
                fut.set_result(results[i])
