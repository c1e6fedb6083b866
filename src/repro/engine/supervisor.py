"""Supervised task execution: the engine's one crash-proof dispatcher.

:class:`TaskSupervisor` runs a libEnsemble-style manager/worker loop.
A worker joins its pool in one of two ways:

- **local** -- the supervisor forks ``jobs`` workers through
  ``multiprocessing``, each over its own ``socketpair``, and respawns one
  that dies;
- **remote** -- with ``listen=(host, port)`` set, ``repro-mrd worker
  --connect host:port`` processes on any machine join over TCP; one that
  dies leaves the pool.

Either way the worker runs :func:`serve`, and the manager drives every
worker through the same loop and the same frames.

**Chunks.**  The unit of work is a *chunk* of requests
(:func:`plan_chunks`).  Whole placement groups of models with a batch
evaluator (``round``, ``logp``) are packed in index order into about
:data:`CHUNKS_PER_WORKER` chunks per worker -- one chunk for the whole
frontier when nothing runs on workers -- and every other request is a
chunk of one.  A worker scores a chunk through
:func:`repro.engine.evaluators.evaluate_chunk`: one batch kernel per
model, whatever the worker count.

**Framing.**  Every message is a 4-byte big-endian length followed by
that many bytes of UTF-8 JSON encoding one object with a ``type``:

- ``hello``     worker -> manager on joining, carrying the protocol
  version and :data:`~repro.engine.keys.CACHE_SCHEMA`; a mismatched
  worker is dropped before it can compute anything under stale
  semantics;
- ``task``      manager -> worker: ``{index, attempt, requests}`` where
  ``index`` is the chunk's lowest task index and ``requests`` the wire
  forms of its :class:`EvalRequest` members
  (:func:`repro.engine.keys.request_to_wire`);
- ``result``    worker -> manager: ``{index, status: "ok", results}``
  (one result dict per member, in order) or
  ``{index, status: "error", detail, digest}``;
- ``shutdown``  manager -> worker: exit.

A body that is not UTF-8 JSON encoding an object is a
:class:`ProtocolError`: the manager drops that worker as it would a
dead one.

**Supervision.**  One loop, whatever the transport:

- a worker whose socket reaches EOF (SIGKILL, segfault, OOM kill, a
  closed connection) fails only its current chunk, as a ``crash``;
- a chunk that outlives ``policy.timeout`` wall seconds (the
  per-evaluation deadline, whatever the chunk's size) fails as a
  ``timeout``, and its worker is killed (local) or dropped (remote);
- a failed chunk of several requests -- exception, crash, missed
  deadline, or a reply that is not one dict per member -- is split:
  each member re-enters the queue as a chunk of one at its current
  attempt, charged nothing (``batch_fallbacks`` counts the split), and
  the rules below apply to it alone;
- failed attempts re-enter the queue after the shared
  :class:`repro.util.retry.RetryPolicy` backoff while other tasks keep
  flowing; a task that fails ``max_attempts`` times yields a structured
  :class:`EvalFailure` (cause, attempt history, traceback digest)
  instead of an exception that aborts the sweep;
- if the pool is empty and cannot be refilled (no worker can be forked,
  and no remote worker arrives within ``worker_wait``), the remaining
  tasks run serially in-process: no deadlines, but retries and
  quarantine still apply.

Completion order is nondeterministic; *results* are not: they are
reported and returned by task index, every evaluator is seeded from its
request's content key, and the wire form reconstructs a request with the
original's key (floats survive JSON's ``repr``-based shortest form
exactly).  A supervised run is therefore bitwise identical to a serial
one, whichever workers computed what and whichever of them died.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import select
import socket
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine import chaos
from repro.engine.keys import (
    CACHE_SCHEMA,
    EvalRequest,
    request_to_wire,
    requests_from_wire,
)
from repro.util.retry import RetryPolicy

#: Result-dict marker distinguishing quarantined failures from results.
FAILURE_MARKER = "engine_failure"

#: Bump when the message layout changes; hello frames carry it and the
#: manager drops workers that disagree.
#: History: 1 -> 2 when requests gained one shape and the workload
#: fields joined the wire form (version-1 peers dropped them); 2 -> 3
#: when tasks became chunks (``requests``/``results`` lists replaced
#: the single ``request``/``result``).
PROTOCOL_VERSION = 3

#: Chunks planned per worker: enough that a worker finishing early
#: finds more work, few enough that each chunk amortizes its frame and
#: its kernel calls over whole placement groups.
CHUNKS_PER_WORKER = 4

#: Upper bound on one frame; anything larger is a protocol violation
#: (results are small dicts of floats, requests a few KiB of topology).
MAX_FRAME = 64 * 1024 * 1024

#: Select timeout of the manager loop (seconds); deadlines, respawns and
#: the wait for remote workers are checked at least this often.
_POLL_S = 0.05

_LEN = struct.Struct(">I")

OnComplete = Callable[[list[tuple[int, "dict | EvalFailure"]]], None]


def is_failure(result: dict | None) -> bool:
    """True when ``result`` is a quarantined :class:`EvalFailure` record."""
    return bool(result) and FAILURE_MARKER in result  # type: ignore[operator]


@dataclass(frozen=True)
class TaskAttempt:
    """One failed (or final successful) try of a supervised task."""

    attempt: int  # 0-based
    cause: str  # "exception" | "crash" | "timeout"
    detail: str  # exception repr / exit code / deadline
    traceback_digest: str  # sha256[:16] of the worker traceback ("" if none)
    elapsed: float  # wall seconds the attempt ran
    backoff: float  # pause charged before the next attempt


@dataclass(frozen=True)
class EvalFailure:
    """A task that exhausted its attempt budget, with full history."""

    key: str
    model: str
    cause: str  # the final attempt's cause
    attempts: tuple[TaskAttempt, ...]

    def to_result(self) -> dict:
        """The structured record stored in the task's result slot.

        Marked by :data:`FAILURE_MARKER` so consumers can filter; never
        written to the cache or its record log, so the key is
        re-evaluated by the next run.
        """
        last = self.attempts[-1]
        return {
            FAILURE_MARKER: 1.0,
            "failure_key": self.key,
            "failure_model": self.model,
            "failure_cause": self.cause,
            "failure_detail": last.detail,
            "failure_traceback_digest": last.traceback_digest,
            "failure_attempts": float(len(self.attempts)),
            "failure_history": [
                {
                    "attempt": a.attempt,
                    "cause": a.cause,
                    "detail": a.detail,
                    "traceback_digest": a.traceback_digest,
                    "elapsed_s": a.elapsed,
                    "backoff_s": a.backoff,
                }
                for a in self.attempts
            ],
        }

    def summary(self) -> str:
        return (
            f"{self.model} task {self.key[:12]} quarantined after "
            f"{len(self.attempts)} attempt(s): {self.cause} ({self.attempts[-1].detail})"
        )


@dataclass
class SupervisorStats:
    """Counters one :meth:`TaskSupervisor.run` call accumulates."""

    dispatched: int = 0  # chunks sent to workers (or run inline)
    batched: int = 0  # requests settled by a planned chunk of placement groups
    batch_fallbacks: int = 0  # chunks of several requests split after a failure
    retries: int = 0  # failed attempts that re-entered the queue
    crashes: int = 0  # attempts lost to worker death
    timeouts: int = 0  # attempts lost to the task deadline
    exceptions: int = 0  # attempts lost to evaluator exceptions
    quarantined: int = 0  # tasks that exhausted the attempt budget
    workers_respawned: int = 0
    degraded_serial: bool = False  # pool died; remainder ran in-process


#: Attempt cause -> the :class:`SupervisorStats` counter it bumps.
_CAUSE_COUNTER = {"crash": "crashes", "timeout": "timeouts", "exception": "exceptions"}


def _traceback_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ProtocolError(RuntimeError):
    """A malformed or oversized frame, or a version/schema mismatch."""


def plan_chunks(
    requests: Sequence[EvalRequest], n_chunks: int
) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """Pack request indices into the chunks a run dispatches.

    Requests of a model with a batch evaluator that share ``(model,
    topology, hierarchy, order, comm_size)`` -- one order's placement --
    form a placement group; the batch evaluator stacks a chunk's groups
    of one ``(topology, hierarchy, comm_size)`` into one kernel call per
    scenario.  Groups are packed whole, in order of their first index,
    into about ``n_chunks``
    chunks; every other request is a chunk of its own.  Returns every
    chunk (each sorted, the list ordered by first index) and the set of
    the packed ones, whose settled members count as ``batched``.
    """
    from repro.engine.evaluators import BATCH_EVALUATORS

    groups: dict[tuple, list[int]] = {}
    chunks: list[tuple[int, ...]] = []
    for i, r in enumerate(requests):
        if r.model in BATCH_EVALUATORS:
            place = (r.model, r.topology, r.hierarchy, r.order, r.comm_size)
            groups.setdefault(place, []).append(i)
        else:
            chunks.append((i,))
    total = sum(map(len, groups.values()))
    packed: set[tuple[int, ...]] = set()
    members: list[int] = []
    seen = 0
    for group in groups.values():
        members.extend(group)
        seen += len(group)
        # Chunk k closes once k/n_chunks of the requests are packed, so
        # sizes stay even and the last group closes the last chunk.
        if seen * n_chunks >= (len(packed) + 1) * total:
            packed.add(tuple(sorted(members)))
            members = []
    return sorted([*chunks, *packed]), packed


def _bad_results(results: Any, n: int) -> str | None:
    """Why ``results`` is not one result dict per chunk member (or None)."""
    if not isinstance(results, list):
        return f"chunk returned a {type(results).__name__}, not a list"
    if len(results) != n:
        return f"chunk returned {len(results)} result(s) for {n} request(s)"
    for r in results:
        if not isinstance(r, dict):
            return f"chunk returned a {type(r).__name__}, not a dict"
    return None


def _evaluate(requests: list[EvalRequest], attempt: int,
              serial: bool = False) -> list[dict]:
    """One chunk attempt: chaos injection (:mod:`repro.engine.chaos`),
    then :func:`repro.engine.evaluators.evaluate_chunk`."""
    import repro.engine.evaluators as evaluators

    chaos.maybe_inject((r.key for r in requests), attempt, serial=serial)
    return evaluators.evaluate_chunk(requests)


# -- framing -----------------------------------------------------------------


def _encode(doc: dict) -> bytes:
    body = json.dumps(doc, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def _decode(body: bytes) -> dict:
    """One frame body as a JSON object; anything else is a ProtocolError."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as err:  # UnicodeDecodeError, JSONDecodeError
        raise ProtocolError(f"undecodable frame: {err}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(f"expected a JSON object frame, got {type(doc).__name__}")
    return doc


def send_frame(sock: socket.socket, doc: dict) -> None:
    """Serialize ``doc`` and send it as one length-prefixed frame."""
    sock.sendall(_encode(doc))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Blocking read of one frame; None on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode(body)


# -- worker side -------------------------------------------------------------


def serve(sock: socket.socket) -> int:
    """The worker loop: say hello, then evaluate chunks until shutdown.

    Every worker runs this, local or remote.  Chaos injection
    (:mod:`repro.engine.chaos`) fires here, so a ``crash``-mode hit
    SIGKILLs this process and the manager sees EOF.  Returns the exit
    code: 0 after a ``shutdown`` frame or a clean EOF, 1 when the
    manager hung up mid-frame or refused a reply, or on an interrupt.
    """
    try:
        send_frame(
            sock,
            {"type": "hello", "version": PROTOCOL_VERSION, "schema": CACHE_SCHEMA},
        )
        while True:
            msg = recv_frame(sock)
            if msg is None or msg.get("type") == "shutdown":
                return 0
            if msg.get("type") != "task":
                continue  # future message types are ignorable by design
            index = msg.get("index")
            try:
                results = _evaluate(
                    requests_from_wire(msg["requests"]), int(msg["attempt"])
                )
                reply = _encode(
                    {"type": "result", "index": index, "status": "ok", "results": results}
                )
            except Exception as err:  # the evaluator's failure is the task's
                reply = _encode(
                    {
                        "type": "result",
                        "index": index,
                        "status": "error",
                        "detail": repr(err),
                        "digest": _traceback_digest(traceback.format_exc()),
                    }
                )
            sock.sendall(reply)
    except (ProtocolError, OSError, KeyboardInterrupt):
        # Manager gone (e.g. it dropped this worker at a deadline) or an
        # interrupt: leave; the manager charges any task in flight.
        return 1
    finally:
        sock.close()


def run_worker(host: str, port: int, connect_timeout: float = 10.0) -> int:
    """Join a listening supervisor at ``host:port`` as a remote worker.

    Retries the connect for ``connect_timeout`` seconds (the manager may
    still be starting), then runs :func:`serve`.  Returns the exit code.
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            break
        except OSError:
            if time.monotonic() >= deadline:
                print(
                    f"repro-mrd worker: no manager at {host}:{port} after "
                    f"{connect_timeout:.0f}s",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.2)
    sock.settimeout(None)  # tasks may run long; block freely
    return serve(sock)


def _local_main(sock: socket.socket, inherited: list[socket.socket]) -> None:
    """Entry point of a forked local worker.

    Closes the manager's sockets the fork copied, so the manager's EOF
    on any other worker's socket, and this worker's EOF on its own, mean
    what they say.  ``multiprocessing`` then leaves through ``os._exit``.
    """
    for other in inherited:
        other.close()
    serve(sock)


# -- manager side ------------------------------------------------------------


@dataclass(eq=False)
class _Worker:
    """One pool member: its socket, parse buffer and chunk in flight."""

    sock: socket.socket
    proc: Any = None  # the forked process of a local worker; None if remote
    ready: bool = False  # hello received and accepted
    buf: bytes = b""
    task: tuple[int, ...] | None = None  # the chunk's task indices
    started: float = 0.0
    deadline: float | None = None

    @property
    def idle(self) -> bool:
        return self.ready and self.task is None


def _spawn_local(ctx, inherited: list[socket.socket]) -> _Worker:
    """Fork one local worker over a fresh ``socketpair``."""
    sock, child = socket.socketpair()
    try:
        proc = ctx.Process(
            target=_local_main, args=(child, [sock, *inherited]), daemon=True
        )
        proc.start()
    except BaseException:
        sock.close()
        raise
    finally:
        child.close()  # the manager keeps only its end
    return _Worker(sock, proc)


@dataclass
class _TaskState:
    request: EvalRequest
    attempts: list[TaskAttempt] = field(default_factory=list)
    not_before: float = 0.0  # monotonic time the next attempt may start


class _Run:
    """The task table of one :meth:`TaskSupervisor.run`: the chunk queue,
    the outcomes, and the rules that charge a failed chunk."""

    def __init__(self, requests, n_chunks: int, policy: RetryPolicy,
                 stats: SupervisorStats, on_complete: OnComplete | None):
        self.tasks = [_TaskState(r) for r in requests]
        # A heap of chunks: the lowest first index goes first.
        self.pending, self.packed = plan_chunks(requests, n_chunks)
        self.outcomes: dict[int, dict | EvalFailure] = {}
        self.settled: list[tuple[int, dict | EvalFailure]] = []  # not yet flushed
        self.policy = policy
        self.stats = stats
        self.on_complete = on_complete

    @property
    def done(self) -> bool:
        return len(self.outcomes) == len(self.tasks)

    def _not_before(self, chunk: tuple[int, ...]) -> float:
        return max(self.tasks[i].not_before for i in chunk)

    def take(self, now: float) -> tuple[int, ...] | None:
        """Pop the lowest pending chunk whose backoff has expired."""
        backing_off = []
        found = None
        while self.pending:
            chunk = heapq.heappop(self.pending)
            if self._not_before(chunk) <= now:
                found = chunk
                break
            backing_off.append(chunk)
        for chunk in backing_off:
            heapq.heappush(self.pending, chunk)
        return found

    def wake(self) -> float:
        """When the earliest pending chunk's backoff expires."""
        return min(self._not_before(c) for c in self.pending)

    def requeue(self, chunk: tuple[int, ...]) -> None:
        heapq.heappush(self.pending, chunk)

    def attempt(self, chunk: tuple[int, ...]) -> int:
        """The chunk's attempt number.  Only a one-request chunk is ever
        charged an attempt, so all members of a larger one are at 0."""
        return len(self.tasks[chunk[0]].attempts)

    def complete(self, index: int, outcome: dict | EvalFailure) -> None:
        self.outcomes[index] = outcome
        self.settled.append((index, outcome))

    def settle(self, chunk: tuple[int, ...], results: list[dict]) -> None:
        if chunk in self.packed:
            self.stats.batched += len(chunk)
        for index, result in zip(chunk, results):
            self.complete(index, result)

    def flush(self) -> None:
        """Report every outcome settled since the last flush as one group."""
        if self.settled and self.on_complete is not None:
            settled, self.settled = self.settled, []
            self.on_complete(settled)

    def fail(self, chunk: tuple[int, ...], cause: str, detail: str,
             digest: str, elapsed: float) -> None:
        """A chunk attempt failed.  A chunk of several requests splits
        into chunks of one at the same attempt, charged nothing; a chunk
        of one is charged the attempt: retry after backoff, or
        quarantine."""
        if len(chunk) > 1:
            self.stats.batch_fallbacks += 1
            for index in chunk:
                self.requeue((index,))
            return
        (index,) = chunk
        state = self.tasks[index]
        attempt_no = len(state.attempts)
        counter = _CAUSE_COUNTER[cause]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if attempt_no + 1 >= self.policy.max_attempts:
            state.attempts.append(
                TaskAttempt(attempt_no, cause, detail, digest, elapsed, 0.0)
            )
            self.stats.quarantined += 1
            self.complete(index, EvalFailure(
                key=state.request.key,
                model=state.request.model,
                cause=cause,
                attempts=tuple(state.attempts),
            ))
        else:
            backoff = self.policy.backoff(attempt_no)
            state.attempts.append(
                TaskAttempt(attempt_no, cause, detail, digest, elapsed, backoff)
            )
            state.not_before = time.monotonic() + backoff
            self.stats.retries += 1
            self.requeue(chunk)

    def results(self) -> list[dict | EvalFailure]:
        return [self.outcomes[i] for i in range(len(self.tasks))]


class TaskSupervisor:
    """Run evaluation requests to completion under a retry policy.

    Parameters
    ----------
    jobs:
        Local worker processes to fork (respawned on death).  1 forks
        none: without ``listen`` everything runs serially in-process, the
        whole batchable frontier as one chunk (retries and quarantine
        still apply, crash/hang supervision does not).
    policy:
        Shared :class:`~repro.util.retry.RetryPolicy`: attempt budget,
        wall-clock backoff, and the ``timeout`` deadline of each chunk.
    listen:
        ``(host, port)`` to accept remote ``repro-mrd worker --connect``
        workers on.  Port 0 picks an ephemeral port; read
        :attr:`address` for the bound one.
    min_workers:
        Workers to wait for before the first dispatch (lets a deployment
        start the manager before its workers).  Default: 1 when
        listening with ``jobs == 1``, else 0.
    worker_wait:
        Seconds to wait for ``min_workers``, and for an emptied pool to
        refill with remote workers, before running serially in-process.

    Workers persist across :meth:`run` calls until :meth:`close` (use
    the supervisor as a context manager); :attr:`stats` is reset per
    run so callers can merge deltas.
    """

    def __init__(
        self,
        jobs: int = 1,
        policy: RetryPolicy | None = None,
        listen: tuple[str, int] | None = None,
        min_workers: int | None = None,
        worker_wait: float = 30.0,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.policy = policy or RetryPolicy()
        self.min_workers = (
            min_workers if min_workers is not None
            else int(listen is not None and jobs == 1)
        )
        self.worker_wait = worker_wait
        self.stats = SupervisorStats()
        self._workers: list[_Worker] = []
        self._ctx = None
        self._server: socket.socket | None = None
        self.address: tuple[str, int] | None = None
        if listen is not None:
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind(listen)
            self._server.listen(128)
            self._server.setblocking(False)
            self.address = self._server.getsockname()[:2]
        self._born = time.monotonic()
        self._gathered = False  # min_workers reached (or waited out) once
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "TaskSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live local workers."""
        return [w.proc.pid for w in self._workers if w.proc is not None]

    @property
    def n_connected(self) -> int:
        """Workers that have said hello and are still in the pool."""
        return sum(1 for w in self._workers if w.ready)

    def close(self) -> None:
        """Shut every worker down and release the listen socket."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                send_frame(w.sock, {"type": "shutdown"})
            except OSError:
                pass
        for w in list(self._workers):
            self._drop(w, join=1.0)
        if self._server is not None:
            self._server.close()

    # -- the manager loop --------------------------------------------------

    def run(
        self,
        requests: Sequence[EvalRequest],
        on_complete: OnComplete | None = None,
    ) -> list[dict | EvalFailure]:
        """Evaluate ``requests``; results align with the input order.

        The requests run as the chunks :func:`plan_chunks` packs: about
        :data:`CHUNKS_PER_WORKER` per worker, or one batchable chunk
        in-process.  ``on_complete([(index, outcome), ...])`` fires from
        the supervising process with the tasks that settled (success
        dict or :class:`EvalFailure`) since it last fired: once per
        manager poll that settled any, after idle workers are fed again,
        or once per chunk in-process.  The engine uses it to cache and
        log incrementally -- one append and sync per group -- so
        completed work survives any later crash.
        """
        if self._closed:
            raise RuntimeError("supervisor is closed")
        self.stats = SupervisorStats()
        if not requests:
            return []
        serial = self._server is None and (self.jobs == 1 or len(requests) == 1)
        workers = max(self.jobs, self.min_workers, self.n_connected)
        run = _Run(requests, 1 if serial else CHUNKS_PER_WORKER * workers,
                   self.policy, self.stats, on_complete)
        if serial:
            self._run_serial(run)
        else:
            self._manage(run)
        return run.results()

    def _manage(self, run: _Run) -> None:
        local_target = min(self.jobs, len(run.pending)) if self.jobs > 1 else 0
        local_target = self._fill(local_target, respawn=False)
        empty_since: float | None = None
        try:
            while not run.done:
                self._accept()
                now = time.monotonic()
                if not self._workers:
                    # Nobody to dispatch to: forks failed, or every remote
                    # worker left.  Wait out ``worker_wait`` for a remote one.
                    empty_since = now if empty_since is None else empty_since
                    wait = self.worker_wait if self._server is not None else 0.0
                    if now - empty_since >= wait:
                        self.stats.degraded_serial = True
                        self._run_serial(run)
                        return
                else:
                    empty_since = None
                    self._gathered = self._gathered or (
                        self.n_connected >= self.min_workers
                        or now - self._born >= self.worker_wait
                    )
                    if self._gathered:
                        self._feed(run, now)
                self._receive(run, now)
                self._enforce_deadlines(run)
                if run.settled:
                    # Workers this poll freed start their next task before
                    # the poll's outcomes are reported (and synced).
                    if self._gathered:
                        self._feed(run, time.monotonic())
                    run.flush()
                if not run.done:
                    local_target = self._fill(local_target, respawn=True)
        finally:
            # A run aborted by an exception still reports what settled,
            # and leaves tasks in flight; their workers would answer the
            # next run with stale replies.
            run.flush()
            for worker in [w for w in self._workers if w.task is not None]:
                self._drop(worker, join=0.0)

    def _fill(self, target: int, respawn: bool) -> int:
        """Fork local workers up to ``target``; returns the target still
        reachable (a failed fork shrinks the pool instead of retrying)."""
        have = sum(1 for w in self._workers if w.proc is not None)
        while have < target:
            if self._ctx is None:
                import multiprocessing as mp

                from repro.engine.evaluators import import_evaluation_stack

                import_evaluation_stack()  # inherited by every fork
                method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
                self._ctx = mp.get_context(method)
            inherited = [w.sock for w in self._workers]
            if self._server is not None:
                inherited.append(self._server)
            try:
                worker = _spawn_local(self._ctx, inherited)
            except (OSError, RuntimeError, ValueError):
                return have
            self._workers.append(worker)
            have += 1
            if respawn:
                self.stats.workers_respawned += 1
        return target

    def _accept(self) -> None:
        if self._server is None:
            return
        while True:
            try:
                sock, _ = self._server.accept()
            except OSError:  # BlockingIOError: nobody is waiting
                return
            # Blocking socket: select() gates reads, and sendall() must
            # never leave a partial frame on the wire.
            sock.setblocking(True)
            self._workers.append(_Worker(sock))

    def _feed(self, run: _Run, now: float) -> None:
        """Send every ready chunk to an idle worker, lowest index first."""
        for worker in [w for w in self._workers if w.idle]:
            chunk = run.take(now)
            if chunk is None:
                return
            try:
                send_frame(worker.sock, {
                    "type": "task",
                    "index": chunk[0],
                    "attempt": run.attempt(chunk),
                    "requests": [request_to_wire(run.tasks[i].request) for i in chunk],
                })
            except OSError:
                # Never started: requeue without charging an attempt.
                run.requeue(chunk)
                self._fail_worker(run, worker, "crash", "dispatch failed")
                return
            worker.task = chunk
            worker.started = now
            timeout = self.policy.timeout
            worker.deadline = now + timeout if timeout is not None else None
            self.stats.dispatched += 1

    def _receive(self, run: _Run, now: float) -> None:
        """Wait for traffic (bounded by deadlines, backoffs and the poll
        tick) and handle every complete frame."""
        timeout = _POLL_S
        deadlines = [w.deadline for w in self._workers if w.deadline is not None]
        if self._gathered and run.pending and any(w.idle for w in self._workers):
            deadlines.append(run.wake())  # every pending task is backing off
        if deadlines:
            timeout = min(timeout, max(1e-4, min(deadlines) - now))
        socks = [w.sock for w in self._workers]
        if self._server is not None:
            socks.append(self._server)
        readable, _, _ = select.select(socks, [], [], timeout)
        for worker in [w for w in self._workers if w.sock in readable]:
            try:
                chunk = worker.sock.recv(1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                detail = "worker connection closed"
                if worker.proc is not None:
                    worker.proc.join(timeout=1.0)
                    detail = f"worker died (exit code {worker.proc.exitcode})"
                self._fail_worker(run, worker, "crash", detail)
                continue
            worker.buf += chunk
            try:
                self._drain(run, worker)
            except ProtocolError as err:
                self._fail_worker(run, worker, "crash", f"protocol error: {err}")

    def _drain(self, run: _Run, worker: _Worker) -> None:
        """Handle every complete frame in the worker's receive buffer."""
        while len(worker.buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(worker.buf)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
            end = _LEN.size + length
            if len(worker.buf) < end:
                return
            msg = _decode(worker.buf[_LEN.size:end])
            worker.buf = worker.buf[end:]
            self._handle(run, worker, msg)

    def _handle(self, run: _Run, worker: _Worker, msg: dict) -> None:
        kind = msg.get("type")
        if kind == "hello":
            if msg.get("version") != PROTOCOL_VERSION or msg.get("schema") != CACHE_SCHEMA:
                raise ProtocolError(
                    f"worker speaks protocol {msg.get('version')}/schema "
                    f"{msg.get('schema')}, need {PROTOCOL_VERSION}/{CACHE_SCHEMA}"
                )
            worker.ready = True
            return
        chunk = worker.task
        if kind != "result" or chunk is None or chunk[0] != msg.get("index"):
            return  # stale reply from a chunk this worker was failed off
        elapsed = time.monotonic() - worker.started
        worker.task = worker.deadline = None
        if msg.get("status") != "ok":
            run.fail(chunk, "exception", str(msg.get("detail", "worker error")),
                     str(msg.get("digest", "")), elapsed)
            return
        results = msg.get("results")
        problem = _bad_results(results, len(chunk))
        if problem is not None:
            run.fail(chunk, "exception", problem, "", elapsed)
            return
        run.settle(chunk, results)

    def _enforce_deadlines(self, run: _Run) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.deadline is not None and now > worker.deadline:
                self._fail_worker(
                    run, worker, "timeout",
                    f"chunk exceeded {self.policy.timeout}s deadline",
                )

    def _fail_worker(self, run: _Run, worker: _Worker, cause: str,
                     detail: str) -> None:
        """Drop a worker from the pool; fail its in-flight chunk, if any."""
        if worker.task is not None:
            run.fail(worker.task, cause, detail, "",
                     time.monotonic() - worker.started)
        self._drop(worker, join=0.0)

    def _drop(self, worker: _Worker, join: float) -> None:
        """Close a worker's socket; a local worker's process is reaped
        (killed unless it exits within ``join`` seconds)."""
        worker.sock.close()
        self._workers.remove(worker)
        if worker.proc is not None:
            worker.proc.join(timeout=join)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)

    # -- serial path -------------------------------------------------------

    def _run_serial(self, run: _Run) -> None:
        """In-process execution with retries and quarantine (no deadlines)."""
        while not run.done:
            now = time.monotonic()
            chunk = run.take(now)
            if chunk is None:
                time.sleep(max(0.0, run.wake() - now))
                continue
            t0 = time.monotonic()
            self.stats.dispatched += 1
            digest = ""
            try:
                results = _evaluate(
                    [run.tasks[i].request for i in chunk], run.attempt(chunk),
                    serial=True,
                )
                problem = _bad_results(results, len(chunk))
            except Exception as err:
                problem = repr(err)
                digest = _traceback_digest(traceback.format_exc())
            if problem is None:
                run.settle(chunk, results)
            else:
                run.fail(chunk, "exception", problem, digest, time.monotonic() - t0)
            run.flush()
