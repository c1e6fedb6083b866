"""Manager/worker execution over sockets: sweeps that span hosts.

The fork-based :class:`~repro.engine.supervisor.TaskSupervisor` fans a
sweep out across the cores of *one* machine.  This module is the same
libEnsemble-style manager/worker loop stretched over TCP so workers can
live anywhere: the manager listens, workers connect (self-launched local
subprocesses, or ``repro-mrd worker --connect host:port`` on any machine
that has the package), and tasks flow over a length-prefixed JSON
protocol.

**Framing.**  Every message is a 4-byte big-endian length followed by
that many bytes of UTF-8 JSON.  Messages carry a ``type``:

- ``hello``     worker -> manager on connect, carrying the protocol
  version and :data:`~repro.engine.keys.CACHE_SCHEMA`; a mismatched
  worker is rejected before it can compute anything under stale
  semantics;
- ``task``      manager -> worker: ``{index, attempt, request}`` where
  ``request`` is the wire form of an :class:`EvalRequest`
  (:func:`repro.engine.keys.request_to_wire`, which sits beside the
  canonical form so one module owns the request's field list);
- ``result``    worker -> manager: ``{index, status: "ok", result}`` or
  ``{index, status: "error", detail, digest}``;
- ``shutdown``  manager -> worker: drain and exit.

**Determinism contract.**  The wire form reconstructs a request whose
content key is *identical* to the original's (a round-trip property test
locks this): evaluators are seeded from the content key, floats survive
Python's JSON round-trip exactly (``repr``-based shortest form), and the
manager caches and journals results under the same keys as the local
pool.  A socket sweep is therefore bitwise identical to a single-process
sweep no matter which host computed what.

**Supervision.**  :class:`DistributedSupervisor` mirrors
:meth:`TaskSupervisor.run <repro.engine.supervisor.TaskSupervisor.run>`
-- same ``run(requests, on_complete)`` shape, same
:class:`~repro.engine.supervisor.SupervisorStats`, same
:class:`~repro.engine.supervisor.EvalFailure` quarantine after the
shared :class:`~repro.util.retry.RetryPolicy`'s attempt budget.  A
worker that dies (EOF) or blows the task deadline fails only its current
task; self-launched workers are respawned, external ones simply leave
the pool.  If the pool empties and cannot be refilled, the remainder
runs serially in-process -- exactly the fork pool's degradation path.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine import chaos
from repro.engine.keys import (
    CACHE_SCHEMA,
    EvalRequest,
    request_from_wire,
    request_to_wire,
)
from repro.engine.supervisor import (
    EvalFailure,
    SupervisorStats,
    TaskAttempt,
    TaskSupervisor,
    _TaskState,
    _traceback_digest,
)
from repro.util.retry import RetryPolicy

#: Bump when the message layout changes; hello frames carry it and the
#: manager drops workers that disagree.
#: History: 1 -> 2 when requests gained one shape and the workload
#: fields joined the wire form (version-1 peers dropped them).
PROTOCOL_VERSION = 2

#: Upper bound on one frame; anything larger is a protocol violation
#: (results are small dicts of floats, requests a few KiB of topology).
MAX_FRAME = 64 * 1024 * 1024

#: Select timeout of the manager loop (seconds); liveness, deadlines and
#: respawns are checked at least this often.
_POLL_S = 0.05

_LEN = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed or oversized frame, or a version/schema mismatch."""


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, doc: dict) -> None:
    """Serialize ``doc`` and send it as one length-prefixed frame."""
    body = json.dumps(doc, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_LEN.pack(len(body)) + body)


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
    doc = json.loads(body.decode())
    if not isinstance(doc, dict):
        raise ProtocolError(f"expected a JSON object frame, got {type(doc)}")
    return doc


# -- worker side -------------------------------------------------------------


def run_worker(
    host: str,
    port: int,
    connect_timeout: float = 10.0,
) -> int:
    """Connect to a manager and evaluate tasks until told to stop.

    Retries the initial connect for ``connect_timeout`` seconds (the
    manager may still be starting), then serves the task loop.  Chaos
    injection (:mod:`repro.engine.chaos`) applies exactly as in the fork
    pool -- a ``crash``-mode hit SIGKILLs this process and the manager's
    EOF handling retries the task elsewhere.  Returns the exit code.
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
    import repro.engine.evaluators as evaluators

    try:
        send_frame(
            sock,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "schema": CACHE_SCHEMA,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            },
        )
        while True:
            try:
                msg = recv_frame(sock)
            except (ProtocolError, OSError):
                return 1
            if msg is None or msg.get("type") == "shutdown":
                return 0
            if msg.get("type") != "task":
                continue  # future message types are ignorable by design
            index = msg["index"]
            try:
                request = request_from_wire(msg["request"])
                chaos.maybe_inject(request.key, int(msg["attempt"]))
                result = evaluators.evaluate_request(request)
            except BaseException as err:  # noqa: BLE001 - report, don't die
                reply = {
                    "type": "result",
                    "index": index,
                    "status": "error",
                    "detail": repr(err),
                    "digest": _traceback_digest(traceback.format_exc()),
                }
            else:
                reply = {
                    "type": "result",
                    "index": index,
                    "status": "ok",
                    "result": result,
                }
            try:
                send_frame(sock, reply)
            except OSError:
                return 1  # manager hung up (e.g. deadline-killed this task)
    finally:
        try:
            sock.close()
        except OSError:
            pass


#: Bootstrap for self-launched local workers: no entry-point dependency,
#: inherits the parent's environment (PYTHONPATH, chaos spec, ...).
_WORKER_BOOTSTRAP = (
    "import sys; from repro.engine.distributed import run_worker; "
    "raise SystemExit(run_worker(sys.argv[1], int(sys.argv[2])))"
)


def spawn_local_worker(host: str, port: int) -> subprocess.Popen:
    """Launch one worker subprocess connecting back to ``host:port``."""
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER_BOOTSTRAP, host, str(port)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
    )


# -- manager side ------------------------------------------------------------


@dataclass
class _Remote:
    """One connected worker: socket, parse buffer, and task state."""

    sock: socket.socket
    addr: tuple
    proc: subprocess.Popen | None = None  # set for self-launched workers
    ready: bool = False  # hello received and accepted
    buf: bytes = b""
    task: int | None = None
    started: float = 0.0
    deadline: float | None = None

    @property
    def idle(self) -> bool:
        return self.ready and self.task is None

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class DistributedSupervisor:
    """Socket-pool counterpart of :class:`TaskSupervisor`.

    Parameters
    ----------
    host, port:
        Listen address for worker connections.  Port 0 picks an
        ephemeral port; read :attr:`address` for the bound one.
    spawn:
        Local worker subprocesses to self-launch (and respawn on death).
        0 relies entirely on external ``repro-mrd worker`` connections.
    policy:
        Shared retry policy: attempt budget, backoff, per-task deadline.
    min_workers:
        Connections to wait for before the first dispatch (lets CI start
        the manager before its workers).  Defaults to 1 when ``spawn`` is
        0, else 0 (spawned workers arrive on their own).
    worker_wait:
        Seconds to wait for the pool to (re)fill before degrading to
        serial in-process execution.

    The pool persists across :meth:`run` calls (connections are
    expensive); :attr:`stats` is reset per run so callers can merge
    deltas exactly like :class:`TaskSupervisor`'s.  Use as a context
    manager or call :meth:`close` to shut workers down.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn: int = 0,
        policy: RetryPolicy | None = None,
        min_workers: int | None = None,
        worker_wait: float = 30.0,
    ):
        if spawn < 0:
            raise ValueError("spawn must be >= 0")
        self.policy = policy or RetryPolicy()
        self.spawn_target = spawn
        self.min_workers = (
            min_workers if min_workers is not None else (1 if spawn == 0 else 0)
        )
        self.worker_wait = worker_wait
        self.stats = SupervisorStats()
        self.protocol_rejects = 0  # workers dropped at hello
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(128)
        self._server.setblocking(False)
        self.address: tuple[str, int] = self._server.getsockname()[:2]
        self._workers: list[_Remote] = []
        self._pending_procs: dict[int, subprocess.Popen] = {}
        self._spawned_total = 0
        self._born = time.monotonic()
        self._closed = False
        for _ in range(spawn):
            self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "DistributedSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the self-launched local workers (tests kill these)."""
        return [w.proc.pid for w in self._workers if w.proc is not None]

    @property
    def n_connected(self) -> int:
        return sum(1 for w in self._workers if w.ready)

    def close(self) -> None:
        """Politely stop every worker and release the listen socket."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                send_frame(w.sock, {"type": "shutdown"})
            except OSError:
                pass
            w.close()
            if w.proc is not None:
                try:
                    w.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    w.proc.kill()
                    w.proc.wait(timeout=5.0)
        self._workers.clear()
        for proc in self._pending_procs.values():
            try:
                proc.kill()
                proc.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self._pending_procs.clear()
        try:
            self._server.close()
        except OSError:
            pass

    # -- the manager loop --------------------------------------------------

    def run(
        self,
        requests: Sequence[EvalRequest],
        on_complete: Callable[[int, dict | EvalFailure], None] | None = None,
    ) -> list[dict | EvalFailure]:
        """Evaluate ``requests``; results align with the input order.

        Mirrors :meth:`TaskSupervisor.run` exactly: per-index dispatch,
        retry/quarantine under the policy, ``on_complete`` fired from
        this process the moment each task settles.
        """
        if self._closed:
            raise RuntimeError("supervisor is closed")
        self.stats = SupervisorStats()  # per-run, merged by the engine
        if not requests:
            return []
        tasks = {i: _TaskState(r) for i, r in enumerate(requests)}
        pending: list[int] = sorted(tasks)
        results: dict[int, dict | EvalFailure] = {}
        pool_empty_since: float | None = None

        def complete(index: int, outcome: dict | EvalFailure) -> None:
            results[index] = outcome
            if on_complete is not None:
                on_complete(index, outcome)

        def register_failure(
            index: int, cause: str, detail: str, digest: str, elapsed: float
        ) -> None:
            state = tasks[index]
            attempt_no = state.n_attempts
            if cause == "crash":
                self.stats.crashes += 1
            elif cause == "timeout":
                self.stats.timeouts += 1
            else:
                self.stats.exceptions += 1
            if attempt_no + 1 >= self.policy.max_attempts:
                state.attempts.append(
                    TaskAttempt(attempt_no, cause, detail, digest, elapsed, 0.0)
                )
                failure = EvalFailure(
                    key=state.request.key,
                    model=state.request.model,
                    cause=cause,
                    attempts=tuple(state.attempts),
                )
                self.stats.quarantined += 1
                complete(index, failure)
            else:
                backoff = self.policy.backoff(attempt_no)
                state.attempts.append(
                    TaskAttempt(attempt_no, cause, detail, digest, elapsed, backoff)
                )
                state.not_before = time.monotonic() + backoff
                self.stats.retries += 1
                pending.append(index)
                pending.sort()

        def fail_worker(worker: _Remote, cause: str, detail: str) -> None:
            """Drop a worker; charge its in-flight task, if any."""
            if worker.task is not None:
                elapsed = time.monotonic() - worker.started
                register_failure(worker.task, cause, detail, "", elapsed)
            worker.close()
            if worker in self._workers:
                self._workers.remove(worker)
            if worker.proc is not None:
                try:
                    worker.proc.kill()
                except OSError:
                    pass

        while len(results) < len(requests):
            self._accept()
            self._respawn_dead(work_remains=True)
            now = time.monotonic()

            # 1. Dispatch ready tasks to idle, hello'd workers.
            waiting_for_pool = (
                self.n_connected < self.min_workers
                and self._age() < self.worker_wait
            )
            if not waiting_for_pool:
                ready = [i for i in pending if tasks[i].not_before <= now]
                for worker in self._workers:
                    if not ready:
                        break
                    if not worker.idle:
                        continue
                    index = ready.pop(0)
                    pending.remove(index)
                    state = tasks[index]
                    try:
                        send_frame(
                            worker.sock,
                            {
                                "type": "task",
                                "index": index,
                                "attempt": state.n_attempts,
                                "request": request_to_wire(state.request),
                            },
                        )
                    except OSError:
                        # Never started: requeue without charging an attempt.
                        pending.append(index)
                        pending.sort()
                        fail_worker(worker, "crash", "dispatch failed")
                        break
                    worker.task = index
                    worker.started = now
                    worker.deadline = (
                        now + self.policy.timeout
                        if self.policy.timeout is not None
                        else None
                    )
                    self.stats.dispatched += 1

            busy = [w for w in self._workers if w.task is not None]
            if not self._workers and not busy:
                if pool_empty_since is None:
                    pool_empty_since = now
                refillable = self.spawn_target > 0
                if (
                    not refillable
                    and now - pool_empty_since >= self.worker_wait
                    and self._age() >= self.worker_wait
                ):
                    # No workers, none coming: finish serially in-process,
                    # reusing the fork supervisor's serial loop (its stats
                    # object is aliased so counters land here).
                    self.stats.degraded_serial = True
                    serial = TaskSupervisor(jobs=1, policy=self.policy)
                    serial.stats = self.stats
                    remaining = [i for i in pending if i not in results]
                    pending.clear()
                    serial._run_serial(
                        list(requests), on_complete, remaining,
                        results=results, tasks=tasks,
                    )
                    break
            else:
                pool_empty_since = None

            # 2. Wait for traffic (bounded by deadlines and the poll tick).
            timeout = _POLL_S
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                timeout = min(timeout, max(1e-4, min(deadlines) - now))
            socks = [self._server] + [w.sock for w in self._workers]
            try:
                readable, _, _ = select.select(socks, [], [], timeout)
            except (OSError, ValueError):
                readable = []
            for sock in readable:
                if sock is self._server:
                    continue  # accepted at the top of the loop
                worker = next(
                    (w for w in self._workers if w.sock is sock), None
                )
                if worker is None:
                    continue
                try:
                    chunk = sock.recv(1 << 16)
                except OSError:
                    chunk = b""
                if not chunk:
                    fail_worker(worker, "crash", "worker connection closed")
                    continue
                worker.buf += chunk
                try:
                    self._drain_frames(worker, register_failure, complete)
                except ProtocolError as err:
                    fail_worker(worker, "crash", f"protocol error: {err}")

            # 3. Deadline supervision.
            now = time.monotonic()
            for worker in list(self._workers):
                if worker.task is None or worker.deadline is None:
                    continue
                if now > worker.deadline:
                    fail_worker(
                        worker,
                        "timeout",
                        f"task exceeded {self.policy.timeout}s deadline",
                    )
        return [results[i] for i in range(len(requests))]

    # -- internals ---------------------------------------------------------

    def _age(self) -> float:
        return time.monotonic() - self._born

    def _spawn(self) -> None:
        host, port = self.address
        proc = spawn_local_worker(host, port)
        self._spawned_total += 1
        # The connection arrives asynchronously; the hello frame's pid
        # pairs it with this proc.
        self._pending_procs[proc.pid] = proc

    def _respawn_dead(self, work_remains: bool) -> None:
        """Keep the self-launched pool at its target size."""
        if self.spawn_target == 0 or not work_remains:
            return
        alive = sum(
            1
            for w in self._workers
            if w.proc is not None and w.proc.poll() is None
        )
        alive += sum(1 for p in self._pending_procs.values() if p.poll() is None)
        for _ in range(self.spawn_target - alive):
            self._spawn()
            if self._spawned_total > self.spawn_target:
                self.stats.workers_respawned += 1

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._server.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            # Blocking socket: select() gates reads, and sendall() must
            # never leave a partial frame on the wire.
            sock.setblocking(True)
            self._workers.append(_Remote(sock=sock, addr=addr))

    def _drain_frames(self, worker: _Remote, register_failure, complete) -> None:
        """Parse every complete frame in the worker's receive buffer."""
        while True:
            if len(worker.buf) < _LEN.size:
                return
            (length,) = _LEN.unpack(worker.buf[: _LEN.size])
            if length > MAX_FRAME:
                raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
            if len(worker.buf) < _LEN.size + length:
                return
            body = worker.buf[_LEN.size : _LEN.size + length]
            worker.buf = worker.buf[_LEN.size + length :]
            msg = json.loads(body.decode())
            self._handle(worker, msg, register_failure, complete)

    def _handle(self, worker: _Remote, msg: dict, register_failure, complete) -> None:
        kind = msg.get("type")
        if kind == "hello":
            if (
                msg.get("version") != PROTOCOL_VERSION
                or msg.get("schema") != CACHE_SCHEMA
            ):
                self.protocol_rejects += 1
                raise ProtocolError(
                    f"worker speaks protocol {msg.get('version')}/schema "
                    f"{msg.get('schema')}, need {PROTOCOL_VERSION}/{CACHE_SCHEMA}"
                )
            worker.ready = True
            proc = self._pending_procs.pop(msg.get("pid"), None)
            if proc is not None:
                worker.proc = proc
            return
        if kind != "result":
            return
        index = msg.get("index")
        if worker.task != index:
            return  # stale reply from a task this worker was failed off
        elapsed = time.monotonic() - worker.started
        worker.task = None
        worker.deadline = None
        if msg.get("status") == "ok":
            result = msg["result"]
            if not isinstance(result, dict):
                register_failure(
                    index, "exception",
                    f"worker returned a {type(result).__name__}, not a dict",
                    "", elapsed,
                )
                return
            # JSON round-trips every float bit-exactly (repr-based
            # shortest form, inf included), so the result document is
            # byte-identical to a locally evaluated one.
            complete(index, {str(k): v for k, v in result.items()})
        else:
            register_failure(
                index,
                "exception",
                str(msg.get("detail", "worker error")),
                str(msg.get("digest", "")),
                elapsed,
            )


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "ProtocolError",
    "DistributedSupervisor",
    "send_frame",
    "recv_frame",
    "request_to_wire",
    "request_from_wire",
    "run_worker",
    "spawn_local_worker",
]
