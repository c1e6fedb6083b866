"""The reference jobs of the end-to-end benchmark, and how one run of a
workload measures them.

Every process is a fresh ``repro.cli`` started from the checkout's
``src/`` (``PYTHONPATH`` is replaced, never extended): one per sweep job,
so in-process memos start cold each time, and one ``serve`` per run of a
served workload.  A run repeats its workload's job until the run's time
is spent, checks every output, and keeps one sample per job;
:func:`summarize` turns the samples into the run's figures.
"""

from __future__ import annotations

import asyncio
import compileall
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import measure
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TRACE_PATH = HERE / "trace"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(TRACE_PATH))
import e2e_trace  # noqa: E402  (the layer table; tracing stays off here)

#: Seconds one job process may run before it is killed and counted failed.
JOB_TIMEOUT_S = 120.0

#: Jobs a run always measures, even when they outlast ``--seconds``.
MIN_JOBS = 3

#: Spawned as ``python -c BOOT STAMP ARGS...``: ``python -m repro.cli ARGS``
#: that also writes to STAMP the monotonic time at which ``repro.cli.main``
#: is entered and, at exit, the process's peak resident set (``VmHWM``, kB),
#: so set-up time and memory are measured without touching ``src/``.
#: (``ru_maxrss`` from ``wait4`` would not do: a child's starts at the
#: harness's own resident set when it forks.)
BOOT = (
    "import atexit, sys, time\n"
    "from repro.cli import main\n"
    "stamp = sys.argv.pop(1)\n"
    "def peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        kb = next(l.split()[1] for l in fh if l.startswith('VmHWM:'))\n"
    "    with open(stamp, 'a') as fh:\n"
    "        fh.write(' ' + kb)\n"
    "with open(stamp, 'w') as fh:\n"
    "    fh.write(str(time.monotonic_ns()))\n"
    "atexit.register(peak)\n"
    "sys.exit(main())\n"
)

#: Spawned as ``python -c PROBE CPU``: pinned to CPU, it answers each line
#: on its standard input with the CPU time (median of 5) that a fixed piece
#: of interpreter work took.
PROBE = (
    "import json, os, statistics, sys, time\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "def once():\n"
    "    t = time.thread_time()\n"
    "    d = {}\n"
    "    for i in range(6000):\n"
    "        d[str(i)] = i * 1.5\n"
    "    json.dumps(sorted(d.items(), key=lambda kv: -kv[1])[:500])\n"
    "    return time.thread_time() - t\n"
    "for _ in sys.stdin:\n"
    "    print(statistics.median(once() for _ in range(5)), flush=True)\n"
)

#: The probe's time on the machine the benchmark was defined on, in its
#: fast phase (its fastest 5% of readings were 1.8 to 2.0 ms).  Times are
#: reported at this speed; see :class:`HostMeter`.
PROBE_REF_S = 2e-3


class JobError(RuntimeError):
    """A job could not complete; the run stops and reports it failed."""


def check_checkout() -> None:
    """Refuse to run anywhere but a checkout holding the program's sources."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(
            f"run.py: no program sources at {SRC}/repro; run the benchmark "
            "from a checkout of the repository"
        )


def import_repro() -> None:
    """Make the checkout's ``repro`` importable in this process (offline
    oracles) ahead of any installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- processes -------------------------------------------------------------------


@dataclass
class Exit:
    code: int
    end_ns: int


class Proc:
    """One ``repro.cli`` process: spawn time, set-up stamp, reaping."""

    def __init__(self, run: "Run", args: list[str], stdout, traced: bool):
        n = run.next_id()
        self.stamp = run.work / f"stamp-{n}"
        self.stderr_path = run.work / f"stderr-{n}"
        self.span_dir = run.work / f"spans-{n}" if traced and run.traced else None
        self.args = args
        env = run.env(self.span_dir)
        with open(self.stderr_path, "wb") as err:
            self.spawn_ns = time.monotonic_ns()
            self.popen = subprocess.Popen(
                [sys.executable, "-c", BOOT, str(self.stamp), *args],
                cwd=ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=err,
            )
        self.pid = self.popen.pid
        self.exit: Exit | None = None
        run.procs.append(self)

    def _stamp(self) -> list[int]:
        try:
            return [int(v) for v in self.stamp.read_text().split()]
        except (OSError, ValueError):
            raise JobError(f"{self.describe()} never entered repro.cli.main") from None

    @property
    def main_ns(self) -> int:
        """When ``repro.cli.main`` was entered."""
        return self._stamp()[0]

    @property
    def setup_s(self) -> float:
        return (self.main_ns - self.spawn_ns) / 1e9

    @property
    def peak_rss_mb(self) -> float:
        stamp = self._stamp()
        if len(stamp) < 2:
            raise JobError(f"{self.describe()} exited without reporting its peak RSS")
        return stamp[1] / 1024.0

    def wait(self, timeout: float = JOB_TIMEOUT_S) -> Exit:
        """Reap the process; kill it past ``timeout``."""
        if self.exit is not None:
            return self.exit
        killer = threading.Timer(timeout, self._kill)
        killer.start()
        try:
            _, status = os.waitpid(self.pid, 0)
        finally:
            killer.cancel()
        end_ns = time.monotonic_ns()
        code = os.waitstatus_to_exitcode(status)
        self.popen.returncode = code  # reaped here, not by Popen
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        self.exit = Exit(code, end_ns)
        return self.exit

    def _kill(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(self) -> None:
        """Kill and reap (cleanup after a failure)."""
        if self.exit is None:
            self._kill()
            self.wait()

    def stderr_tail(self) -> str:
        try:
            lines = self.stderr_path.read_text(errors="replace").strip().splitlines()
        except OSError:
            return ""
        return " | ".join(lines[-3:])

    def describe(self) -> str:
        return f"repro-mrd {self.args[0]} (pid {self.pid})"


def cpu_ticks() -> tuple[int, int]:
    """Clock ticks all CPUs have spent so far (``/proc/stat``): busy (user,
    nice, system, irq, softirq) and stolen (runnable, but the host ran
    another guest)."""
    with open("/proc/stat") as fh:
        user, nice, system, _, _, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    return user + nice + system + irq + softirq, steal


class HostMeter:
    """How much of the host a job had, read between jobs.

    The benchmark runs on a virtual machine that shares its host with other
    tenants, and two things the program does not control stretch its
    times, for seconds to minutes at a time: the cores run slower (by as
    much as 1.7x, as neighbours load them), and the host stops running a
    virtual CPU that has work for a while (steal).  A run that falls in
    such a stretch would read as a regression, so each job's time is
    scaled to a dedicated host of fixed speed (``measure.at_reference_speed``):

    - speed: one helper process pinned to each CPU times :data:`PROBE` just
      before and just after the job.  It counts CPU time, not wall time:
      a core's slowing down shows in it, but waiting for a core does not,
      so a program that kept a core busy between jobs could not slow the
      probe down and flatter its own times.
    - steal: the share of the CPU time wanted during the job that the host
      gave to other guests, from ``/proc/stat``.
    """

    def __init__(self):
        self.helpers = [
            subprocess.Popen(
                [sys.executable, "-c", PROBE, str(cpu)],
                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def read(self) -> measure.HostReading:
        busy, stolen = cpu_ticks()
        try:
            for h in self.helpers:
                h.stdin.write("\n")
                h.stdin.flush()
            probe_s = statistics.mean(float(h.stdout.readline()) for h in self.helpers)
        except (OSError, ValueError):
            raise JobError("a speed-probe helper exited") from None
        return measure.HostReading(probe_s, busy, stolen)

    def close(self) -> None:
        for h in self.helpers:
            try:
                h.stdin.close()
            except OSError:
                pass
        for h in self.helpers:
            try:
                h.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                h.kill()
                h.wait()
            h.stdout.close()


# -- one run ---------------------------------------------------------------------


@dataclass
class Sample:
    """What one job measured."""

    wall_s: float
    rss_mb: float
    counters: dict = field(default_factory=dict)
    #: Set-up time of the job's own process (sweep jobs).
    setup_s: float | None = None
    #: What the job had of the host (set by :func:`measure_run`).
    host: measure.HostShare | None = None


@dataclass
class TracedProc:
    """A traced process and the windows its spans are counted in."""

    proc: Proc
    windows: list[tuple[int, int]]


class Run:
    """One measured run of one workload: scratch space, seed, samples."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, work: Path,
                 steps: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        #: End with the open-loop rate steps (workloads that have them).
        self.steps = steps
        self.work = work
        self.rng = random.Random(f"{workload}:{seed}")
        self.samples: list[Sample] = []
        #: (set-up time, host share) per process start measured.
        self.setups: list[tuple[float, measure.HostShare]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warnings: list[str] = []
        self.latencies_ms: list[float] = []
        self.client_spans: list[spanlib.Span] = []
        self.traced_procs: list[TracedProc] = []
        self.procs: list[Proc] = []
        self.info: dict = {}
        self._ids = 0
        self.host = HostMeter()

    def next_id(self) -> int:
        self._ids += 1
        return self._ids

    def fresh_dir(self, stem: str) -> Path:
        path = self.work / f"{stem}-{self.next_id()}"
        path.mkdir(parents=True)
        return path

    def env(self, span_dir: Path | None) -> dict:
        env = dict(os.environ)
        env.pop("REPRO_ENGINE_CHAOS", None)  # the fault-injection harness stays off
        env.pop("REPRO_BENCH_TRACE", None)
        env["TMPDIR"] = str(self.work)
        env["PYTHONPATH"] = str(SRC)
        if span_dir is not None:
            span_dir.mkdir(parents=True, exist_ok=True)
            env["PYTHONPATH"] = os.pathsep.join([str(TRACE_PATH), str(SRC)])
            env["REPRO_BENCH_TRACE"] = str(span_dir)
        return env

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def trace_whole(self, proc: Proc) -> None:
        if proc.span_dir is not None:
            self.traced_procs.append(TracedProc(proc, [(proc.spawn_ns, proc.exit.end_ns)]))

    def close(self) -> None:
        for proc in self.procs:
            proc.stop()
        self.host.close()


def measure_run(run: Run, workload) -> None:
    """Set up, repeat the workload's job for ``run.seconds``, tear down."""
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    try:
        workload.setup(run)
        start = time.monotonic()
        before = run.host.read()
        while True:
            t0 = time.monotonic()
            sample = workload.job(run)
            after = run.host.read()
            sample.host = measure.host_share(before, after)
            before = after
            run.samples.append(sample)
            if sample.setup_s is not None:
                run.setups.append((sample.setup_s, sample.host))
            elapsed = time.monotonic() - start
            last = time.monotonic() - t0
            if len(run.samples) >= MIN_JOBS and elapsed + last > run.seconds:
                break
        run.info["measured_s"] = time.monotonic() - start
        workload.teardown(run)
    except JobError as err:
        run.operation(False, str(err))
    finally:
        run.close()


# -- sweep jobs ------------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())["sha256"]


def run_cli(run: Run, args: list[str]) -> tuple[Proc, bytes, dict]:
    """Run one CLI job to completion; returns (process, stdout, bench doc)."""
    n = run.next_id()
    out_path = run.work / f"stdout-{n}"
    bench_path = run.work / f"bench-{n}.json"
    with open(out_path, "wb") as out:
        proc = Proc(run, [*args, "--bench-json", str(bench_path)], out, traced=True)
    ex = proc.wait()
    if ex.code != 0:
        raise JobError(f"{proc.describe()} exited {ex.code}: {proc.stderr_tail()}")
    return proc, out_path.read_bytes(), json.loads(bench_path.read_text())


def engine_counters(doc: dict) -> dict:
    """The per-layer counters of one engine-statistics document."""
    out = {
        "engine.requests": doc["requests"],
        "engine.evaluated": doc["evaluated"],
        "engine.pruned": doc["pruned_evaluations_saved"],
        "engine.batched": doc["batched"],
        "engine.batch_fallbacks": doc["batch_fallbacks"],
        "engine.retries": doc["retries"],
        "engine.quarantined": doc["quarantined"],
        "cache.hit_rate": doc["cache_hit_rate"],
        "prune.saved_frac": doc["pruned_evaluations_saved"]
        / max(1, doc["evaluated"] + doc["pruned_evaluations_saved"]),
    }
    for rung in ("metric", "logp", "round"):
        out[f"ladder.kept_frac.{rung}"] = 0.0
    for rung in doc.get("ladder", {}).get("rungs", ()):
        if rung["rung"] in ("metric", "logp", "round"):
            out[f"ladder.kept_frac.{rung['rung']}"] = rung["n_promoted"] / max(
                1, rung["n_candidates"]
            )
    return out


class Workload:
    """One reference job, set up once per run and then repeated.  A fresh
    instance serves each run (see :data:`WORKLOADS`)."""

    #: Whether a run can end with open-loop rate steps (``Run.steps``).
    has_steps = False

    def setup(self, run: Run) -> None:
        pass

    def job(self, run: Run) -> Sample:
        raise NotImplementedError

    def teardown(self, run: Run) -> None:
        pass


class SweepJob(Workload):
    """A ``sweep`` command whose CSV must match the ``golden`` digest;
    ``fresh_cache`` gives every job an empty ``--cache-dir``."""

    def __init__(self, args: list[str], golden: str, fresh_cache: bool = False):
        self.args = args
        self.golden = golden
        self.fresh_cache = fresh_cache

    def setup(self, run: Run) -> None:
        self.digest = load_golden()[self.golden]

    def job_args(self, run: Run) -> list[str]:
        if self.fresh_cache:
            return [*self.args, "--cache-dir", str(run.fresh_dir("cache"))]
        return self.args

    def job(self, run: Run) -> Sample:
        proc, out, doc = run_cli(run, self.job_args(run))
        ex = proc.exit
        got = sha256(out)
        run.operation(
            got == self.digest,
            f"CSV sha256 {got[:12]} != golden {self.golden} {self.digest[:12]}",
        )
        run.operation(
            doc["quarantined"] == 0, f"{doc['quarantined']} evaluation(s) quarantined"
        )
        run.trace_whole(proc)
        return Sample(
            wall_s=(ex.end_ns - proc.spawn_ns) / 1e9,
            rss_mb=proc.peak_rss_mb,
            counters=engine_counters(doc),
            setup_s=proc.setup_s,
        )


class WarmSweepJob(SweepJob):
    """Replays a sweep against the cache and journal a cold run left on
    disk in set-up.  Cold and warm output both match the golden digest,
    so they are byte-identical."""

    def setup(self, run: Run) -> None:
        super().setup(run)
        self.cache = run.fresh_dir("cache")
        _, out, _ = run_cli(run, [*self.args, "--cache-dir", str(self.cache)])
        run.operation(sha256(out) == self.digest, "cold CSV differs from golden")

    def job_args(self, run: Run) -> list[str]:
        return [*self.args, "--cache-dir", str(self.cache)]

    def job(self, run: Run) -> Sample:
        sample = super().job(run)
        evaluated = sample.counters["engine.evaluated"]
        run.operation(evaluated == 0, f"warm replay evaluated {evaluated} request(s)")
        return sample


# -- served jobs -----------------------------------------------------------------


class HttpConn:
    """One keep-alive HTTP/1.1 client connection (asyncio streams)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "HttpConn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


async def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = await HttpConn.open(port)
    try:
        return await asyncio.wait_for(conn.request("GET", path), 30.0)
    finally:
        await conn.close()


class Server:
    """A ``serve --port 0 --prewarm none`` process."""

    def __init__(self, run: Run, traced: bool = True):
        self.proc = Proc(
            run, ["serve", "--port", "0", "--prewarm", "none"], subprocess.PIPE, traced
        )
        line = self._read_line(timeout=60.0)
        try:
            self.port = int(line.split("http://127.0.0.1:")[1].split()[0])
        except (IndexError, ValueError):
            raise JobError(f"serve printed no address: {line!r}") from None
        status = 0
        deadline = time.monotonic() + 30.0
        while status != 200:
            try:
                status, _ = asyncio.run(_get(self.port, "/healthz"))
            except OSError:
                status = 0
            if status != 200:
                if time.monotonic() > deadline:
                    raise JobError("serve never answered /healthz with 200")
                time.sleep(0.005)
        #: Spawn until the first 200 from /healthz.
        self.setup_s = (time.monotonic_ns() - self.proc.spawn_ns) / 1e9

    def _read_line(self, timeout: float) -> str:
        stdout = self.proc.popen.stdout
        ready: list[str] = []
        reader = threading.Thread(target=lambda: ready.append(stdout.readline().decode()))
        reader.start()
        reader.join(timeout)
        if not ready:
            self.proc.stop()
            reader.join()
            raise JobError(f"serve did not start: {self.proc.stderr_tail()}")
        return ready[0]

    def stats(self) -> dict:
        status, body = asyncio.run(_get(self.port, "/stats"))
        if status != 200:
            raise JobError(f"/stats answered {status}")
        return json.loads(body)

    def rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server so far."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise JobError("no VmHWM in /proc status")

    def stop(self, run: Run) -> None:
        """Ctrl-C the server.  Its answers are already checked, so a server
        that needs killing is reported as a warning, not a failed run."""
        os.kill(self.proc.pid, signal.SIGINT)
        ex = self.proc.wait(timeout=10.0)
        if ex.code != 0:
            run.warnings.append(
                f"serve exited {ex.code} after SIGINT: {self.proc.stderr_tail()}"
            )


@dataclass
class Answer:
    status: int
    body: bytes
    start_ns: int
    end_ns: int


async def _closed_loop(port: int, bodies: list[bytes]) -> list[Answer]:
    conn = await HttpConn.open(port)
    out = []
    try:
        for body in bodies:
            t0 = time.monotonic_ns()
            try:
                status, resp = await asyncio.wait_for(
                    conn.request("POST", "/advise", body), JOB_TIMEOUT_S
                )
            except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError):
                status, resp = 0, b""
            out.append(Answer(status, resp, t0, time.monotonic_ns()))
            if status == 0:
                await conn.close()
                conn = await HttpConn.open(port)
    finally:
        await conn.close()
    return out


def closed_loop(run: Run, port: int, docs: list[dict], timed: bool = True) -> list[Answer]:
    """Send ``docs`` one after another on one keep-alive connection;
    ``timed`` answers join the run's latency samples and client spans."""
    answers = asyncio.run(_closed_loop(port, [json.dumps(d).encode() for d in docs]))
    for doc, ans in zip(docs, answers):
        run.operation(ans.status == 200, f"/advise answered {ans.status} for {doc}")
        if timed:
            run.latencies_ms.append((ans.end_ns - ans.start_ns) / 1e6)
            run.client_spans.append(
                spanlib.Span(-1, 0, "client", "client:/advise", os.getpid(),
                             threading.get_native_id(), ans.start_ns, ans.end_ns)
            )
    return answers


#: Hydra and LUMI presets, in the sizes the served workloads query.
HYDRA4 = ("hydra", "node:4 socket:2 group:2 core:8")
LUMI2 = ("lumi", "node:2 socket:2 numa:4 l3:2 core:8")

#: Query shapes, most popular first (Zipf rank = position + 1).
SHAPES = (
    (HYDRA4, 16, "alltoall"),
    (HYDRA4, 64, "alltoall"),
    (HYDRA4, 16, "allreduce"),
    (HYDRA4, 64, "allgather"),
    (LUMI2, 16, "alltoall"),
    (HYDRA4, 8, "alltoall"),
    (HYDRA4, 32, "alltoall"),
    (HYDRA4, 32, "allreduce"),
    (HYDRA4, 64, "allreduce"),
    (HYDRA4, 8, "allgather"),
    (HYDRA4, 16, "allgather"),
    (LUMI2, 64, "alltoall"),
    (HYDRA4, 8, "allreduce"),
    (HYDRA4, 32, "allgather"),
)

#: Payload sizes of a query, before its seeded jitter.  The jitter
#: (under 1%) makes every generated payload novel while keeping each
#: size clear of the algorithm-selection thresholds, so the work a query
#: costs depends on its shape and not on the draw.
BASE_BYTES = (1e5, 64e6)


def make_query(shape, rng: random.Random) -> dict:
    (machine, hierarchy), comm_size, collective = shape
    return {
        "machine": machine,
        "hierarchy": hierarchy,
        "comm_size": comm_size,
        "collective": collective,
        "total_bytes": [b * (1.0 + 0.01 * rng.random()) for b in BASE_BYTES],
    }


def zipf_quotas(scale: float) -> list[int]:
    """Queries per shape in one cold batch: ``scale / rank``, at least 1."""
    return [max(1, round(scale / (rank + 1))) for rank in range(len(SHAPES))]


def offline_advice(doc: dict) -> dict:
    """Offline ``advise`` for a served query, after a JSON round-trip."""
    import_repro()
    from repro.core.advisor import advise
    from repro.service.app import topology_for
    from repro.topology.hwloc import parse_synthetic

    h = parse_synthetic(doc["hierarchy"])
    advice = advise(
        topology_for(doc["machine"], h),
        h,
        doc["comm_size"],
        collective=doc["collective"],
        total_bytes=tuple(doc["total_bytes"]),
        backend="logp",
        batch=True,
    )
    return json.loads(json.dumps(advice.to_jsonable()))


def spot_check(run: Run, doc: dict, answer: Answer, expected: dict) -> None:
    served = json.loads(answer.body)["advice"]
    run.operation(
        served == expected,
        f"served advice differs from offline advise() for {doc}",
    )


class Served(Workload):
    """One ``serve`` process per run; each job is one batch of queries sent
    closed loop on one keep-alive connection.  Only the batches are timed
    and traced; answers picked by :meth:`check_key` are checked against
    offline ``advise`` in teardown."""

    #: Extra server starts per run, so set-up time has several samples.
    SETUP_STARTS = 4

    def setup(self, run: Run) -> None:
        for _ in range(self.SETUP_STARTS):
            self.start_server(run, traced=False).stop(run)
        self.server = self.start_server(run, traced=True)
        self.windows: list[tuple[int, int]] = []
        self.checks: dict = {}
        self.before = self.server.stats()["engine"]

    @staticmethod
    def start_server(run: Run, traced: bool) -> Server:
        before = run.host.read()
        server = Server(run, traced)
        run.setups.append((server.setup_s, measure.host_share(before, run.host.read())))
        return server

    def queries(self, run: Run) -> list[dict]:
        raise NotImplementedError

    def check_key(self, i: int, doc: dict):
        """Key of the ``i``-th query of a batch if its answer is to be
        checked (the first answer per key is kept), else None."""
        raise NotImplementedError

    def expected(self, doc: dict) -> dict:
        """The offline answer a served answer to ``doc`` must equal."""
        return offline_advice(doc)

    def job(self, run: Run) -> Sample:
        docs = self.queries(run)
        t0 = time.monotonic_ns()
        answers = closed_loop(run, self.server.port, docs)
        t1 = time.monotonic_ns()
        self.windows.append((t0, t1))
        for i, (doc, ans) in enumerate(zip(docs, answers)):
            key = self.check_key(i, doc)
            if key is not None and ans.status == 200:
                self.checks.setdefault(key, (doc, ans))
        return Sample((t1 - t0) / 1e9, self.server.rss_mb())

    def record_counters(self, run: Run) -> None:
        """Engine counters per batch, from ``/stats`` before and after the batches."""
        after = self.server.stats()["engine"]
        delta = {
            k: after[k] - self.before[k]
            for k in ("requests", "evaluated", "pruned_evaluations_saved", "batched",
                      "batch_fallbacks", "retries", "quarantined", "memory_hits",
                      "disk_hits")
        }
        delta["cache_hit_rate"] = (
            (delta["memory_hits"] + delta["disk_hits"]) / max(1, delta["requests"])
        )
        batches = max(1, len(self.windows))
        counters = engine_counters(
            {k: (v / batches if k != "cache_hit_rate" else v) for k, v in delta.items()}
        )
        for sample in run.samples:
            sample.counters = counters

    def finish(self, run: Run) -> None:
        self.server.stop(run)
        if self.server.proc.span_dir is not None:
            run.traced_procs.append(TracedProc(self.server.proc, self.windows))
        for doc, ans in self.checks.values():
            spot_check(run, doc, ans, self.expected(doc))

    def teardown(self, run: Run) -> None:
        self.record_counters(run)
        self.finish(run)


class AdviseCold(Served):
    """Every query carries a novel payload, so each misses the result
    cache.  One batch in set-up (not timed) warms the server's in-process
    memos, as a server in service has them; otherwise the first batch
    costs up to twice a later one, and the run's median would depend on
    how many batches fit in it."""

    #: Zipf scale of one batch (18 queries over the 14 shapes).
    SCALE = 4.0
    #: Every this-many-th query of a batch is checked against offline advise.
    CHECK_EVERY = 10

    def setup(self, run: Run) -> None:
        super().setup(run)
        closed_loop(run, self.server.port, self.queries(run), timed=False)
        self.before = self.server.stats()["engine"]

    def queries(self, run: Run) -> list[dict]:
        docs = [
            make_query(shape, run.rng)
            for shape, quota in zip(SHAPES, zipf_quotas(self.SCALE))
            for _ in range(quota)
        ]
        run.rng.shuffle(docs)
        return docs

    def check_key(self, i: int, doc: dict):
        return (len(self.windows), i) if i % self.CHECK_EVERY == 0 else None


class AdviseWarm(Served):
    """The server is first asked each popular key once (not timed); the
    batches then draw only those keys.  A run asked for steps ends with
    open-loop rate steps that find the highest rate meeting the latency
    limit; they are outside the run's measured time."""

    has_steps = True
    #: Queries per timed batch.
    BATCH = 200
    #: Open-loop rate steps of ``measure.STEP_REQUESTS`` requests each.
    RATES = (200.0, 400.0, 800.0, 1600.0)

    def setup(self, run: Run) -> None:
        super().setup(run)
        #: One popular payload per shape: the warm key set.
        self.popular = [make_query(shape, run.rng) for shape in SHAPES]
        self.weights = [1.0 / (rank + 1) for rank in range(len(SHAPES))]
        # The offline answers the checks compare against are worked out
        # while the server warms up, on the other core.
        with ThreadPoolExecutor(1) as pool:
            offline = pool.submit(
                lambda: {self.check_key(0, d): offline_advice(d) for d in self.popular}
            )
            closed_loop(run, self.server.port, self.popular, timed=False)
            self.offline = offline.result()
        self.before = self.server.stats()["engine"]

    def queries(self, run: Run) -> list[dict]:
        picks = run.rng.choices(range(len(SHAPES)), self.weights, k=self.BATCH)
        return [self.popular[s] for s in picks]

    def check_key(self, i: int, doc: dict):
        """The first warm answer of every shape."""
        return doc["machine"], doc["comm_size"], doc["collective"]

    def expected(self, doc: dict) -> dict:
        return self.offline[self.check_key(0, doc)]

    def teardown(self, run: Run) -> None:
        self.record_counters(run)
        if run.steps and not run.traced:
            steps = [measure.judge_step(s) for s in self.open_loop(run)]
            run.info["steps"] = steps
            run.info["max_qps"] = measure.max_qps(steps)
        self.finish(run)

    def open_loop(self, run: Run) -> list[measure.Step]:
        steps = []
        for rate in self.RATES:
            picks = run.rng.choices(range(len(SHAPES)), self.weights, k=measure.STEP_REQUESTS)
            bodies = [json.dumps(self.popular[s]).encode() for s in picks]
            step, statuses = asyncio.run(_open_loop_step(self.server.port, rate, bodies))
            # Requests unanswered when an overloaded step is cut off are
            # misses for the step rule, not failed operations.
            for status in statuses:
                if status is not None:
                    run.operation(status == 200, f"/advise answered {status} at {rate:g} qps")
            steps.append(step)
            if not measure.judge_step(step)["passed"]:
                break
        return steps


async def _open_loop_step(
    port: int, rate: float, bodies: list[bytes]
) -> tuple[measure.Step, list[int | None]]:
    """Issue ``bodies`` at ``rate`` per second over two keep-alive
    connections; latency counts from each request's due time.  Returns
    the step and each request's HTTP status (0: connection error, None:
    not answered before the step was cut off)."""
    n = len(bodies)
    interval_ns = 1e9 / rate
    latencies: list[float | None] = [None] * n
    statuses: list[int | None] = [None] * n
    lateness: list[float] = []
    queue: asyncio.Queue = asyncio.Queue()

    async def sender(conn: HttpConn) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due = item
            try:
                status, _ = await conn.request("POST", "/advise", bodies[i])
            except (OSError, asyncio.IncompleteReadError):
                statuses[i] = 0
                return
            statuses[i] = status
            if status == 200:
                latencies[i] = (time.monotonic_ns() - due) / 1e6

    conns = [await HttpConn.open(port) for _ in range(2)]
    senders = [asyncio.create_task(sender(c)) for c in conns]
    t0 = time.monotonic_ns() + 2_000_000
    for i in range(n):
        due = t0 + int(i * interval_ns)
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(max(0, time.monotonic_ns() - due) / 1e6)
        queue.put_nowait((i, due))
    for _ in senders:
        queue.put_nowait(None)
    last_due = t0 + int((n - 1) * interval_ns)
    limit = (last_due + 1_000_000_000 - time.monotonic_ns()) / 1e9
    _, pending = await asyncio.wait(senders, timeout=max(limit, 0.0))
    drained = not pending
    for task in pending:
        task.cancel()
    await asyncio.gather(*senders, return_exceptions=True)
    for conn in conns:
        await conn.close()
    return measure.Step(rate, tuple(latencies), tuple(lateness), drained), statuses


# -- the workloads ----------------------------------------------------------------

#: The fig3-style hydra grid at a size that repeats about ten times in a
#: run, so the run's median job is a steady figure.
SWEEP_GRID_ARGS = [
    "sweep", "--machine", "hydra", "-H", "node:4 socket:2 group:2 core:8",
    "--comm-sizes", "4,16,64", "--collectives", "alltoall,allgather,allreduce",
    "--sizes", "16e3,64e6", "-j", "2",
]

#: Workload name -> a factory for one run's state.  Why each exists is
#: recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep_grid": lambda: SweepJob(SWEEP_GRID_ARGS, "sweep_grid", fresh_cache=True),
    "sweep_warm": lambda: WarmSweepJob(SWEEP_GRID_ARGS, "sweep_grid"),
    "dnn_ladder": lambda: SweepJob(
        [
            "sweep", "--machine", "generic", "-H", "a:2 b:4 c:4 d:4 e:2",
            "--workload", "dnn", "--param", "dp=4", "--param", "tp=8",
            "--param", "pp=8", "--param", "layers=16", "--param", "hidden=1024",
            "--param", "seq=512", "--ladder", "--backend", "round", "--top-k", "4",
        ],
        "dnn_ladder",
    ),
    "ladder_des": lambda: SweepJob(
        [
            "sweep", "--machine", "generic", "-H", "a:2 b:2 c:2 d:2 e:2",
            "--comm-sizes", "16", "--sizes", "1e6,16e6", "--ladder",
            "--backend", "des", "--top-k", "4", "--probe", "8", "--workers", "2",
        ],
        "ladder_des",
    ),
    "advise_cold": AdviseCold,
    "advise_warm": AdviseWarm,
}


def work_dir(workload: str) -> Path:
    path = HERE / ".work" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_work(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


#: Jobs (or batches) of a traced run shown in its Chrome trace; the
#: layer table counts them all.
TRACE_JOBS = 3


def trace_layers(run: Run, trace_file: Path) -> dict:
    """Per-layer self time and calls per job, self-time coverage of each
    job's main thread, and the Chrome trace of the first jobs."""
    ends = sorted(hi for tp in run.traced_procs for _, hi in tp.windows)
    cutoff = ends[min(TRACE_JOBS, len(ends)) - 1] if ends else 0
    shown: list[spanlib.Span] = []
    names: dict[int, str] = {}
    totals: dict[str, dict] = {}
    coverage = []
    service_ns = 0
    for i, tp in enumerate(run.traced_procs):
        proc = tp.proc
        setup = spanlib.Span(
            -1, 0, "setup", "setup", proc.pid, proc.pid, proc.spawn_ns, proc.main_ns
        )
        st = spanlib.SelfTime(tp.windows)
        main_returned = setup.end
        for s in itertools.chain([setup], spanlib.read_spans(proc.span_dir)):
            st.add(s)
            if s.layer == "cli" and s.pid == s.tid == proc.pid:
                main_returned = s.end
            if s.layer == "service" and spanlib.in_windows(s.start, st.windows):
                service_ns += s.end - s.start
            if s.start < cutoff:
                shown.append(s)
                names.setdefault(
                    s.pid,
                    f"job {i + 1}: repro-mrd {proc.args[0]}" if s.pid == proc.pid
                    else f"job {i + 1}: worker",
                )
        if proc.exit is not None:
            # Interpreter shutdown after main returns, until the process is reaped.
            st.add(spanlib.Span(-1, 0, "exit", "exit", proc.pid, proc.pid,
                                main_returned, proc.exit.end_ns))
        for layer, row in st.layers.items():
            acc = totals.setdefault(layer, {"self_ns": 0, "calls": 0})
            acc["self_ns"] += row["self_ns"]
            acc["calls"] += row["calls"]
        coverage.append(st.threads.get((proc.pid, proc.pid), 0) / spanlib.length(st.windows))
    windows = spanlib.merge(w for tp in run.traced_procs for w in tp.windows)
    clients = [c for c in run.client_spans if spanlib.in_windows(c.start, windows)]
    if clients:
        # Client-side time not spent inside the service's advise span.
        totals["http"] = {
            "self_ns": sum(c.end - c.start for c in clients) - service_ns,
            "calls": len(clients),
        }
        names[os.getpid()] = "benchmark client"
        shown += [c for c in run.client_spans if c.start < cutoff]
    if shown:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(s.start for s in shown)
        trace_file.write_text(json.dumps(spanlib.chrome_trace(shown, t0, names)))
    jobs = max(1, len(run.samples))
    total_ns = sum(r["self_ns"] for r in totals.values()) or 1
    layers = {}
    for layer in layer_names():
        row = totals.get(layer, {"self_ns": 0, "calls": 0})
        layers[layer] = {
            "self_s": row["self_ns"] / 1e9 / jobs,
            "calls": row["calls"] / jobs,
            "self_pct": 100.0 * row["self_ns"] / total_ns,
        }
    dispatched = sum(
        s.counters.get("engine.evaluated", 0) - s.counters.get("engine.batched", 0)
        for s in run.samples
    )
    dispatch_s = (layers["dispatch.pipe"]["self_s"] + layers["dispatch.socket"]["self_s"]) * jobs
    return {
        "layers": layers,
        "dispatch.s_per_task": dispatch_s / dispatched if dispatched > 0 else 0.0,
        "selftime_coverage": [min(coverage), max(coverage)] if coverage else None,
        "trace_file": str(trace_file),
    }


def layer_names() -> list[str]:
    """Every layer of the breakdown: process set-up (spawn until
    ``repro.cli.main``), the wrapped layers, process exit (after ``main``
    returns), and client-side HTTP."""
    return ["setup", *e2e_trace.LAYERS, "exit", "http"]


def median_counters(run: Run) -> dict:
    names = {n for s in run.samples for n in s.counters}
    return {
        n: statistics.median(s.counters.get(n, 0.0) for s in run.samples)
        for n in sorted(names)
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, trace_file: Path,
                 steps: bool = False) -> dict:
    """One run of one workload; returns its raw result document."""
    work = work_dir(name)
    run = Run(name, seed, seconds, traced, work, steps)
    try:
        measure_run(run, WORKLOADS[name]())
        doc = summarize(run)
        if traced:
            doc["traced"] = trace_layers(run, trace_file)
        return doc
    finally:
        remove_work(work)


def summarize(run: Run) -> dict:
    doc = {
        "workload": run.workload,
        "seed": run.seed,
        "traced": run.traced,
        "jobs": len(run.samples),
        "setup_samples": len(run.setups),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "errors": run.errors[:10],
        "warnings": run.warnings[:10],
        "metrics": {},
        "info": dict(run.info),
        "counters": median_counters(run),
    }
    # Times are medians over the run of each job's (or start's) time on a
    # dedicated host of reference speed (see HostMeter); the plain medians,
    # the probe's and the stolen share's stay in ``info``.  Memory is read
    # over the first MIN_JOBS jobs, which every run has: a served run's
    # result cache grows with each batch, so a figure over all jobs would
    # depend on how many fit in the run.
    if run.samples:
        timings = [(s.wall_s, s.host) for s in run.samples]
        doc["metrics"]["wall_s"] = measure.at_reference_speed(timings, PROBE_REF_S)
        doc["metrics"]["peak_rss_mb"] = statistics.median(
            s.rss_mb for s in run.samples[:MIN_JOBS]
        )
        doc["info"]["wall_median_s"] = statistics.median(s.wall_s for s in run.samples)
        doc["info"]["probe_median_s"] = statistics.median(s.host.probe_s for s in run.samples)
        doc["info"]["stolen_median"] = statistics.median(s.host.stolen for s in run.samples)
    if run.setups:
        doc["metrics"]["setup_s"] = measure.at_reference_speed(run.setups, PROBE_REF_S)
        doc["info"]["setup_median_s"] = statistics.median(s for s, _ in run.setups)
    if run.latencies_ms:
        lat = run.latencies_ms
        t = measure.tail(lat)
        doc["info"]["latency"] = {
            "samples": len(lat),
            "p50_ms": measure.percentile(lat, 50.0),
            "tail_p": t[0] if t else None,
            "tail_ms": t[1] if t else None,
        }
    doc["info"]["fail_frac"] = run.failed / max(1, run.attempted)
    return doc


