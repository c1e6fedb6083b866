"""Unit tests of the end-to-end benchmark's own arithmetic and tracer.

Run with ``pytest benchmarks/e2e -q`` (the tier-1 suite only collects
``tests/``).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "trace"))

import e2e_trace  # noqa: E402
import measure  # noqa: E402
from spans import SelfTime, Span, read_spans  # noqa: E402


def span(sid, parent, layer, start, end, pid=1, tid=1):
    return Span(sid, parent, layer, layer, pid, tid, start, end)


def self_times(spans, windows=None) -> SelfTime:
    """Feed spans children first, the order a process writes them in."""
    st = SelfTime(windows)
    for s in sorted(spans, key=lambda s: (s.end, -s.start)):
        st.add(s)
    return st


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "child", 10, 40),
        span(3, 2, "grandchild", 20, 30),
        span(4, 1, "child", 50, 60),
    ]
    st = self_times(spans)
    assert st.layers["root"] == {"self_ns": 60, "calls": 1}
    assert st.layers["child"] == {"self_ns": 30, "calls": 2}
    assert st.layers["grandchild"] == {"self_ns": 10, "calls": 1}
    # A tree's self times add up to its root's duration.
    assert st.threads == {(1, 1): 100}


def test_self_time_ignores_children_on_other_threads_and_processes():
    spans = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "executor", 10, 90, tid=2),  # same process, other thread
        span(3, 1, "worker", 20, 80, pid=2, tid=2),  # forked child's span
    ]
    rows = self_times(spans).layers
    assert rows["root"]["self_ns"] == 100
    assert rows["executor"]["self_ns"] == 80
    assert rows["worker"]["self_ns"] == 60


def test_self_time_counts_overlapping_children_once():
    # Concurrent asyncio tasks on one thread: both children of one span.
    spans = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "a", 10, 50),
        span(3, 1, "b", 30, 70),
    ]
    rows = self_times(spans).layers
    assert rows["root"]["self_ns"] == 40
    assert rows["a"]["self_ns"] == 40 and rows["b"]["self_ns"] == 40


def test_self_time_clips_to_windows():
    spans = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "child", 40, 60),
        span(3, 1, "late", 70, 80),
    ]
    rows = self_times(spans, windows=[(50, 100)]).layers
    assert rows["root"] == {"self_ns": 50 - 10 - 10, "calls": 0}
    assert rows["child"] == {"self_ns": 10, "calls": 0}
    assert rows["late"] == {"self_ns": 10, "calls": 1}


# -- the tracer ---------------------------------------------------------------------


def _module(tmp_path: Path, name: str) -> Path:
    path = tmp_path / f"{name}.py"
    path.write_text(
        textwrap.dedent(
            """
            def f(x):
                return x + 1

            class C:
                def m(self, x):
                    return f(x) * 2

                async def a(self, x):
                    return x - 1
            """
        )
    )
    return path


def test_tracer_wraps_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(tmp_path))
    _module(tmp_path, "e2e_target_loaded")
    _module(tmp_path, "e2e_target_lazy")
    import e2e_target_loaded as loaded

    originals = (loaded.f, loaded.C.__dict__["m"], loaded.C.__dict__["a"])
    layers = {
        "one": (("e2e_target_loaded", "f"), ("e2e_target_lazy", "f")),
        "two": (("e2e_target_loaded", "C.m"), ("e2e_target_loaded", "C.a")),
    }
    tracer = e2e_trace.Tracer(e2e_trace.SpanWriter(str(tmp_path)), layers)
    tracer.install()
    try:
        assert loaded.f is not originals[0]
        assert loaded.C().m(1) == 4
        assert asyncio.run(loaded.C().a(1)) == 0
        import e2e_target_lazy as lazy  # patched by the import hook

        assert lazy.f.__e2e_original__.__module__ == "e2e_target_lazy"
        assert lazy.f(1) == 2
    finally:
        tracer.uninstall()
    assert (loaded.f, loaded.C.__dict__["m"], loaded.C.__dict__["a"]) == originals
    assert not hasattr(lazy.f, "__e2e_original__")
    assert all(not isinstance(f, e2e_trace._PatchOnImport) for f in sys.meta_path)

    spans = list(read_spans(tmp_path))
    by_layer = sorted((s.layer, s.name) for s in spans)
    assert by_layer == [
        ("one", "e2e_target_lazy:f"),
        ("one", "e2e_target_loaded:f"),
        ("two", "e2e_target_loaded:C.a"),
        ("two", "e2e_target_loaded:C.m"),
    ]
    m = next(s for s in spans if s.name.endswith("C.m"))
    inner = next(s for s in spans if s.name == "e2e_target_loaded:f")
    assert inner.parent == m.sid and m.start <= inner.start <= inner.end <= m.end
    assert {s.pid for s in spans} == {os.getpid()}


def test_every_process_writes_its_spans_before_os_exit(tmp_path):
    # Pool workers are forked and leave through os._exit, skipping atexit
    # handlers; the job process is traced by the same writer.
    _module(tmp_path, "e2e_target_fork")
    spans_dir = tmp_path / "spans"
    script = textwrap.dedent(
        f"""
        import os, e2e_trace
        e2e_trace.activate({str(spans_dir)!r}, {{"one": (("e2e_target_fork", "f"),)}})
        import e2e_target_fork
        e2e_target_fork.f(1)
        pid = os.fork()
        if pid == 0:
            e2e_target_fork.f(2)
            os._exit(0)
        os.waitpid(pid, 0)
        print(os.getpid(), pid, flush=True)
        os._exit(0)
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BENCH_TRACE"}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE / "trace"), str(tmp_path)])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    parent, child = (int(pid) for pid in out.split())
    spans = list(read_spans(spans_dir))
    assert [s.name for s in spans] == ["e2e_target_fork:f"] * 2
    assert {s.pid for s in spans} == {parent, child}
    assert len({s.sid for s in spans}) == 2


@pytest.mark.parametrize("traced", [False, True])
def test_sitecustomize_acts_only_when_asked(tmp_path, traced):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BENCH_TRACE"}
    env["PYTHONPATH"] = str(HERE / "trace")
    if traced:
        env["REPRO_BENCH_TRACE"] = str(tmp_path)
    probe = (
        "import sys; print('e2e_trace' in sys.modules, "
        "any(type(f).__name__ == '_PatchOnImport' for f in sys.meta_path))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split()
    assert out == ([str(traced)] * 2)


# -- tails and rate steps -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expect",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expect):
    assert measure.tail_percentile(n) == expect


def test_tail_reads_nearest_rank():
    values = list(range(1, 201))  # 200 samples
    assert measure.tail(values) == (95.0, 190)
    assert sum(v > 190 for v in values) == 10
    assert measure.percentile(values, 50.0) == 100


def test_min_samples_is_the_fewest_for_the_percentile():
    for p in (95.0, 99.0, 99.9):
        n = measure.min_samples(p)
        assert measure.tail_percentile(n) == p
        assert measure.tail_percentile(n - 1) < p
    assert measure.STEP_REQUESTS == 1000


def step(rate=200.0, lat=1.0, late=0.1, n=measure.STEP_REQUESTS, drained=True, failed=0):
    lats = tuple([None] * failed + [lat] * (n - failed))
    return measure.Step(rate, lats, tuple([late] * n), drained)


def test_step_rule_passes_a_healthy_step():
    v = measure.judge_step(step())
    assert v["valid"] and v["passed"] and v["p99_ms"] == 1.0


def test_step_rule_judges_at_p99():
    # 11 slow requests of 1000: the 990th sample, the p99, is slow.
    lats = tuple([1.0] * 989 + [30.0] * 11)
    v = measure.judge_step(measure.Step(200.0, lats, (0.1,) * 1000, True))
    assert v["valid"] and not v["passed"] and v["p99_ms"] == 30.0
    lats = tuple([1.0] * 990 + [30.0] * 10)
    assert measure.judge_step(measure.Step(200.0, lats, (0.1,) * 1000, True))["passed"]


def test_step_rule_invalidates_a_late_generator():
    v = measure.judge_step(step(late=6.0))
    assert not v["valid"] and not v["passed"]


def test_step_rule_invalidates_a_step_too_short_for_p99():
    v = measure.judge_step(step(n=measure.STEP_REQUESTS - 1))
    assert not v["valid"] and not v["passed"]


def test_step_rule_counts_failures_as_misses():
    v = measure.judge_step(step(failed=1))
    assert v["valid"] and not v["passed"] and v["failed"] == 1


def test_step_rule_requires_draining_and_the_latency_limit():
    assert not measure.judge_step(step(drained=False))["passed"]
    assert not measure.judge_step(step(lat=measure.LATENCY_LIMIT_MS + 1))["passed"]


def test_max_qps_stops_at_the_first_missed_step():
    ok = [measure.judge_step(step(rate=r)) for r in (200.0, 400.0)]
    missed = measure.judge_step(step(rate=800.0, lat=measure.LATENCY_LIMIT_MS + 1))
    later = measure.judge_step(step(rate=1600.0))
    assert measure.max_qps([*ok, missed, later]) == 400.0
    assert measure.max_qps([measure.judge_step(step(failed=3)), *ok]) == 0.0


def test_max_qps_is_unknown_when_the_deciding_step_is_invalid():
    ok = [measure.judge_step(step(rate=r)) for r in (200.0, 400.0)]
    late = measure.judge_step(step(rate=800.0, late=6.0))
    assert measure.max_qps([*ok, late]) is None
    assert measure.max_qps([measure.judge_step(step(late=6.0)), *ok]) is None


# -- comparing runs -------------------------------------------------------------------


def test_host_share_averages_the_probe_and_counts_steal_against_wanted_time():
    before = measure.HostReading(2e-3, busy=100, stolen=10)
    after = measure.HostReading(4e-3, busy=175, stolen=35)
    assert measure.host_share(before, after) == measure.HostShare(3e-3, 0.25)
    # No CPU time wanted, nothing stolen.
    assert measure.host_share(before, before).stolen == 0.0


def test_times_are_scaled_to_the_reference_host_job_by_job():
    # Each job is scaled by what it had of the host, then the median is taken:
    # 1.0 s at reference speed, 3.0 s at reference speed, 2.0 s at half speed,
    # and 2.0 s of which a quarter was stolen, at 3/4 of the reference speed.
    ref = measure.HostShare(2e-3, 0.0)
    timings = [(1.0, ref), (3.0, ref), (2.0, measure.HostShare(4e-3, 0.0))]
    assert measure.at_reference_speed(timings, 2e-3) == 1.0
    slow_and_stolen = measure.HostShare(2e-3 / 0.75, 0.25)
    assert measure.at_reference_speed([(2.0, slow_and_stolen)], 2e-3) == pytest.approx(1.125)


def test_verdicts():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert measure.verdict(a, [1.05, 1.04, 1.06], 0.10, "lower") == "ok"
    assert measure.verdict(a, [1.20, 1.21, 1.19], 0.10, "lower") == "regressed"
    assert measure.verdict(a, [0.80, 0.81, 0.79], 0.10, "higher") == "regressed"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert measure.verdict(noisy, [1.6, 1.7], 0.10, "lower") == "unresolved"
    assert measure.verdict(noisy, [0.1, 0.2], 0.10, "lower") == "ok"
