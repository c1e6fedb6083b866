"""Acceptance benchmark for engine robustness (ISSUE: crash-safe sweeps).

Measures what the supervised executor costs and proves what it buys:

- **overhead gate** -- a clean fig3-scale sweep through the
  :class:`~repro.engine.supervisor.TaskSupervisor` (two forked local
  workers, framed JSON over socketpairs) must stay within
  ``ROBUSTNESS_MAX_OVERHEAD`` (default 10%) wall clock of the same
  requests through a raw fire-and-forget ``Pool.map``;
- **chaos recovery** -- with injected worker SIGKILLs, hangs, and flaky
  exceptions, the supervised sweep completes with zero quarantines and
  results bitwise-identical to a clean serial run;
- **resume** -- an interrupted sweep resumed from its record log over the same
  grid re-evaluates only the incomplete keys and matches bitwise.

Emits the machine-readable ``BENCH_robustness.json`` artifact CI uploads
(recovery overhead vs clean run, retry/respawn/quarantine counters).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
from pathlib import Path

from repro.bench.report import assert_checks, check, print_checks
from repro.core.hierarchy import Hierarchy
from repro.core.orders import all_orders
from repro.engine import EvalRequest, SweepEngine, TaskSupervisor
from repro.engine.chaos import CHAOS_ENV
from repro.engine.evaluators import evaluate_request
from repro.topology.machines import hydra
from repro.util.retry import RetryPolicy
from repro.workloads import collective_params

#: Where CI picks the perf artifact up (repo root; see .github/workflows).
BENCH_JSON = Path("BENCH_robustness.json")

#: Wall-clock overhead the supervised executor may add to a clean sweep
#: relative to a raw pool (fraction; override for noisy shared runners).
MAX_OVERHEAD = float(os.environ.get("ROBUSTNESS_MAX_OVERHEAD", "0.10"))

HYDRA4 = Hierarchy((4, 2, 2, 8), names=("node", "socket", "group", "core"))


def _fig3_scale_requests() -> list[EvalRequest]:
    """All 24 orders of a 4-node Hydra at two payload sizes (48 cells)."""
    topo = hydra(4)
    return [
        EvalRequest(
            model="round",
            topology=topo,
            hierarchy=HYDRA4,
            order=order,
            comm_size=16,
            workload="collective",
            workload_params=collective_params("alltoall", 16, size),
        )
        for order in all_orders(4)
        for size in (1e6, 16e6)
    ]


def test_robustness_overhead_chaos_and_resume(once, tmp_path):
    reqs = _fig3_scale_requests()
    os.environ.pop(CHAOS_ENV, None)

    # -- baseline: the old fire-and-forget pool on the same requests ------
    t0 = time.perf_counter()
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    with ctx.Pool(2) as pool:
        baseline = pool.map(evaluate_request, reqs)
    t_pool = time.perf_counter() - t0

    # -- clean supervised run (the overhead being gated) ------------------
    with TaskSupervisor(jobs=2, policy=RetryPolicy(timeout=60.0)) as sup:
        t0 = time.perf_counter()
        clean = once(sup.run, reqs)
        t_clean = time.perf_counter() - t0
    overhead = t_clean / t_pool - 1.0

    # -- chaos run: first attempts crash, hang, or raise ------------------
    os.environ[CHAOS_ENV] = "crash=0.2,hang=0.1,flaky=0.2,hang_s=60"
    try:
        chaotic_engine = SweepEngine(jobs=2, task_timeout=3.0, max_attempts=3)
        t0 = time.perf_counter()
        chaotic = chaotic_engine.evaluate_many(reqs)
        t_chaos = time.perf_counter() - t0
    finally:
        os.environ.pop(CHAOS_ENV, None)
    cs = chaotic_engine.stats

    # -- interrupted sweep resumed from its record log -------------------
    cache_dir = tmp_path / "sweep-cache"
    interrupted = SweepEngine(jobs=2, cache_dir=cache_dir)
    interrupted.evaluate_many(reqs[: len(reqs) // 2])
    interrupted.cache.close()
    resumed = SweepEngine(jobs=2, cache_dir=cache_dir)
    t0 = time.perf_counter()
    resumed_out = resumed.evaluate_many(reqs)
    t_resume = time.perf_counter() - t0

    print(
        f"\n{len(reqs)} cells: raw pool {t_pool:.3f}s, supervised clean "
        f"{t_clean:.3f}s (overhead {overhead * 100:+.1f}%), chaos "
        f"{t_chaos:.3f}s ({cs.crashes} crashes, {cs.timeouts} timeouts, "
        f"{cs.worker_exceptions} exceptions, {cs.retries} retries, "
        f"{cs.workers_respawned} respawns), resume {t_resume:.3f}s"
    )

    doc = {
        "cells": len(reqs),
        "pool_wall_clock_s": t_pool,
        "supervised_wall_clock_s": t_clean,
        "supervised_overhead": overhead,
        "max_overhead_gate": MAX_OVERHEAD,
        "chaos_wall_clock_s": t_chaos,
        "chaos_recovery_overhead": t_chaos / t_clean - 1.0,
        "chaos_stats": cs.to_jsonable(),
        "resume_wall_clock_s": t_resume,
        "resume_evaluated": resumed.stats.evaluated,
        "resume_journal_replayed": resumed.stats.journal_replayed,
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    checks = [
        check(
            "supervised clean run bitwise-identical to raw pool",
            clean == baseline,
            f"{len(reqs)} cells compared",
        ),
        check(
            f"supervised overhead on a clean sweep <= {MAX_OVERHEAD:.0%}",
            overhead <= MAX_OVERHEAD,
            f"overhead {overhead * 100:+.1f}% "
            f"({t_clean:.3f}s vs {t_pool:.3f}s)",
        ),
        check(
            "chaos run recovered bitwise-identically, zero quarantines",
            chaotic == baseline and not chaotic_engine.failures,
            f"{cs.retries} retries, {cs.quarantined} quarantined",
        ),
        check(
            "chaos run actually exercised recovery paths",
            cs.crashes + cs.timeouts + cs.worker_exceptions > 0,
            f"{cs.crashes} crashes, {cs.timeouts} timeouts, "
            f"{cs.worker_exceptions} exceptions",
        ),
        check(
            "resumed sweep re-evaluated only incomplete keys, matched bitwise",
            resumed_out == baseline
            and resumed.stats.cache_hits == resumed.stats.journal_replayed
            and resumed.stats.evaluated + resumed.stats.pruned
            == len(reqs) - resumed.stats.journal_replayed,
            f"evaluated {resumed.stats.evaluated} (+{resumed.stats.pruned} "
            f"pruned) of {len(reqs)}, replayed {resumed.stats.journal_replayed}",
        ),
        check(
            "BENCH_robustness.json written with recovery counters",
            BENCH_JSON.exists()
            and {"supervised_overhead", "chaos_stats", "resume_evaluated"}
            <= set(json.loads(BENCH_JSON.read_text())),
            str(BENCH_JSON),
        ),
    ]
    print_checks(checks)
    assert_checks(checks)
