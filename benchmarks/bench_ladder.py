"""Acceptance benchmark for the multi-fidelity sweep ladder.

Searches a 5040-order space (a depth-7 binary hierarchy, every mixed-radix
process order, 128-rank alltoall) with the error-calibrated fidelity
ladder -- free analytic metric -> batched ``logp`` -> full-fidelity
``round`` under successive halving -- and with the exhaustive sweep the
ladder replaces (both on worker-less engines, so every engine rung and
the exhaustive grid run as in-process vectorized passes), and asserts
the tentpole's contract:

- the ladder is ``>= LADDER_BENCH_MIN_SPEEDUP`` times faster than the
  full-fidelity sweep of the same space (default 4x locally; CI exports
  2.5 to absorb shared-runner noise);
- the final top-k records are **byte-identical CSV** to the exhaustive
  sweep's top-k -- every survivor was scored at full fidelity with the
  same content keys, so elimination never buys a different answer;
- every calibrated rung's probe Kendall tau is ``>= MIN_TAU`` (0.9, the
  regime BENCH_ir.json established for ``logp`` as a screener), i.e. the
  speedup came from rungs the calibration pass actually validated;
- the run emits the machine-readable ``BENCH_ladder.json`` artifact with
  per-rung survivor counts, taus, walls, the speedup, and the verdicts.

The order space (p = 5040 candidates) is the regime the ladder exists
for: large enough that full fidelity everywhere is the bottleneck, small
enough that the exhaustive reference side stays benchmarkable.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.bench.report import assert_checks, check, print_checks
from repro.bench.sweeps import ladder_sweep, sweep, to_csv, top_k_records
from repro.core.hierarchy import Hierarchy
from repro.engine import SweepEngine
from repro.topology.machines import generic_cluster

#: Where CI picks the perf artifact up (repo root; see .github/workflows).
BENCH_JSON = Path("BENCH_ladder.json")

#: Required ladder-over-exhaustive speedup; CI lowers this to 2.5 via the
#: environment.
MIN_SPEEDUP = float(os.environ.get("LADDER_BENCH_MIN_SPEEDUP", "4.0"))

#: Calibration floor every probed rung must clear for the speedup to count.
MIN_TAU = 0.9

#: Depth-7 binary hierarchy: 7! = 5040 orders, 128 cores, full-machine
#: communicator (the regime where the analytic metric rung is sharpest).
RADICES = (2,) * 7
NAMES = tuple(f"l{i}" for i in range(len(RADICES)))
COMM_SIZE = 128
SIZES = (1e6,)
TOP_K = 10
ETA = 8.0
PROBE = 16


def _machine():
    return (
        generic_cluster(RADICES, names=NAMES),
        Hierarchy(RADICES, names=NAMES),
    )


def test_ladder_speedup_and_topk_identity(once):
    def measure():
        topo, h = _machine()
        t0 = time.perf_counter()
        records, result = ladder_sweep(
            topo, h, [COMM_SIZE], sizes=SIZES, engine=SweepEngine(),
            backend="round", top_k=TOP_K, eta=ETA, probe=PROBE,
        )
        t_ladder = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = sweep(
            topo, h, [COMM_SIZE], sizes=SIZES, engine=SweepEngine(),
            backend="round",
        )
        t_full = time.perf_counter() - t0
        return records, result, t_ladder, full, t_full

    records, result, t_ladder, full, t_full = once(measure)
    speedup = t_full / t_ladder
    ladder_csv = to_csv(records)
    full_csv = to_csv(top_k_records(full, TOP_K))
    taus = [r.tau for r in result.rungs if r.tau is not None]
    n_orders = result.rungs[0].n_candidates

    print(
        f"\ndepth-7 order space ({n_orders} orders, {COMM_SIZE}-rank "
        f"alltoall, round fidelity): ladder {t_ladder:.1f}s "
        f"({result.n_requests} engine requests), exhaustive {t_full:.1f}s "
        f"({len(full)} requests) -> {speedup:.1f}x"
    )
    for rung in result.rungs:
        tau = "-" if rung.tau is None else f"{rung.tau:.3f}"
        print(
            f"  {rung.rung:>6}: {rung.n_candidates:>5} -> "
            f"{rung.n_promoted:>4} promoted, tau {tau}, "
            f"{rung.wall_s:.2f}s"
        )

    doc = {
        "suite": (
            f"depth-7 binary hierarchy, {n_orders} orders, "
            f"{COMM_SIZE}-rank alltoall, round final fidelity"
        ),
        "n_orders": n_orders,
        "eta": ETA,
        "top_k": TOP_K,
        "probe": PROBE,
        "walls": {"ladder_s": t_ladder, "exhaustive_s": t_full},
        "speedup": speedup,
        "min_speedup_required": MIN_SPEEDUP,
        "n_requests": {"ladder": result.n_requests, "exhaustive": len(full)},
        "rungs": [r.to_jsonable() for r in result.rungs],
        "min_tau": result.min_tau,
        "min_tau_required": MIN_TAU,
        "topk_identical": ladder_csv == full_csv,
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    checks = [
        check(
            "order space has >= 1024 candidates",
            n_orders >= 1024,
            f"{n_orders} orders",
        ),
        check(
            "ladder top-k CSV byte-identical to the exhaustive sweep",
            ladder_csv == full_csv,
            f"top {TOP_K} of {n_orders} orders",
        ),
        check(
            f"every calibrated rung's probe tau >= {MIN_TAU:g}",
            bool(taus) and min(taus) >= MIN_TAU,
            ", ".join(f"{t:.3f}" for t in taus) or "no probed rungs",
        ),
        check(
            "no rung was widened (calibration trusted every promotion)",
            not any(r.widened for r in result.rungs),
            f"{len(result.rungs)} rungs",
        ),
        check(
            f"ladder >= {MIN_SPEEDUP:g}x faster than the exhaustive sweep",
            speedup >= MIN_SPEEDUP,
            f"exhaustive {t_full:.1f}s / ladder {t_ladder:.1f}s = "
            f"{speedup:.1f}x",
        ),
        check(
            "BENCH_ladder.json written with rungs, walls, speedup, verdicts",
            BENCH_JSON.exists()
            and {"walls", "speedup", "rungs", "min_tau", "topk_identical"}
            <= set(json.loads(BENCH_JSON.read_text())),
            str(BENCH_JSON),
        ),
    ]
    print_checks(checks)
    assert_checks(checks)
