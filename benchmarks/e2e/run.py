"""Layered end-to-end benchmark of the placement pipeline.

Three ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload: repeats its job for S seconds, checks every
    output, prints each metric with its unit and, as the last line, one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
    the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``, which also writes ``<trace-dir>/NAME.trace.json``).

``python3 benchmarks/e2e/run.py [--runs R] [--out FILE]``
    Every workload: R untraced runs (seeds N..N+R-1) and one traced run
    each, plus one run of ``advise_warm`` ending with its open-loop rate
    steps; writes medians, quartiles, the ``layers`` table,
    ``trace_overhead`` and the rate steps to FILE (default
    ``benchmarks/e2e/BENCH_e2e.json``).

``python3 benchmarks/e2e/run.py --compare A.json B.json``
    Medians, quartiles and a verdict under the ``BENCHMARK.json`` bounds
    for every (end-to-end metric, workload) pair of two such files.

Exits non-zero on any incorrect output (or, with ``--compare``, on any
regression).  Workloads, metrics, units and bounds live in
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import jobs
import measure

BENCHMARK = jobs.ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(jobs.WORKLOADS):
        raise SystemExit(
            f"BENCHMARK.json workloads {names} do not match run.py's "
            f"{sorted(jobs.WORKLOADS)}"
        )
    return spec


def metric_values(spec: dict, doc: dict, traced: bool) -> dict:
    """The final-line ``metrics`` object of one run."""
    out = {}
    if not traced:
        for m in spec["end_to_end"]:
            if m["name"] in doc["metrics"]:
                out[m["name"]] = {"value": doc["metrics"][m["name"]], "unit": m["unit"]}
        return out
    layers = doc["traced"]["layers"]
    for m in spec["per_layer"]:
        name = m["name"]
        layer, _, field = name.rpartition(".")
        if layer in layers and field in ("self_pct", "calls"):
            value = layers[layer][field]
        else:
            value = doc["counters"].get(name, 0.0)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def print_run(spec: dict, doc: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    w = doc["workload"]
    print(
        f"# {w}: seed {doc['seed']}, {doc['jobs']} job(s), "
        f"{doc['setup_samples']} set-up sample(s), {doc['attempted']} operation(s), "
        f"{doc['failed']} failed"
    )
    info = doc["info"]
    how = {
        "wall_s": f"median of {doc['jobs']} jobs on the reference host; "
                  f"as timed {info.get('wall_median_s', 0):.6g} s, "
                  f"probe {info.get('probe_median_s', 0) * 1e3:.4g} ms, "
                  f"stolen {info.get('stolen_median', 0):.1%}",
        "setup_s": f"median of {doc['setup_samples']} process starts on the reference host; "
                   f"as timed {info.get('setup_median_s', 0):.6g} s",
        "peak_rss_mb": f"median of the first {min(doc['jobs'], jobs.MIN_JOBS)} jobs",
    }
    for name, value in doc["metrics"].items():
        print(f"{w:12s} {name:14s} {value:12.6g} {units.get(name, '')}  ({how[name]})")
    lat = info.get("latency")
    if lat:
        tail = (
            f", p{lat['tail_p']:g} {lat['tail_ms']:.3f} ms" if lat["tail_p"] else ""
        )
        print(f"{w:12s} query latency  p50 {lat['p50_ms']:.3f} ms{tail} ({lat['samples']} queries)")
    for step in info.get("steps", ()):
        print(
            f"{w:12s} open loop {step['rate']:6g} qps: {step['n']} requests, "
            f"p50 {step['p50_ms']:.2f} ms, p99 {step['p99_ms']:.2f} ms, "
            f"lateness p99 {step['lateness_p99_ms']:.2f} ms, "
            f"{step['failed']} missed, {'pass' if step['passed'] else 'FAIL'}"
            f"{'' if step['valid'] else ' (invalid: generator late)'}"
        )
    if "max_qps" in info:
        limit = f"p{measure.LIMIT_PERCENTILE:g} <= {measure.LATENCY_LIMIT_MS:g} ms"
        qps = info["max_qps"]
        print(f"{w:12s} max_qps        {'invalid' if qps is None else f'{qps:g} 1/s'} ({limit})")
    traced = doc.get("traced")
    if traced:
        print(f"{w:12s} layer breakdown (per job; trace {traced['trace_file']}):")
        for layer, row in traced["layers"].items():
            if row["calls"] or row["self_s"]:
                print(
                    f"    {layer:16s} self {row['self_s']:9.4f} s {row['self_pct']:6.2f} %"
                    f"  calls {row['calls']:10.1f}"
                )
        if traced["selftime_coverage"]:
            lo, hi = traced["selftime_coverage"]
            print(f"    main-thread self time / process wall: {lo:.3f} .. {hi:.3f}")
    for err in doc["errors"]:
        print(f"!! {w}: {err}")
    for warning in doc["warnings"]:
        print(f"!! {w} (warning): {warning}")


def one_run(args, spec: dict) -> int:
    trace_file = Path(args.trace_dir) / f"{args.workload}.trace.json"
    doc = jobs.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), trace_file)
    print_run(spec, doc)
    correct = doc["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": metric_values(spec, doc, bool(args.trace)),
            }
        )
    )
    return 0 if correct else 1


def host_info() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def suite(args, spec: dict) -> int:
    out = {
        "schema": 1,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": host_info(),
        "run_seconds": args.seconds,
        "runs_per_workload": args.runs,
        "workloads": {},
    }
    all_correct = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for r in range(args.runs):
            doc = jobs.run_workload(name, args.seed + r, args.seconds, False, Path())
            print_run(spec, doc)
            runs.append(doc)
        traced = jobs.run_workload(
            name, args.seed, args.seconds, True, Path(args.trace_dir) / f"{name}.trace.json"
        )
        print_run(spec, traced)
        entry = {
            "why": w["why"],
            "runs": [
                {k: d[k] for k in ("seed", "jobs", "setup_samples", "attempted", "failed",
                                   "metrics", "info")}
                for d in runs
            ],
            "metrics": {},
            "fail_frac": sum(d["failed"] for d in runs) / sum(d["attempted"] for d in runs),
            "layers": traced["traced"]["layers"],
            "counters": {
                **traced["counters"],
                "dispatch.s_per_task": traced["traced"]["dispatch.s_per_task"],
            },
            "selftime_coverage": traced["traced"]["selftime_coverage"],
            "traced_wall_s": traced["metrics"].get("wall_s"),
        }
        for m in spec["end_to_end"]:
            values = [d["metrics"][m["name"]] for d in runs if m["name"] in d["metrics"]]
            if values:
                q1, med, q3 = measure.quartiles(values)
                entry["metrics"][m["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                    "runs": len(values),
                }
        wall = entry["metrics"].get("wall_s", {}).get("median")
        if wall and entry["traced_wall_s"]:
            entry["trace_overhead"] = entry["traced_wall_s"] / wall - 1.0
        checked = [*runs, traced]
        if jobs.WORKLOADS[name]().has_steps:
            stepped = jobs.run_workload(name, args.seed, args.seconds, False, Path(), steps=True)
            print_run(spec, stepped)
            entry["open_loop"] = {k: stepped["info"].get(k) for k in ("steps", "max_qps")}
            checked.append(stepped)
        out["workloads"][name] = entry
        all_correct &= all(d["failed"] == 0 for d in checked)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {args.out}")
    print_summary(spec, out)
    return 0 if all_correct else 1


def print_summary(spec: dict, out: dict) -> None:
    print(f"\n{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit")
    for name, entry in out["workloads"].items():
        for m in spec["end_to_end"]:
            row = entry["metrics"].get(m["name"])
            if row:
                print(
                    f"{name:12s} {m['name']:12s} {row['median']:12.6g} {row['q1']:12.6g} "
                    f"{row['q3']:12.6g}  {m['unit']} ({row['runs']} runs)"
                )
        if "trace_overhead" in entry:
            print(f"{name:12s} trace_overhead {entry['trace_overhead']:+.3f}")


def compare(paths: list[str], spec: dict) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    regressed = False
    for m in spec["end_to_end"]:
        print(
            f"\n{m['name']} ({m['unit']}, {m['better']} is better, bound "
            f"{m['bound']:.0%})"
        )
        print(
            f"  {'workload':12s} {'A median':>11s} {'A q1..q3':>23s} "
            f"{'B median':>11s} {'B q1..q3':>23s} {'change':>8s}  verdict"
        )
        for w in spec["workloads"]:
            name = w["name"]
            va, vb = (
                [r["metrics"][m["name"]] for r in doc["workloads"].get(name, {}).get("runs", ())
                 if m["name"] in r["metrics"]]
                for doc in (a, b)
            )
            if not va or not vb:
                print(f"  {name:12s} (missing)")
                continue
            qa, qb = measure.quartiles(va), measure.quartiles(vb)
            change = qb[1] / qa[1] - 1.0
            v = measure.verdict(va, vb, m["bound"], m["better"])
            regressed |= v == "regressed"
            print(
                f"  {name:12s} {qa[1]:11.5g} {qa[0]:11.5g}..{qa[2]:<11.5g} "
                f"{qb[1]:11.5g} {qb[0]:11.5g}..{qb[2]:<11.5g} {change:+8.1%}  {v}"
            )
    return 1 if regressed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None, help="run one workload once")
    p.add_argument("--seed", type=int, default=0, help="seed of the query generators")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--trace-dir", default=str(jobs.HERE / "traces"),
                   help="where traced runs write <workload>.trace.json")
    p.add_argument("--runs", type=int, default=3, help="untraced runs per workload (suite)")
    p.add_argument("--out", default=str(jobs.HERE / "BENCH_e2e.json"),
                   help="suite result file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two suite result files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(args.compare, json.loads(BENCHMARK.read_text()))
    jobs.check_checkout()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None:
        if args.workload not in jobs.WORKLOADS:
            p.error(f"unknown workload {args.workload!r} (choose from {sorted(jobs.WORKLOADS)})")
        return one_run(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
