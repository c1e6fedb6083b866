"""Command-line interface (``repro-mrd``).

Operational front-end for the two use cases of Section 3:

- ``orders``       enumerate / characterize orders for a hierarchy
- ``reorder``      reorder a rank (or print the full permutation)
- ``rankfile``     emit an OpenMPI rankfile realizing an order
- ``map-cpu``      emit a ``--cpu-bind=map_cpu`` list (Algorithm 3)
- ``distributions`` list the Slurm-expressible orders and their gaps
- ``classes``      equivalence classes of orders for a communicator size
- ``show``         draw an enumeration as an ASCII grid (Figure 2 style)
- ``advise``       rank orders by predicted collective performance on a
  simulated machine (``hydra``/``lumi`` presets or a generic model)
- ``sweep``        memoized, parallel parameter sweep over orders /
  communicator sizes / collectives / data sizes (``--jobs``/``--workers``,
  ``--cache-dir``, ``--no-prune``, ``--bench-json``) with CSV output;
  ``--ladder`` switches to the error-calibrated multi-fidelity search
  and ``--listen`` also dispatches evaluations to remote workers
- ``worker``       serve evaluations to a ``sweep --listen`` dispatcher
  (``--connect HOST:PORT``), locally or from another host
- ``backends``     the execution-backend registry: ``list`` prints every
  registered backend with its capability flags
- ``workloads``    the workload-frontend registry: ``list`` prints every
  registered workload with its parameter schema; ``sweep``/``advise``
  take ``--workload NAME`` (+ ``--param k=v`` or the dnn shorthand
  flags ``--dp/--tp/--pp/...``) to score a lowered workload instead of
  a bare collective
- ``verify``       conformance checks: ``fuzz`` (seeded campaigns with
  shrinking), ``semantic`` (symbolic schedule checks), ``differential``
  (round model vs DES on the seed benchmarks)

``advise``, ``sweep`` and ``verify differential`` take ``--backend
round|des|logp`` to pick the execution backend behind the predictions.

Hierarchies are given as hwloc-style synthetic strings
(``node:16 socket:2 core:8``), bare counts or the paper's bracket
notation; orders as ``3-1-0-2``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.coreselect import map_cpu_list
from repro.core.equivalence import equivalence_classes
from repro.core.metrics import signature
from repro.core.mixed_radix import MixedRadix
from repro.core.orders import all_orders, format_order, parse_order
from repro.core.reorder import reorder_ranks
from repro.launcher.rankfile import rankfile_for_order
from repro.launcher.slurm import expressible_distributions
from repro.topology.hwloc import parse_synthetic


def _add_hierarchy_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--hierarchy",
        "-H",
        required=True,
        help='hierarchy description, e.g. "node:2 socket:2 core:4" or "[[2,2,4]]"',
    )


def _add_backend_arg(p: argparse.ArgumentParser, default: str = "round") -> None:
    from repro.ir import backend_names

    p.add_argument(
        "--backend", default=default, choices=list(backend_names()),
        help="execution backend behind every simulated point "
        f"(default: {default})",
    )


def _cmd_orders(args: argparse.Namespace) -> int:
    h = parse_synthetic(args.hierarchy)
    comm_size = args.comm_size or h.size
    for order in all_orders(h.depth):
        sig = signature(h, order, comm_size)
        print(sig.legend())
    return 0


def _cmd_reorder(args: argparse.Namespace) -> int:
    h = parse_synthetic(args.hierarchy)
    order = parse_order(args.order)
    if args.rank is not None:
        mr = MixedRadix(h)
        coords = mr.decompose(args.rank)
        print(f"rank {args.rank} coords {list(coords)} -> {mr.reorder(args.rank, order)}")
    else:
        new = reorder_ranks(h, order)
        for r, n in enumerate(new):
            print(f"{r} -> {n}")
    return 0


def _cmd_rankfile(args: argparse.Namespace) -> int:
    h = parse_synthetic(args.hierarchy)
    order = parse_order(args.order)
    sys.stdout.write(rankfile_for_order(h, order))
    return 0


def _cmd_map_cpu(args: argparse.Namespace) -> int:
    h = parse_synthetic(args.hierarchy)
    order = parse_order(args.order)
    cores = map_cpu_list(h, order, args.n)
    print("map_cpu:" + ",".join(str(c) for c in cores))
    return 0


def _cmd_distributions(args: argparse.Namespace) -> int:
    h = parse_synthetic(args.hierarchy)
    expressible = expressible_distributions(h)
    by_order = {}
    for dist, order in expressible.items():
        by_order.setdefault(order, []).append(dist)
    print(f"hierarchy {h}: {len(all_orders(h.depth))} orders, "
          f"{len(by_order)} expressible with --distribution")
    for order in all_orders(h.depth):
        dists = by_order.get(order)
        label = " | ".join(dists) if dists else "(mixed-radix only)"
        print(f"  {format_order(order)}  {label}")
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    h = parse_synthetic(args.hierarchy)
    comm_size = args.comm_size or h.size
    classes = equivalence_classes(h, comm_size)
    print(
        f"{len(all_orders(h.depth))} orders -> {len(classes)} equivalence "
        f"classes (comm size {comm_size})"
    )
    for sigs in classes.values():
        members = ", ".join(format_order(s.order) for s in sigs)
        rep = sigs[0]
        pcts = ",".join(f"{p:.1f}" for p in rep.pair_percentages)
        print(f"  ring={rep.ring_cost:<5} pairs=({pcts}): {members}")
    return 0


def _machine_topology(machine: str, h):
    from repro.topology.machines import generic_cluster, hydra, lumi

    if machine == "hydra":
        topology = hydra(h.radices[0])
    elif machine == "lumi":
        topology = lumi(h.radices[0])
    else:
        topology = generic_cluster(h.radices, h.names)
    if topology.hierarchy.radices != h.radices:
        raise SystemExit(
            f"hierarchy {h} does not match the {machine} preset "
            f"{topology.hierarchy}"
        )
    return topology


def _parse_endpoint(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"bad port in {spec!r}") from None


def _sweep_dispatcher(args: argparse.Namespace, engine):
    """A supervisor that accepts remote workers, or None without ``--listen``."""
    if not args.listen:
        return None
    from repro.engine import TaskSupervisor

    dispatcher = TaskSupervisor(
        jobs=args.jobs,
        policy=engine.retry_policy,
        listen=_parse_endpoint(args.listen),
        min_workers=args.min_workers,
        worker_wait=args.worker_wait,
    )
    host, port = dispatcher.address
    local = args.jobs if args.jobs > 1 else 0
    print(
        f"# dispatcher listening on {host}:{port} ({local} local "
        f"worker(s); connect more with "
        f"'repro-mrd worker --connect {host}:{port}')",
        file=sys.stderr,
    )
    return dispatcher


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweeps import (
        ladder_sweep,
        sweep,
        to_csv,
        top_k_records,
        workload_ladder_sweep,
        workload_sweep,
    )
    from repro.engine import SweepEngine
    from repro.engine.fidelity import LadderConfigError
    from repro.workloads import WorkloadError

    h = parse_synthetic(args.hierarchy)
    topology = _machine_topology(args.machine, h)
    if args.workload is None:
        if not args.comm_sizes:
            raise SystemExit(
                "--comm-sizes is required (or name a --workload instead)"
            )
        try:
            grid = dict(
                comm_sizes=[int(s) for s in args.comm_sizes.split(",")],
                collectives=tuple((args.collectives or "alltoall").split(",")),
                sizes=[float(s) for s in (args.sizes or "1e6,64e6").split(",")],
                algorithm=args.algorithm,
            )
        except ValueError as err:
            raise SystemExit(f"bad --comm-sizes or --sizes: {err}") from None
        sweep_fn, ladder_fn = sweep, ladder_sweep
    else:
        workload, params = _workload_query(
            args, "comm_sizes", ("collectives", "sizes", "algorithm")
        )
        grid = dict(workload=workload, params=params)
        sweep_fn, ladder_fn = workload_sweep, workload_ladder_sweep
    orders = (
        [parse_order(o) for o in args.orders.split(",")] if args.orders else None
    )
    if args.resume and not args.cache_dir:
        raise SystemExit("--resume requires --cache-dir (the journal lives there)")
    if args.top_k is not None and args.top_k < 1:
        raise SystemExit("--top-k must be >= 1")
    try:
        engine = SweepEngine(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            prune=not args.no_prune,
            task_timeout=args.task_timeout,
            max_attempts=args.max_attempts,
        )
    except ValueError as err:
        raise SystemExit(
            f"invalid --jobs, --max-attempts or --task-timeout: {err}"
        ) from None
    engine.dispatcher = _sweep_dispatcher(args, engine)
    if args.resume:
        print(
            f"# resume: {engine.stats.journal_replayed} completed key(s) "
            f"journaled, {engine.stats.tmp_files_removed} stale tmp file(s) "
            "removed; only incomplete keys will be evaluated",
            file=sys.stderr,
        )
    ladder_extra = {}
    top_k = args.top_k if args.top_k is not None else 10
    try:
        if args.ladder:
            records, result = ladder_fn(
                topology,
                h,
                **grid,
                orders=orders,
                engine=engine,
                backend=args.backend,
                scenario=args.scenario,
                rungs=tuple(args.rungs.split(",")) if args.rungs else None,
                eta=args.eta,
                top_k=top_k,
                probe=args.probe,
                tau_floor=args.tau_floor,
                seed=args.seed,
                exhaustive_audit=args.exhaustive_audit,
            )
        else:
            records = sweep_fn(
                topology,
                h,
                **grid,
                orders=orders,
                engine=engine,
                backend=args.backend,
            )
            if args.top_k is not None:
                records = top_k_records(records, top_k, args.scenario)
    except (WorkloadError, LadderConfigError) as err:  # raised pre-evaluation
        raise SystemExit(str(err)) from None
    finally:
        if engine.dispatcher is not None:
            engine.dispatcher.close()
    if args.ladder:
        ladder_extra = {"ladder": result.to_jsonable()}
        for rung in result.rungs:
            tau = "-" if rung.tau is None else f"{rung.tau:.3f}"
            widened = " (widened)" if rung.widened else ""
            tied = " (all tied)" if rung.n_distinct == 1 else ""
            print(
                f"# ladder {rung.rung}: {rung.n_candidates} -> "
                f"{rung.n_promoted} promoted, tau={tau}{widened}, "
                f"{rung.n_requests} request(s), {rung.wall_s:.2f}s{tied}",
                file=sys.stderr,
            )
        if result.audit:
            print(
                f"# exhaustive audit: top-{result.audit['checked_top_k']} "
                f"agrees across {result.audit['n_candidates']} candidates",
                file=sys.stderr,
            )
    sys.stdout.write(to_csv(records))
    if args.bench_json:
        doc = engine.write_bench_json(
            args.bench_json, extra={"records": len(records), **ladder_extra}
        )
        print(
            f"# wrote {args.bench_json}: {doc['requests']} requests, "
            f"{doc['evaluated']} evaluated, "
            f"{doc['pruned_evaluations_saved']} pruned, "
            f"hit rate {doc['cache_hit_rate']:.2f}",
            file=sys.stderr,
        )
    s = engine.stats
    if s.retries or s.cache_quarantined or s.degraded_serial:
        print(
            f"# recovered: {s.retries} retried attempt(s) "
            f"({s.crashes} crash, {s.timeouts} timeout, "
            f"{s.worker_exceptions} exception), "
            f"{s.cache_quarantined} corrupt cache record(s) quarantined"
            + (", pool died -> finished serially" if s.degraded_serial else ""),
            file=sys.stderr,
        )
    if engine.failures:
        print(f"# {engine.failure_summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.core.visualize import render_enumeration

    h = parse_synthetic(args.hierarchy)
    order = parse_order(args.order)
    print(render_enumeration(h, order, comm_size=args.comm_size))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import advise
    from repro.workloads import WorkloadError, workload_cell

    h = parse_synthetic(args.hierarchy)
    topology = _machine_topology(args.machine, h)
    try:
        if args.workload is None:
            if args.comm_size is None:
                raise SystemExit(
                    "--comm-size is required (or name a --workload instead)"
                )
            query = dict(comm_size=args.comm_size, collective=args.collective)
        else:
            workload, params = _workload_query(args, "comm_size", ("collective",))
            query = dict(cells=(workload_cell(workload, params),))
        advice = advise(
            topology,
            h,
            **query,
            scenario=args.scenario,
            backend=args.backend,
            ladder=args.ladder,
        )
    except WorkloadError as err:
        raise SystemExit(str(err)) from None
    print(advice.report())
    return 0


def _cmd_workloads_list(args: argparse.Namespace) -> int:
    from repro.workloads import REQUIRED, describe_workloads

    rows = []
    for name, wl in describe_workloads():
        params = ", ".join(
            p.name if p.default is REQUIRED else f"{p.name}={p.default!r}"
            for p in wl.params
        )
        rows.append((name, params or "-", wl.description))
    header = ("workload", "parameters", "description")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(3)]
    for row in (header, *rows):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """``--workload`` + parameter flags shared by ``sweep`` and ``advise``."""
    p.add_argument(
        "--workload", default=None, metavar="NAME",
        help="score a registered workload frontend instead of a bare "
        "collective ('repro-mrd workloads list' prints the registry); "
        "the lowered program defines the communicator size",
    )
    p.add_argument(
        "--param", action="append", default=None, metavar="NAME=VALUE",
        help="one workload parameter (repeatable); VALUE is parsed as "
        "JSON, falling back to a plain string",
    )
    for flag, kind, doc in (
        ("--dp", int, "dnn: data-parallel degree"),
        ("--tp", int, "dnn: tensor-parallel degree"),
        ("--pp", int, "dnn: pipeline-parallel degree"),
        ("--layers", int, "dnn: transformer layers (default: pp)"),
        ("--hidden", int, "dnn: hidden dimension"),
        ("--seq", int, "dnn: sequence length (tokens per microbatch)"),
        ("--microbatches", int, "dnn: pipeline microbatches (default: pp)"),
        ("--grad-sync", str, "dnn: gradient sync mode (allreduce|rs_ag)"),
    ):
        p.add_argument(flag, type=kind, default=None, help=doc)


def _workload_query(
    args: argparse.Namespace, comm_flag: str, conflicts: Sequence[str]
):
    """``(workload, params)`` from the ``--workload`` flags.

    The communicator-size flag ``comm_flag`` and the collective-only
    flags named in ``conflicts`` are refused (the latter as the service
    refuses the matching ``/advise`` fields): the lowered workload
    defines the communicator size and traffic volume.
    """
    import json

    from repro.workloads import workload_names

    workload = args.workload
    if workload not in workload_names():
        raise SystemExit(
            f"unknown workload {workload!r} "
            f"(registered: {', '.join(workload_names())})"
        )
    if getattr(args, comm_flag) is not None:
        raise SystemExit(
            f"--{comm_flag.replace('_', '-')} conflicts with --workload: the "
            "lowered workload defines the communicator size"
        )
    named = sorted(
        "--" + name.replace("_", "-")
        for name in conflicts
        if getattr(args, name) is not None
    )
    if named:
        raise SystemExit(
            f"workload queries must not name {named}: the lowered "
            "workload defines the communicator size and traffic volume"
        )
    params: dict = {}
    for spec in args.param or ():
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise SystemExit(f"--param expects NAME=VALUE, got {spec!r}")
        try:
            params[name] = json.loads(value)
        except json.JSONDecodeError:
            params[name] = value
    for flag in (
        "dp", "tp", "pp", "layers", "hidden", "seq", "microbatches",
        "grad_sync",
    ):
        value = getattr(args, flag, None)
        if value is not None:
            params[flag] = value
    return workload, params


def _cmd_backends_list(args: argparse.Namespace) -> int:
    from repro.ir import describe_backends

    rows = [
        (
            name,
            "yes" if caps.faults else "no",
            "yes" if caps.per_flow_contention else "no",
            caps.tolerance,
        )
        for name, caps in describe_backends()
    ]
    header = ("backend", "faults", "per-flow contention", "tolerance")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    for row in (header, *rows):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def _cmd_verify_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import ALL_CHECKS, run_campaign

    checks = tuple(args.checks.split(",")) if args.checks else ALL_CHECKS
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise SystemExit(
            f"unknown check(s) {sorted(unknown)}; choose from {','.join(ALL_CHECKS)}"
        )
    report = run_campaign(
        n_cases=args.cases,
        seed=args.seed,
        checks=checks,
        tolerance=args.tolerance,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_verify_semantic(args: argparse.Namespace) -> int:
    from repro.verify import check_algorithm, checkable_algorithms

    sizes = [int(s) for s in args.sizes.split(",")]
    failures = 0
    for p in sizes:
        for collective, algorithm in checkable_algorithms(p):
            rep = check_algorithm(collective, algorithm, p, args.bytes)
            status = "ok" if rep.ok else "FAIL"
            print(f"  p={p:<4} {collective}/{algorithm:<22} {status}")
            if not rep.ok:
                failures += 1
                for f in rep.failures[:4]:
                    print(f"    {f}")
    print(f"semantic: {failures} failing schedule(s) across p in {sizes}")
    return 0 if failures == 0 else 1


def _cmd_verify_differential(args: argparse.Namespace) -> int:
    from repro.topology.machines import generic_cluster, hydra, lumi
    from repro.verify import seed_benchmark_suite

    topology = None
    if args.machine == "hydra":
        topology = hydra(2)
    elif args.machine == "lumi":
        topology = lumi(2)
    elif args.machine == "generic":
        topology = generic_cluster((2, 2, 4), names=("node", "socket", "core"))
    report = seed_benchmark_suite(
        topology, tolerance=args.tolerance, total_bytes=args.bytes,
        incremental=not args.no_incremental, audit=args.no_incremental,
        backend=args.backend,
    )
    print(report.summary())
    if args.no_incremental:
        print(
            "audit: incremental kernel cross-checked against from-scratch "
            "max-min rates on every recompute (rtol 1e-12) -- no divergence"
        )
    return 0 if report.ok else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.supervisor import run_worker

    host, port = _parse_endpoint(args.connect)
    return run_worker(host, port, connect_timeout=args.connect_timeout)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import build_service, default_specs, run_server

    prewarm = ()
    if args.prewarm and args.prewarm.lower() != "none":
        machines = [m.strip() for m in args.prewarm.split(",") if m.strip()]
        try:
            prewarm = default_specs(machines)
        except ValueError as err:
            raise SystemExit(str(err)) from None
        if args.prewarm_ladder:
            import dataclasses

            prewarm = tuple(
                dataclasses.replace(s, ladder=True) for s in prewarm
            )
    service = build_service(
        backend=args.backend,
        cache_dir=args.cache_dir,
        lru_size=args.lru_size,
    )
    run_server(
        service,
        host=args.host,
        port=args.port,
        prewarm=prewarm,
        prewarm_idle_s=args.prewarm_idle,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mrd",
        description="Mixed-radix enumeration of hierarchical compute resources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orders", help="enumerate and characterize all orders")
    _add_hierarchy_arg(p)
    p.add_argument("--comm-size", type=int, default=None)
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("reorder", help="apply an order to ranks")
    _add_hierarchy_arg(p)
    p.add_argument("--order", "-o", required=True, help='e.g. "3-1-0-2"')
    p.add_argument("--rank", type=int, default=None, help="single rank (else all)")
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser("rankfile", help="emit an OpenMPI rankfile for an order")
    _add_hierarchy_arg(p)
    p.add_argument("--order", "-o", required=True)
    p.set_defaults(func=_cmd_rankfile)

    p = sub.add_parser("map-cpu", help="emit a --cpu-bind=map_cpu list (Alg. 3)")
    _add_hierarchy_arg(p)
    p.add_argument("--order", "-o", required=True)
    p.add_argument("-n", type=int, required=True, help="cores (processes) per node")
    p.set_defaults(func=_cmd_map_cpu)

    p = sub.add_parser(
        "distributions", help="compare orders against Slurm --distribution"
    )
    _add_hierarchy_arg(p)
    p.set_defaults(func=_cmd_distributions)

    p = sub.add_parser("classes", help="order equivalence classes")
    _add_hierarchy_arg(p)
    p.add_argument("--comm-size", type=int, default=None)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser(
        "show", help="draw an enumeration as an ASCII grid (Figure 2 style)"
    )
    _add_hierarchy_arg(p)
    p.add_argument("--order", "-o", required=True)
    p.add_argument("--comm-size", type=int, default=None)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser(
        "advise", help="rank orders by predicted collective performance"
    )
    _add_hierarchy_arg(p)
    p.add_argument(
        "--comm-size", type=int, default=None,
        help="communicator size (required unless --workload is given)",
    )
    p.add_argument(
        "--collective", default=None,
        choices=["alltoall", "allgather", "allreduce"],
        help="collective to rank orders for (default: alltoall)",
    )
    _add_workload_args(p)
    p.add_argument("--scenario", default="all", choices=["all", "single"])
    p.add_argument(
        "--machine", default="generic", choices=["generic", "hydra", "lumi"],
        help="calibrated preset (level 0 must be the node count) or a "
        "generic gradient model",
    )
    p.add_argument(
        "--ladder", action="store_true",
        help="rank through the multi-fidelity ladder (finalist classes "
        "only) instead of scoring every class at --backend",
    )
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser(
        "sweep",
        help="run a memoized, parallel order sweep and print CSV records",
    )
    _add_hierarchy_arg(p)
    p.add_argument(
        "--machine", default="generic", choices=["generic", "hydra", "lumi"],
        help="calibrated preset (level 0 must be the node count) or a "
        "generic gradient model",
    )
    p.add_argument(
        "--comm-sizes", default=None,
        help="comma-separated communicator sizes, e.g. 16,128 (required "
        "unless --workload is given)",
    )
    p.add_argument(
        "--collectives", default=None,
        help="comma-separated collectives (alltoall,allgather,allreduce; "
        "default: alltoall)",
    )
    _add_workload_args(p)
    p.add_argument(
        "--sizes", default=None,
        help="comma-separated data sizes in bytes (default: 1e6,64e6)",
    )
    p.add_argument(
        "--orders", default=None,
        help='comma-separated orders, e.g. "0-1-2,2-1-0" (default: all)',
    )
    p.add_argument("--algorithm", default=None, help="pin a collective algorithm")
    p.add_argument(
        "--jobs", "-j", "--workers", type=int, default=1, dest="jobs",
        metavar="N",
        help="local worker processes (default 1: none, so round/logp "
        "points are scored in-process as one vectorized pass)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache directory (reused across runs)",
    )
    p.add_argument(
        "--no-prune", action="store_true",
        help="audit mode: evaluate every order even within an equivalence "
        "class and assert the results agree",
    )
    p.add_argument(
        "--bench-json", default=None, metavar="PATH",
        help="write the BENCH_sweep.json engine-statistics artifact",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from the journal in --cache-dir; "
        "only keys not yet journaled as complete are re-evaluated",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any single evaluation exceeding this wall time",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per evaluation before it is quarantined (default: 3)",
    )
    p.add_argument(
        "--scenario", default="all", choices=["all", "single"],
        help="duration column used for ranking (--ladder / --top-k)",
    )
    p.add_argument(
        "--ladder", action="store_true",
        help="multi-fidelity search: rank orders on the error-calibrated "
        "successive-halving ladder instead of sweeping every order at "
        "full fidelity; prints the top-k finalists' records",
    )
    p.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="with --ladder, finalists reported (default: 10); without, "
        "trim the CSV to the K fastest orders (rank-major, byte-"
        "comparable to the ladder's output)",
    )
    p.add_argument(
        "--eta", type=float, default=4.0,
        help="ladder elimination factor per rung; 1 disables elimination "
        "(default: 4)",
    )
    p.add_argument(
        "--rungs", default=None,
        help="comma-separated ladder rungs, cheapest first, e.g. "
        "metric,logp,round (default: the stock ladder toward --backend)",
    )
    p.add_argument(
        "--probe", type=int, default=16,
        help="calibration probe size per rung (default: 16)",
    )
    p.add_argument(
        "--tau-floor", type=float, default=0.9,
        help="Kendall tau below which a rung's promotion fraction is "
        "widened (default: 0.9)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="probe-subset selection seed (default: 0)",
    )
    p.add_argument(
        "--exhaustive-audit", action="store_true",
        help="audit mode: also evaluate every order at the final rung and "
        "assert the ladder's top-k matches the exhaustive sweep",
    )
    p.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="accept remote 'repro-mrd worker --connect' workers on this "
        "endpoint (port 0 picks an ephemeral port, printed to stderr)",
    )
    p.add_argument(
        "--min-workers", type=int, default=None, metavar="N",
        help="with --listen, wait for N connected workers before "
        "dispatching (default: 1 with --jobs 1, else 0)",
    )
    p.add_argument(
        "--worker-wait", type=float, default=30.0, metavar="SECONDS",
        help="with --listen, max wait for --min-workers (and for an "
        "emptied pool to refill) before degrading (default: 30)",
    )
    _add_backend_arg(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "worker",
        help="serve evaluations to a 'sweep --listen' dispatcher",
    )
    p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="dispatcher endpoint printed by 'repro-mrd sweep --listen'",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SECONDS",
        help="retry connecting for this long before giving up (default: 10)",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the placement-advisor HTTP service (POST /advise)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8787,
        help="bind port; 0 picks an ephemeral port (default: 8787)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache shared with sweeps and other "
        "service processes; also enables the completion journal",
    )
    p.add_argument(
        "--lru-size", type=int, default=65536,
        help="in-memory cache entries kept (the serving tier)",
    )
    p.add_argument(
        "--prewarm", default="hydra,lumi", metavar="MACHINES",
        help="comma-separated machines to pre-warm into the cache on "
        "idle, or 'none' (default: hydra,lumi)",
    )
    p.add_argument(
        "--prewarm-idle", type=float, default=1.0, metavar="SECONDS",
        help="idle time before pre-warm work runs (default: 1.0)",
    )
    p.add_argument(
        "--prewarm-ladder", action="store_true",
        help="pre-warm through the multi-fidelity ladder (screening rungs "
        "plus finalist keys) instead of the full advice grids",
    )
    _add_backend_arg(p, default="logp")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "backends", help="the pluggable execution-backend registry"
    )
    bsub = p.add_subparsers(dest="backends_command", required=True)
    b = bsub.add_parser(
        "list", help="registered backends and their capability flags"
    )
    b.set_defaults(func=_cmd_backends_list)

    p = sub.add_parser(
        "workloads", help="the workload-frontend registry"
    )
    wsub = p.add_subparsers(dest="workloads_command", required=True)
    w = wsub.add_parser(
        "list", help="registered workloads with their parameter schemas"
    )
    w.set_defaults(func=_cmd_workloads_list)

    p = sub.add_parser(
        "verify", help="conformance and differential verification (repro.verify)"
    )
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser(
        "fuzz", help="seeded fuzz campaign with shrinking of failures"
    )
    v.add_argument("--cases", type=int, default=100, help="configurations to sample")
    v.add_argument("--seed", type=int, default=0, help="campaign seed (replayable)")
    v.add_argument(
        "--checks", default=None,
        help="comma-separated subset of semantic,program,differential,invariants",
    )
    v.add_argument(
        "--tolerance", type=float, default=0.15,
        help="declared round-model vs DES relative tolerance",
    )
    v.set_defaults(func=_cmd_verify_fuzz)

    v = vsub.add_parser(
        "semantic", help="symbolic data-flow check of every round schedule"
    )
    v.add_argument(
        "--sizes", default="2,4,7,8,16",
        help="comma-separated communicator sizes",
    )
    v.add_argument("--bytes", type=float, default=65536.0, help="payload per check")
    v.set_defaults(func=_cmd_verify_semantic)

    v = vsub.add_parser(
        "differential", help="round model vs DES on the seed benchmarks"
    )
    v.add_argument(
        "--machine", default="generic", choices=["generic", "hydra", "lumi"]
    )
    v.add_argument("--tolerance", type=float, default=0.15)
    v.add_argument("--bytes", type=float, default=1e6)
    v.add_argument(
        "--no-incremental", action="store_true",
        help="audit mode: replay with per-event from-scratch max-min "
        "recomputes and cross-check the incremental kernel against them "
        "at rtol 1e-12 (mirrors sweep --no-prune)",
    )
    _add_backend_arg(v, default="des")
    v.set_defaults(func=_cmd_verify_differential)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
