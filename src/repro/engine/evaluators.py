"""Registered evaluation functions, one per request model.

Each evaluator is a pure module-level function ``EvalRequest -> dict`` so
requests can be shipped to ``multiprocessing`` workers by pickle.  Results
are flat ``{str: float}`` dicts -- JSON-serializable by construction, so
the disk cache and ``BENCH_sweep.json`` need no custom encoders (booleans
are stored as 0.0/1.0, counts as floats; ``inf`` is allowed and survives
Python's JSON round-trip).

Determinism contract: an evaluator may only depend on its request.  Any
incidental RNG use is pinned by :func:`seed_worker` before dispatch, with
a per-request seed derived from the content key, so results are bitwise
identical across job counts, dispatch order, and cache temperature.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.engine.keys import EvalRequest

#: model name -> evaluator.  Populated at import; engines and spawn-mode
#: pool workers both import this module, so the registry is always ready.
EVALUATORS: dict[str, Callable[[EvalRequest], dict]] = {}

#: model name -> batch evaluator (list of requests -> list of results,
#: aligned).  Only models whose backend offers a vectorized ``run_batch``
#: register here; the bitwise contract is that the returned dicts equal
#: what N scalar :func:`evaluate_request` calls would produce.  That
#: contract implies batch evaluators are RNG-free pure functions of their
#: requests (ambient randomness could never reproduce N independently
#: seeded scalar calls), so the batch path skips per-request seeding.
BATCH_EVALUATORS: dict[
    str, Callable[[list[EvalRequest]], list[dict]]
] = {}


def register_evaluator(
    model: str, fn: Callable[[EvalRequest], dict]
) -> Callable[[EvalRequest], dict]:
    if model in EVALUATORS:
        raise ValueError(f"evaluator for model {model!r} already registered")
    EVALUATORS[model] = fn
    return fn


def register_batch_evaluator(
    model: str, fn: Callable[[list[EvalRequest]], list[dict]]
) -> Callable[[list[EvalRequest]], list[dict]]:
    if model in BATCH_EVALUATORS:
        raise ValueError(
            f"batch evaluator for model {model!r} already registered"
        )
    BATCH_EVALUATORS[model] = fn
    return fn


def seed_worker(request: EvalRequest) -> None:
    """Pin every ambient RNG an evaluator might touch."""
    seed = request.worker_seed()
    random.seed(seed)
    np.random.seed(seed)


def evaluate_request(request: EvalRequest) -> dict:
    """Dispatch one request to its evaluator (runs in pool workers)."""
    try:
        fn = EVALUATORS[request.model]
    except KeyError:
        raise ValueError(
            f"no evaluator registered for model {request.model!r}; "
            f"known models: {sorted(EVALUATORS)}"
        ) from None
    seed_worker(request)
    return fn(request)


def evaluate_requests_batch(requests: Sequence[EvalRequest]) -> list[dict]:
    """Vectorized counterpart of N :func:`evaluate_request` calls.

    Requests are grouped by model and dispatched to the registered batch
    evaluator; the returned dicts align with the input order and are
    bitwise equal to what the scalar path would produce.  No per-request
    seeding happens here: the bitwise contract already requires batch
    evaluators to ignore ambient RNG state (see ``BATCH_EVALUATORS``), so
    the per-request key derivation :func:`seed_worker` needs is pure
    scalar-path overhead the batch path gets to skip.  Raises
    ``ValueError`` for any model without a batch evaluator -- callers
    (the engine) are expected to partition first.
    """
    requests = list(requests)
    out: list[dict | None] = [None] * len(requests)
    by_model: dict[str, list[int]] = {}
    for i, r in enumerate(requests):
        by_model.setdefault(r.model, []).append(i)
    for model, idxs in by_model.items():
        try:
            fn = BATCH_EVALUATORS[model]
        except KeyError:
            raise ValueError(
                f"no batch evaluator registered for model {model!r}; "
                f"batchable models: {sorted(BATCH_EVALUATORS)}"
            ) from None
        sub = [requests[i] for i in idxs]
        for i, res in zip(idxs, fn(sub)):
            out[i] = res
    assert all(r is not None for r in out)
    return out  # type: ignore[return-value]


# -- workload frontends -------------------------------------------------------


def _program(req: EvalRequest):
    """Lower a request's workload through the registry (memoized).

    Contract: ``comm_size`` equals the lowered program's rank count (the
    request constructors read the same registry), so placement derivation
    and the batch path's grouping key agree across workloads.
    """
    from repro.workloads import lower_workload

    return lower_workload(req.workload, req.workload_params)


# -- micro-benchmark points (round + logp) ------------------------------------


def _eval_microbench(backend: str, req: EvalRequest) -> dict:
    """Section 4.1 micro-benchmark point: steps 1-4 on the request's
    lowered program.

    ``round`` is the synchronized-round model; ``logp`` the fast
    LogP-style backend with the same protocol and output keys, so
    sweeps, figures and the advisor consume either interchangeably (its
    fidelity is advisory: order rankings, not absolute durations).
    """
    from repro.bench.microbench import run_program

    point = run_program(
        req.topology, req.hierarchy, req.order, _program(req), backend=backend
    )
    return {
        "duration_single": point.duration_single,
        "duration_all": point.duration_all,
    }


def _eval_microbench_batch(
    backend_name: str, reqs: list[EvalRequest]
) -> list[dict]:
    """One vectorized pass over a frontier of microbench requests.

    Requests sharing (topology, hierarchy, order, comm_size) share a
    placement, so their programs stack into one ``run_batch`` call per
    scenario; the backend's structure memo persists across groups, so
    orders whose placements coincide (unpruned equivalence classes)
    analyse each round pattern exactly once for the whole frontier.
    Bitwise contract: entry ``i`` equals ``_eval_microbench(backend_name,
    reqs[i])``.
    """
    from repro.bench.microbench import comm_members
    from repro.ir import get_backend

    engine = get_backend(backend_name)
    out: list[dict | None] = [None] * len(reqs)
    groups: dict[tuple, list[int]] = {}
    for i, r in enumerate(reqs):
        groups.setdefault(
            (r.topology, r.hierarchy, r.order, r.comm_size), []
        ).append(i)
    for (topology, hierarchy, order, comm_size), idxs in groups.items():
        hierarchy.check_process_count(topology.n_cores)
        members = comm_members(hierarchy, order, comm_size)
        programs = [_program(reqs[i]) for i in idxs]
        # Microbench points only read total times; skip the per-round
        # RoundCost breakdown (``detail=False`` leaves times bit-exact).
        options = {"detail": False}
        if backend_name == "round":
            options["fabric"] = engine.fabric(topology)
        single = engine.run_batch(programs, topology, [members[0]], **options)
        # A communicator spanning the machine is its only instance: the
        # all-instances scenario is the single one.
        both = (
            single
            if len(members) == 1
            else engine.run_batch(programs, topology, list(members), **options)
        )
        for j, i in enumerate(idxs):
            out[i] = {
                "duration_single": single[j].time,
                "duration_all": both[j].time,
            }
    assert all(r is not None for r in out)
    return out  # type: ignore[return-value]


for _backend in ("round", "logp"):
    register_evaluator(_backend, partial(_eval_microbench, _backend))
    register_batch_evaluator(_backend, partial(_eval_microbench_batch, _backend))


# -- discrete-event simulation ------------------------------------------------


def _eval_des(req: EvalRequest) -> dict:
    """DES replay of the first subcommunicator's program.

    Returns both the DES makespan and the round model's prediction for the
    same schedule, so differential consumers get their comparison from one
    cached evaluation.  ``duration_single`` aliases the DES makespan so
    backend-agnostic consumers (sweep records, figures) find the key they
    expect; with the ``des_all`` extra set, the all-subcommunicators
    scenario is additionally simulated (every communicator's program
    offset-concatenated into one DES run) as ``duration_all``.
    """
    from repro.core.reorder import RankReordering
    from repro.ir import get_backend, placed_rounds
    from repro.netsim.fabric import Fabric

    reordering = RankReordering(req.hierarchy, req.order, req.comm_size)
    cores = reordering.comm_members(0)
    program = _program(req)
    mode = req.extra("mode", "lockstep")
    incremental = bool(req.extra("incremental", True))
    audit_rates = bool(req.extra("audit_rates", False))
    backend = get_backend("des")
    t_des = backend.run(
        program, req.topology, [cores],
        mode=mode, incremental=incremental, audit=audit_rates,
    ).time
    t_round = placed_rounds(program, cores).total_time(Fabric(req.topology))
    out = {
        "duration_des": t_des,
        "duration_round": t_round,
        "duration_single": t_des,
        "n_rounds": float(program.n_distinct_rounds),
    }
    if req.extra("des_all", False):
        members = reordering.all_comm_members()
        out["duration_all"] = backend.run(
            program, req.topology, list(members),
            mode=mode, incremental=incremental, audit=audit_rates,
        ).time
    return out


register_evaluator("des", _eval_des)


# -- verification cells -------------------------------------------------------


def _eval_verify(req: EvalRequest) -> dict:
    """One (collective, algorithm, comm size) cell of a verify sweep.

    The cell is a ``collective`` workload request with a pinned
    algorithm.  Runs the semantic checker, the round-vs-DES differential
    and the trace-invariant audit; the DES replay is the expensive part,
    which is exactly what engine memoization amortizes across repeated
    campaigns.
    """
    from repro.collectives.selector import rounds_for
    from repro.verify import (
        DEFAULT_TOLERANCE,
        check_schedule,
        check_trace,
        compare_schedule,
        replay_rounds_des,
    )

    collective, algorithm, total_bytes, p = (
        req.param(k) for k in ("collective", "algorithm", "total_bytes", "p")
    )
    tol = req.extra("tolerance")
    tol = DEFAULT_TOLERANCE if tol is None else float(tol)
    incremental = bool(req.extra("incremental", True))
    audit_rates = bool(req.extra("audit_rates", False))
    rounds = rounds_for(collective, p, total_bytes, algorithm)
    sem = check_schedule(collective, rounds, p, total_bytes, algorithm=algorithm)
    if p >= 2:
        cores = np.arange(p, dtype=np.int64)
        diff = compare_schedule(
            req.topology,
            cores,
            rounds,
            label=f"{collective}/{algorithm}",
            total_bytes=total_bytes,
            tolerance=tol,
            incremental=incremental,
            audit=audit_rates,
        )
        _t, _timings, trace = replay_rounds_des(
            req.topology, cores, rounds,
            incremental=incremental, audit=audit_rates,
        )
        inv = check_trace(req.topology, trace)
        diff_ok, diff_err = diff.ok, diff.rel_err
        inv_ok, n_viol = inv.ok, len(inv.violations)
    else:
        diff_ok, diff_err, inv_ok, n_viol = True, 0.0, True, 0
    return {
        "n_rounds": float(len(rounds)),
        "semantic_ok": float(sem.ok),
        "differential_ok": float(diff_ok),
        "differential_rel_err": float(diff_err),
        "invariants_ok": float(inv_ok),
        "n_violations": float(n_viol),
    }


register_evaluator("verify", _eval_verify)


# -- chaos cells --------------------------------------------------------------


def _pairwise_program(comm, buf, compute: float):
    """Pairwise exchange with ``compute`` seconds of local work spread
    over the rounds, so stragglers are active during the run."""
    from repro.simmpi.ops import Compute

    p = comm.size
    recvbuf = buf.copy()
    nbytes = buf[0].nbytes
    per_round = compute / max(p - 1, 1)
    for r in range(1, p):
        if per_round > 0:
            yield Compute(per_round)
        to = (comm.rank + r) % p
        frm = (comm.rank - r) % p
        recvbuf[frm] = yield comm.sendrecv(to, nbytes, buf[to], frm, tag=r)
    return recvbuf


def pairwise_factory(comms, count: int = 8, compute: float = 1e-6):
    """Program factory for the chaos workload (module-level: picklable)."""
    p = len(comms)
    buf = np.zeros((p, count))
    return {c.rank: _pairwise_program(c, buf, compute) for c in comms}


def _eval_chaos_healthy(req: EvalRequest) -> dict:
    """Healthy-machine makespan of the chaos workload for one order."""
    from repro.launcher.mapping import ProcessMapping
    from repro.simmpi.communicator import Comm
    from repro.simmpi.runtime import Simulator

    n_ranks = int(req.extra("n_ranks", req.topology.n_cores))
    count = int(req.extra("count", 8))
    compute = float(req.extra("compute", 1e-6))
    mapping = ProcessMapping.from_order(req.topology.hierarchy, req.order)
    core_of = mapping.core_of[:n_ranks]
    sim = Simulator(req.topology, core_of)
    sim.run(pairwise_factory(Comm.world(n_ranks), count=count, compute=compute))
    return {"healthy_time": max(sim.finish_times.values())}


register_evaluator("chaos_healthy", _eval_chaos_healthy)


def _eval_chaos_cell(req: EvalRequest) -> dict:
    """One (order, fault kind) cell: run under chaos with shrink-and-retry."""
    from repro.faults import (
        ChaosGenerator,
        RetryExhaustedError,
        RetryPolicy,
        run_with_retry,
    )

    kind = str(req.extra("kind"))
    rate = float(req.extra("rate", 1.0))
    healthy = float(req.extra("healthy"))
    n_ranks = int(req.extra("n_ranks", req.topology.n_cores))
    count = int(req.extra("count", 8))
    compute = float(req.extra("compute", 1e-6))

    schedule = ChaosGenerator(req.seed).schedule(
        req.topology, horizon=healthy, **{f"{kind}_rate": rate}
    )
    policy = RetryPolicy(max_attempts=4, base_backoff=healthy, timeout=20 * healthy)
    factory = partial(pairwise_factory, count=count, compute=compute)
    try:
        result = run_with_retry(
            req.topology,
            req.order,
            factory,
            schedule=schedule,
            n_ranks=n_ranks,
            policy=policy,
        )
        attempts = result.attempts
        survivors = result.survivors
        faulty = sum(a.sim_time + a.backoff for a in attempts)
        slow = faulty / healthy
    except RetryExhaustedError as err:
        attempts = err.attempts
        survivors = 0
        faulty = sum(a.sim_time + a.backoff for a in attempts)
        slow = float("inf")
    return {
        "n_faults": float(len(schedule)),
        "survivors": float(survivors),
        "n_attempts": float(len(attempts)),
        "total_backoff": float(sum(a.backoff for a in attempts)),
        "healthy_time": healthy,
        "faulty_time": float(faulty),
        "slowdown": float(slow),
    }


register_evaluator("chaos_cell", _eval_chaos_cell)
