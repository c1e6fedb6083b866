"""Registered evaluation functions, one per request model.

Each evaluator is a pure function ``EvalRequest -> dict`` registered by
model name; workers receive requests in their wire form and look the
evaluator up here (forked workers inherit the registry, remote ones
import it).  Results are flat ``{str: float}`` dicts -- JSON-serializable
by construction, so the disk cache, the workers' result frames and
``BENCH_sweep.json`` need no custom encoders (counts are stored as
floats; ``inf`` is allowed and survives Python's JSON round-trip).

Determinism contract: an evaluator may only depend on its request.  Any
incidental RNG use is pinned by :func:`seed_worker` before dispatch, with
a per-request seed derived from the content key, so results are bitwise
identical across job counts, dispatch order, and cache temperature.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Sequence

from repro.engine.keys import EvalRequest

#: model name -> evaluator.  Populated at import; engines and workers
#: both import this module, so the registry is always ready.
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
    import numpy as np

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
    (the supervisor's chunk plan) are expected to partition first.
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


def evaluate_chunk(requests: Sequence[EvalRequest]) -> list[dict]:
    """Evaluate one supervised chunk; results align with ``requests``.

    A chunk of one request goes through :func:`evaluate_request`, the
    seeded scalar oracle; a larger chunk -- whole placement groups of
    batchable models, see :func:`repro.engine.supervisor.plan_chunks` --
    through :func:`evaluate_requests_batch`.  Both give the same dicts.
    """
    if len(requests) == 1:
        return [evaluate_request(requests[0])]
    return evaluate_requests_batch(requests)


def import_evaluation_stack() -> None:
    """Import every module the registered evaluators run: the backends
    and their kernels, lowering and validation, the simulators and the
    collectives' rounds registry.  The supervisor calls it before it
    forks its first local worker, so workers inherit the stack instead of
    each importing it after the fork."""
    import repro.bench.microbench  # noqa: F401
    import repro.core.reorder  # noqa: F401
    import repro.ir.backends  # noqa: F401
    import repro.ir.lower  # noqa: F401
    import repro.ir.validate  # noqa: F401
    import repro.netsim.fabric  # noqa: F401
    import repro.netsim.flows  # noqa: F401
    import repro.netsim.lockstep  # noqa: F401
    import repro.simmpi.runtime  # noqa: F401
    from repro.collectives.selector import list_algorithms

    list_algorithms()  # fills the rounds registry


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


def _eval_microbench_batch(
    backend_name: str, reqs: list[EvalRequest]
) -> list[dict]:
    """Section 4.1 micro-benchmark points: steps 1-4 on each request's
    lowered program, as one vectorized pass over the frontier.

    ``round`` is the synchronized-round model; ``logp`` the fast
    LogP-style backend with the same protocol and output keys, so
    sweeps, figures and the advisor consume either interchangeably (its
    fidelity is advisory: order rankings, not absolute durations).

    Requests sharing (topology, hierarchy, comm_size) stack: each
    distinct order's placement is one placement set, each distinct
    ``(workload, params)`` is lowered once, and the group makes one
    ``run_batch`` call per scenario (``single``, then ``all``) that
    prices every set against every program.  Every set of a call has one
    comm size and one instance count.  A (set, program) cell no request
    asked for is priced and dropped.  The scalar evaluator is this
    function on a one-request frontier, and no entry of a stacked call
    depends on the rest of it, so a point's result does not depend on
    the frontier it was batched in.
    """
    from repro.bench.microbench import comm_members
    from repro.ir import get_backend

    engine = get_backend(backend_name)
    out: list[dict | None] = [None] * len(reqs)
    groups: dict[tuple, list[int]] = {}
    for i, r in enumerate(reqs):
        groups.setdefault((r.topology, r.hierarchy, r.comm_size), []).append(i)
    for (topology, hierarchy, comm_size), idxs in groups.items():
        hierarchy.check_process_count(topology.n_cores)
        orders: dict[tuple, int] = {}
        cells: dict[tuple, int] = {}
        programs = []
        for i in idxs:
            r = reqs[i]
            orders.setdefault(r.order, len(orders))
            cell = (r.workload, r.workload_params)
            if cell not in cells:
                cells[cell] = len(programs)
                programs.append(_program(r))
        members = [comm_members(hierarchy, order, comm_size) for order in orders]
        # Microbench points only read total times; skip the per-round
        # RoundCost breakdown (``detail=False`` leaves times bit-exact).
        options = {"detail": False}
        single = engine.run_batch(programs, topology, [[m[0]] for m in members], **options)
        # A communicator spanning the machine is its only instance: the
        # all-instances scenario is the single one.
        both = (
            single
            if len(members[0]) == 1
            else engine.run_batch(programs, topology, [list(m) for m in members], **options)
        )
        for i in idxs:
            r = reqs[i]
            s, j = orders[r.order], cells[(r.workload, r.workload_params)]
            out[i] = {
                "duration_single": single[s][j].time,
                "duration_all": both[s][j].time,
            }
    assert all(r is not None for r in out)
    return out  # type: ignore[return-value]


def _first(batch_fn: Callable[[list[EvalRequest]], list[dict]],
           req: EvalRequest) -> dict:
    return batch_fn([req])[0]


for _backend in ("round", "logp"):
    _batch = register_batch_evaluator(
        _backend, partial(_eval_microbench_batch, _backend)
    )
    register_evaluator(_backend, partial(_first, _batch))


# -- discrete-event simulation ------------------------------------------------


def _eval_des(req: EvalRequest) -> dict:
    """DES replay of the first subcommunicator's program.

    Returns both the DES makespan and the round model's prediction for the
    same schedule, so differential consumers get their comparison from one
    cached evaluation.  The prediction sums the rounds' round-model
    seconds times their repeats, without compute
    (:func:`~repro.ir.backends.round_total`): in lockstep mode from the
    DES run's own ``model_seconds``, in pipelined mode from a ``round``
    backend run.  ``duration_single`` aliases the DES makespan so
    backend-agnostic consumers (sweep records, figures) find the key they
    expect; with the ``des_all`` extra set, the all-subcommunicators
    scenario is additionally simulated (every communicator's program
    offset-concatenated into one DES run) as ``duration_all``.
    """
    from repro.core.reorder import RankReordering
    from repro.ir import get_backend
    from repro.ir.backends import round_total

    reordering = RankReordering(req.hierarchy, req.order, req.comm_size)
    cores = reordering.comm_members(0)
    program = _program(req)
    mode = req.extra("mode", "lockstep")
    incremental = bool(req.extra("incremental", True))
    audit_rates = bool(req.extra("audit_rates", False))
    backend = get_backend("des")
    # The records are not part of the result: build none.
    des = backend.run(
        program, req.topology, [cores],
        mode=mode, incremental=incremental, audit=audit_rates, detail=False,
    )
    if mode == "lockstep":
        t_round = round_total(des.per_round, model=True)
    else:
        rounds = get_backend("round").run(program, req.topology, [cores])
        t_round = round_total(rounds.per_round)
    t_des = des.time
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
            mode=mode, incremental=incremental, audit=audit_rates, detail=False,
        ).time
    return out


register_evaluator("des", _eval_des)
