"""Execution backends: interchangeable cost models over one IR.

An :class:`ExecutionBackend` consumes a :class:`~repro.ir.program.CommProgram`
plus a *placement* (one ``member_cores`` array per concurrently-executing
communicator instance) and produces an :class:`ExecutionResult`.  Three
backends register at import time:

``round``
    The synchronized-round bottleneck fair-share model
    (:mod:`repro.netsim.fabric`), the one implementation of the paper's
    round model: the apps, the micro-benchmark protocol, the
    differential check and the trace all price through it.
``des``
    The flow-level discrete-event simulation over the incremental
    max-min kernel (:mod:`repro.netsim.flows`): lockstep rounds through
    the direct round kernel (:mod:`repro.netsim.lockstep`), pipelined
    programs and fault schedules through :mod:`repro.simmpi.runtime`.
    Bit-identical to the pre-IR ``replay_rounds_des``.
``logp``
    A Hockney/LogGP-style analytical model: per round,
    ``t = alpha + nbytes * rate_coeff`` where ``alpha`` is the slowest
    crossing latency and ``rate_coeff`` is the worst per-flow inverse
    fair share -- each flow's busiest up/down link (and the root
    capacity) priced exactly as the round model prices it, but with the
    latency and bandwidth maxima decoupled into a closed form.  Only
    that ``(alpha, rate_coeff)`` pair is memoized per (placement,
    pattern), in the per-topology fabric beside the round model's
    structures, so a warm memo covers many more placements in the same
    memory; the model is advisory (ranking) fidelity.

Backends are looked up by name through the registry
(:func:`get_backend` for a shared per-process instance whose caches
amortize across calls, :func:`create_backend` for a cold instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    NamedTuple,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.ir.program import CommProgram, CommRound
from repro.topology.machine import MachineTopology

if TYPE_CHECKING:
    from repro.netsim.fabric import Fabric
    from repro.simmpi.communicator import Comm
    from repro.simmpi.runtime import Simulator

Placements = Sequence["np.ndarray"]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can model and how far its numbers can be trusted."""

    faults: bool  # honours FaultSchedule injection
    per_flow_contention: bool  # exact max-min per flow (vs bottleneck share)
    tolerance: str  # "exact" (goldens hold bitwise) | "advisory" (rankings)

    def describe(self) -> str:
        flags = [
            "faults" if self.faults else "no-faults",
            "per-flow" if self.per_flow_contention else "bottleneck",
            self.tolerance,
        ]
        return ",".join(flags)


@dataclass(frozen=True)
class RoundCost:
    """Per-round timing of one executed program.

    ``seconds`` is the backend's duration of one round instance;
    ``model_seconds`` is the round model's duration of the same instance
    when the backend computes it for cross-checking (the DES does; the
    analytical backends leave it ``None``).
    """

    index: int
    repeat: int
    n_flows: int
    seconds: float
    model_seconds: float | None = None


@dataclass
class ExecutionResult:
    """Outcome of running one program under one backend."""

    backend: str
    time: float
    per_round: tuple[RoundCost, ...] = ()
    records: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


@runtime_checkable
class ExecutionBackend(Protocol):
    """The pluggable cost-model interface.

    ``placements`` holds one core array per concurrently-executing
    communicator instance (``placements[k][comm_rank]`` = core); a
    single-element list is the "one communicator" micro-benchmark, the
    full list is the paper's "all subcommunicators at once" scenario.
    """

    name: str
    capabilities: BackendCapabilities

    def run(
        self,
        program: CommProgram,
        topology: MachineTopology,
        placements: Placements,
        **options: Any,
    ) -> ExecutionResult: ...


def _as_placements(placements: Placements | np.ndarray) -> list[np.ndarray]:
    if isinstance(placements, np.ndarray) and placements.ndim == 1:
        placements = [placements]
    out = [np.asarray(p, dtype=np.int64) for p in placements]
    if not out:
        raise ValueError("at least one placement is required")
    return out


class _PatternTable(NamedTuple):
    """A program's rounds grouped by flow pattern (see :func:`_pattern_table`)."""

    #: Payload-alignment key: programs sharing it have, round for round,
    #: the same src/dst patterns and repeat counts over the same ranks.
    alignment: tuple
    keys: tuple[tuple[bytes, bytes], ...]  # structure key of each pattern
    patterns: tuple[CommRound, ...]  # first round of each distinct pattern
    ids: np.ndarray  # (R,) pattern index of each round
    by_pattern: np.ndarray  # (R,) round indices, grouped by pattern
    bounds: tuple[int, ...]  # pattern p's rounds: by_pattern[bounds[p]:bounds[p + 1]]
    nbytes: np.ndarray  # (R,) scalar payloads, NaN where per_flow
    per_flow: np.ndarray  # (R,) round carries a per-flow payload array
    compute: np.ndarray  # (R,)
    repeat: np.ndarray  # (R,) int64
    compute_total: float  # ``sum(compute * repeat)``, in round order
    rank_range: tuple[int, int]  # smallest and largest rank any flow names

    def cols(self) -> Iterator[np.ndarray]:
        """The round indices of each pattern, in pattern order."""
        b = self.bounds
        return (self.by_pattern[b[p] : b[p + 1]] for p in range(len(self.patterns)))


def _pattern_table(program: CommProgram) -> _PatternTable:
    """The program's round patterns and per-round scalar vectors.

    Rounds mostly repeat a few src/dst patterns (a 256-rank dnn step has
    390 rounds over 73 patterns), so the analytic kernels analyse and
    price each distinct :meth:`~repro.ir.program.CommRound.structure_key`
    once per placement.  Memoized on the (frozen) program, so repeated
    batches over a cached program build the table once.
    """
    cached: _PatternTable | None = program.__dict__.get("_pattern_table")
    if cached is not None:
        return cached
    rounds = program.rounds
    index: Dict[tuple, int] = {}
    patterns: list[CommRound] = []
    pattern_ids = []
    for rnd in rounds:
        key = rnd.structure_key()
        p = index.get(key)
        if p is None:
            p = index[key] = len(patterns)
            patterns.append(rnd)
        pattern_ids.append(p)
    ids = np.array(pattern_ids, dtype=np.int64)
    per_flow = np.array([isinstance(r.nbytes, np.ndarray) for r in rounds], dtype=bool)
    repeat = np.array([r.repeat for r in rounds], dtype=np.int64)
    ranks = np.concatenate(
        [np.empty(0, np.int64), *(r.src for r in patterns), *(r.dst for r in patterns)]
    )
    keys = tuple(index)
    table = _PatternTable(
        alignment=(program.n_ranks, keys, ids.tobytes(), repeat.tobytes()),
        keys=keys,
        patterns=tuple(patterns),
        ids=ids,
        by_pattern=np.argsort(ids, kind="stable"),
        bounds=(0, *np.cumsum(np.bincount(ids, minlength=len(keys))).tolist()),
        nbytes=np.array(
            [np.nan if f else float(r.nbytes) for r, f in zip(rounds, per_flow)]
        ),
        per_flow=per_flow,
        compute=np.array([float(r.compute) for r in rounds]),
        repeat=repeat,
        compute_total=sum(r.compute * r.repeat for r in rounds),
        rank_range=(int(ranks.min()), int(ranks.max())) if ranks.size else (0, -1),
    )
    for value in table:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    object.__setattr__(program, "_pattern_table", table)
    return table


def _aligned_groups(programs: Sequence[CommProgram]) -> list[list[int]]:
    """Indices of ``programs`` grouped by payload alignment.

    The batch kernels vectorize the payload axis within an alignment
    group, so a batch whose auto-selected algorithm switches across the
    size sweep (bruck below the threshold, pairwise above) simply splits
    into one stacked pass per group instead of falling back to scalar
    evaluation.
    """
    groups: Dict[tuple, list[int]] = {}
    for i, program in enumerate(programs):
        groups.setdefault(_pattern_table(program).alignment, []).append(i)
    return list(groups.values())


def _placed_patterns(
    table: _PatternTable, cores_list: list[np.ndarray], which: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Core-space ``(src, dst)`` of patterns ``which``, instance-major.

    One flow set per pattern covers every placement at once (instance
    ``k``'s flows follow instance ``k - 1``'s) -- the merged round of
    the "all subcommunicators at once" scenario.
    """
    lo, hi = table.rank_range
    if lo < 0 or hi >= min(c.size for c in cores_list):
        raise ValueError("round refers to ranks outside the communicator")
    if not which:
        return
    # Row ``k`` of ``starts + ranks`` indexes instance ``k``'s cores in the
    # concatenated placements; the row-major ravel is instance-major.
    flat = np.concatenate(cores_list)
    starts = np.cumsum([0] + [c.size for c in cores_list[:-1]])[:, None]
    for p in which:
        rnd = table.patterns[p]
        yield flat[starts + rnd.src].ravel(), flat[starts + rnd.dst].ravel()


# -- registry ----------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], ExecutionBackend]] = {}
_INSTANCES: Dict[str, ExecutionBackend] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend constructor under ``name`` (last wins)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def create_backend(name: str) -> ExecutionBackend:
    """A fresh instance with cold caches (benchmarking, isolation)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r} (available: {', '.join(backend_names())})"
        ) from None
    return factory()


def get_backend(name: str) -> ExecutionBackend:
    """The shared per-process instance (warm pattern caches)."""
    if name not in _INSTANCES:
        _INSTANCES[name] = create_backend(name)
    return _INSTANCES[name]


def describe_backends() -> list[tuple[str, BackendCapabilities]]:
    return [(name, create_backend(name).capabilities) for name in backend_names()]


# -- analytic kernels: shared batch driver ---------------------------------


class _AnalyticBackend:
    """Whole-program pricing shared by the ``round`` and ``logp`` kernels.

    Per alignment group and placement, each distinct round pattern gets
    one memoized structural analysis, and the ``(n_programs, R)`` time
    matrix fills with vector ops over whole patterns rather than one
    round at a time.  A kernel supplies the memoized structures (what
    scalar payloads need per pattern), the ``(live, lat, share)`` of the
    patterns carrying per-flow payloads, their pricing, and the
    summation of the time matrix, which runs along the round axis with
    ``np.add.accumulate``: its strictly sequential additions keep the
    round-by-round ``total += t * repeat`` order bit for bit.
    """

    name: str
    #: Whether :class:`RoundCost` counts the flows of every placement
    #: (the merged round) or of one instance.
    _merged_flow_counts: bool

    def __init__(self) -> None:
        self._fabrics: Dict[MachineTopology, Fabric] = {}

    def fabric(self, topology: MachineTopology) -> Fabric:
        """The per-topology :class:`~repro.netsim.fabric.Fabric`, which
        holds both kernels' structure memos across every call on this
        backend instance."""
        from repro.netsim.fabric import Fabric

        fab = self._fabrics.get(topology)
        if fab is None:
            fab = self._fabrics[topology] = Fabric(topology)
        return fab

    def run(
        self,
        program: CommProgram,
        topology: MachineTopology,
        placements: Placements,
        **options: Any,
    ) -> ExecutionResult:
        return self.run_batch([program], topology, placements, **options)[0]

    def run_batch(
        self,
        programs: Sequence[CommProgram],
        topology: MachineTopology,
        placements: Placements,
        **options: Any,
    ) -> list[ExecutionResult]:
        """Score a stack of programs, one vectorized pass per alignment group.

        ``run(program, ...)`` is ``run_batch([program], ...)[0]``, and
        entry ``j`` does not depend on the rest of the batch: every
        vector op is elementwise over the program axis.

        ``detail=False`` skips the per-round :class:`RoundCost` breakdown
        (``per_round`` comes back empty); total times are unaffected.
        """
        detail = bool(options.get("detail", True))
        programs = list(programs)
        cores_list = _as_placements(placements)
        copies = len(cores_list) if self._merged_flow_counts else 1
        results: Dict[int, ExecutionResult] = {}
        for idxs in _aligned_groups(programs):
            group = [programs[j] for j in idxs]
            tables = [_pattern_table(p) for p in group]
            ref = tables[0]
            structs = self._pattern_structures(ref, topology, cores_list, options)
            times = self._times(group, tables, structs, topology, cores_list)
            totals = self._totals(times, tables).tolist()
            per_round: list[tuple] = [()] * len(idxs)
            if detail:
                n_flows = [r.n_flows * copies for r in ref.patterns]
                flows = [n_flows[p] for p in ref.ids.tolist()]
                index = range(len(flows))
                repeats = ref.repeat.tolist()
                per_round = [
                    tuple(map(RoundCost, index, repeats, flows, row))
                    for row in times.tolist()
                ]
            for jj, j in enumerate(idxs):
                results[j] = ExecutionResult(self.name, totals[jj], per_round[jj])
        return [results[j] for j in range(len(programs))]

    # -- kernel hooks ----------------------------------------------------

    def _pattern_structures(
        self,
        table: _PatternTable,
        topology: MachineTopology,
        cores_list: list[np.ndarray],
        options: dict[str, Any],
    ) -> Sequence[tuple]:
        """One memoized structure per pattern of ``table``: what the
        kernel needs to price scalar payloads."""
        raise NotImplementedError

    def _flow_structures(
        self,
        structs: Sequence[tuple],
        table: _PatternTable,
        topology: MachineTopology,
        cores_list: list[np.ndarray],
        which: list[int],
    ) -> Sequence[tuple]:
        """``(live, lat, share)`` of patterns ``which``, for per-flow
        payloads (``structs`` are :meth:`_pattern_structures`)."""
        raise NotImplementedError

    @staticmethod
    def _scalar_times(
        structs: Sequence[tuple], table: _PatternTable, nbytes: np.ndarray
    ) -> np.ndarray:
        """``(n_programs, R)`` durations at scalar payloads; ``0.0`` in
        rounds without live flows, anything in per-flow-array cells."""
        raise NotImplementedError

    @staticmethod
    def _flow_times(struct: tuple, payload: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _totals(times: np.ndarray, tables: list[_PatternTable]) -> np.ndarray:
        raise NotImplementedError

    def _times(
        self,
        group: list[CommProgram],
        tables: list[_PatternTable],
        structs: Sequence[tuple],
        topology: MachineTopology,
        cores_list: list[np.ndarray],
    ) -> np.ndarray:
        """The ``(len(group), R)`` matrix of per-round durations.

        The kernel prices every scalar-payload cell at once
        (:meth:`_scalar_times`).  Per pattern, the cells carrying
        per-flow payload arrays then stack into one ``(cells, live
        flows)`` matrix, each row the round's payload tiled once per
        placement (the merged round's flow order) and cut to live flows,
        and price against the pattern's :meth:`_flow_structures`.
        """
        ref = tables[0]
        times = self._scalar_times(structs, ref, np.array([t.nbytes for t in tables]))
        per_flow = np.array([t.per_flow for t in tables])
        if not per_flow.any():
            return times
        cols = list(ref.cols())
        which = [p for p, c in enumerate(cols) if per_flow[:, c].any()]
        flow_structs = self._flow_structures(structs, ref, topology, cores_list, which)
        k = len(cores_list)
        for p, struct in zip(which, flow_structs):
            live, lat = struct[:2]
            if not lat.size:
                continue
            rows, at = np.nonzero(per_flow[:, cols[p]])
            at = cols[p][at]
            payload = np.stack(
                [
                    np.tile(group[j].rounds[r].nbytes_per_flow(), k)[live]
                    for j, r in zip(rows.tolist(), at.tolist())
                ]
            )
            times[rows, at] = self._flow_times(struct, payload)
        return times


# -- round: synchronized-round bottleneck model ------------------------------


class RoundBackend(_AnalyticBackend):
    """The paper's round model: per round, ``max(lat + nbytes / share)``.

    Every placement's flows of a round run as one merged round
    (instance-major), priced on the per-topology
    :class:`~repro.netsim.fabric.Fabric`, whose structure memo is keyed
    by the merged round's core-space flows; ``time`` adds the rounds'
    ``seconds * repeat`` in round order, then the program's compute.
    ``tests/ir/round_oracle.py`` keeps the per-round definition (place
    each round, price it with :meth:`Fabric.round_structures` and
    ``max(lat + nbytes / share)``, add ``t * repeat``) that this backend
    equals bit for bit.  Scalar payloads price all of a pattern's rounds
    in one ``(program, round, flow)`` pass.
    """

    name = "round"
    capabilities = BackendCapabilities(
        faults=False, per_flow_contention=False, tolerance="exact"
    )
    _merged_flow_counts = True

    def _pattern_structures(
        self,
        table: _PatternTable,
        topology: MachineTopology,
        cores_list: list[np.ndarray],
        options: dict[str, Any],
    ) -> Sequence[tuple]:
        which = range(len(table.patterns))
        placed = list(_placed_patterns(table, cores_list, which))
        return self.fabric(topology).round_structures(placed)

    def _flow_structures(
        self,
        structs: Sequence[tuple],
        table: _PatternTable,
        topology: MachineTopology,
        cores_list: list[np.ndarray],
        which: list[int],
    ) -> Sequence[tuple]:
        return [structs[p] for p in which]

    @staticmethod
    def _scalar_times(
        structs: Sequence[tuple], table: _PatternTable, nbytes: np.ndarray
    ) -> np.ndarray:
        times = np.zeros(nbytes.shape)
        for cols, struct in zip(table.cols(), structs):
            if struct[1].size:
                times[:, cols] = RoundBackend._flow_times(struct, nbytes[:, cols, None])
        return times

    @staticmethod
    def _flow_times(struct: tuple, payload: np.ndarray) -> np.ndarray:
        _, lat, share = struct
        times: np.ndarray = (lat + payload / share).max(axis=-1)
        return times

    @staticmethod
    def _totals(times: np.ndarray, tables: list[_PatternTable]) -> np.ndarray:
        steps = np.zeros((times.shape[0], times.shape[1] + 1))
        steps[:, 1:] = times * tables[0].repeat
        compute = np.array([t.compute_total for t in tables])
        totals: np.ndarray = np.add.accumulate(steps, axis=1)[:, -1]
        return totals + compute


# -- des: flow-level discrete-event simulation -------------------------------


class DESBackend:
    """Exact max-min flow DES; the model of record for verification.

    ``lockstep`` mode (the default) times each round on a fresh clock
    with the direct round kernel (:func:`repro.netsim.lockstep.run_round`),
    which equals a per-round :class:`~repro.simmpi.runtime.Simulator` bit
    for bit.  Every round shares one :class:`FlowNetwork`; its path
    caches, rate memo and round memo are per topology, so they also
    carry across runs on one machine.  Records are shifted onto the
    accumulated timeline.  ``pipelined`` mode runs the whole program,
    repeats unrolled, in one simulator; only it accepts a fault schedule,
    which runs on a network of its own.

    ``detail=False`` builds no flow records of its own (``records`` comes
    back empty); listeners still get every record.  Times and the
    per-round breakdown are unaffected.
    """

    name = "des"
    capabilities = BackendCapabilities(
        faults=True, per_flow_contention=True, tolerance="exact"
    )

    def run(
        self,
        program: CommProgram,
        topology: MachineTopology,
        placements: Placements,
        mode: str = "lockstep",
        listeners: Sequence = (),
        incremental: bool = True,
        audit: bool = False,
        network: Any = None,
        fault_schedule: Any = None,
        **options: Any,
    ) -> ExecutionResult:
        from repro.netsim.flows import FlowNetwork

        if mode not in ("lockstep", "pipelined"):
            raise ValueError(f"unknown replay mode {mode!r} (lockstep|pipelined)")
        faults = fault_schedule is not None and not fault_schedule.empty
        if faults and mode == "lockstep":
            raise ValueError(
                "lockstep mode cannot run a fault schedule: each round's clock "
                "restarts at zero, so absolute fault times have no meaning "
                "(use mode='pipelined')"
            )
        if faults and network is not None:
            raise ValueError(
                "a fault schedule runs on a network of its own; do not pass "
                "network= with one (faults mutate network capacities)"
            )
        cores_list = _as_placements(placements)
        if len(cores_list) > 1:
            combined, cores = _concat_placements(program, cores_list)
        else:
            combined, cores = program, cores_list[0]
        if cores.size and (cores.min() < 0 or cores.max() >= topology.n_cores):
            raise ValueError("rank_to_core refers to cores outside the machine")
        records: list = []
        detail = bool(options.get("detail", True))
        sinks = [records.append, *listeners] if detail else list(listeners)
        net = None if faults else (
            network or FlowNetwork(topology, incremental=incremental, audit=audit)
        )
        if mode == "lockstep":
            # The round model merges the placements itself, so it prices
            # the caller's program, whose pattern table is memoized.
            model = get_backend("round").run(program, topology, cores_list).per_round
            total, per_round = _lockstep(combined, cores, net, model, sinks)
            return ExecutionResult(self.name, total, per_round, records)
        from repro.ir.lower import rank_program, round_endpoints
        from repro.simmpi.communicator import Comm
        from repro.simmpi.runtime import Simulator

        rounds = combined.rounds
        endpoints = [
            round_endpoints(spec, idx * spec.src.size)
            for idx, spec in enumerate(rounds)
        ]

        def full_program(comm: Comm) -> Iterator[Any]:
            for spec, (sends, recvs) in zip(rounds, endpoints):
                for _ in range(spec.repeat):
                    yield from rank_program(comm, sends, recvs, spec.compute)
            return None

        p = int(cores.size)
        comms = Comm.world(p)
        sim = Simulator(
            topology,
            cores,
            listeners=sinks,
            fault_schedule=fault_schedule,
            incremental=incremental,
            audit_rates=audit,
            network=net,
            backend=self.name,
        )
        sim.run({r: full_program(comms[r]) for r in range(p)})
        total = max(sim.finish_times.values(), default=0.0)
        return ExecutionResult(self.name, total, (), records)


def round_total(per_round: Sequence[RoundCost], model: bool = False) -> float:
    """The round model's program time without compute: each round's
    round-model seconds times its repeat, added in round order.

    ``per_round`` is the ``round`` backend's breakdown, or with ``model``
    a lockstep DES run's, whose :attr:`RoundCost.model_seconds` carry the
    round model's time of each round.
    """
    total = 0.0
    for cost in per_round:
        seconds = cost.model_seconds if model else cost.seconds
        assert seconds is not None, "a lockstep DES breakdown is required"
        total += seconds * cost.repeat
    return total


def _lockstep(
    program: CommProgram,
    cores: np.ndarray,
    network: Any,
    model: Sequence[RoundCost],
    sinks: list,
) -> tuple[float, tuple[RoundCost, ...]]:
    """Every round on a fresh clock through the direct round kernel.

    Returns the total (each round's time times its repeat, in round
    order) and the per-round costs, each with the round model's time
    (``model``, the ``round`` backend's breakdown) beside it.  Each
    completed flow goes to ``sinks`` as a
    :class:`~repro.simmpi.runtime.FlowRecord` shifted onto the
    accumulated timeline, keyed like the simulator keys it:
    ``(communicator id, flow index)``; with no sinks no record is built.
    """
    from repro.netsim.lockstep import post_order, run_round
    from repro.simmpi.communicator import new_comm_id
    from repro.simmpi.runtime import FlowRecord

    comm_id = new_comm_id()
    total = 0.0
    per_round = []
    for idx, (spec, cost) in enumerate(zip(program.rounds, model)):
        src, dst = cores[spec.src], cores[spec.dst]
        order = post_order(spec.src, spec.dst)
        nbytes = spec.nbytes_per_flow()
        run = run_round(network, src[order], dst[order], nbytes[order], spec.compute)
        # Shift the round's records onto the accumulated timeline.
        start = (spec.compute if spec.compute > 0.0 else 0.0) + total
        completed = zip(order[run.order].tolist(), run.ends.tolist()) if sinks else ()
        for i, end in completed:
            record = FlowRecord(
                src_rank=int(spec.src[i]),
                dst_rank=int(spec.dst[i]),
                src_core=int(src[i]),
                dst_core=int(dst[i]),
                nbytes=float(nbytes[i]),
                start=start,
                end=end + total,
                key=(comm_id, i),
            )
            for sink in sinks:
                sink(record)
        per_round.append(
            RoundCost(
                index=idx,
                repeat=spec.repeat,
                n_flows=spec.src.size,
                seconds=run.seconds,
                model_seconds=cost.seconds,
            )
        )
        total += run.seconds * spec.repeat
    return total, tuple(per_round)


def _concat_placements(
    program: CommProgram, cores_list: list[np.ndarray]
) -> tuple[CommProgram, np.ndarray]:
    """Offset-concatenate one program over several communicator instances.

    Instance ``k``'s ranks become ``k * p .. k * p + p - 1`` in a single
    combined program (every instance runs the same rounds simultaneously,
    the "all subcommunicators at once" scenario), bound to the
    concatenation of the per-instance core arrays.
    """
    p = program.n_ranks
    k = len(cores_list)
    rounds = []
    for rnd in program.rounds:
        src = np.concatenate([rnd.src + i * p for i in range(k)])
        dst = np.concatenate([rnd.dst + i * p for i in range(k)])
        if isinstance(rnd.nbytes, np.ndarray):
            nbytes: np.ndarray | float = np.concatenate([rnd.nbytes_per_flow()] * k)
        else:
            nbytes = rnd.nbytes
        rounds.append(CommRound(src, dst, nbytes, rnd.repeat, rnd.compute))
    combined = CommProgram(p * k, tuple(rounds), program.meta)
    return combined, np.concatenate(cores_list)


# -- logp: Hockney/LogGP-style analytical model ------------------------------


class LogPBackend(_AnalyticBackend):
    """Per-round ``alpha + nbytes * rate_coeff`` with structural caching.

    For one placed round pattern the model derives, once:

    - ``alpha``: the largest first-hop latency over live flows (the round
      cannot finish before its farthest-reaching flow's latency);
    - ``rate_coeff``: the reciprocal bandwidth of the round's binding
      resource.  Per flow, the effective bandwidth is the bottleneck fair
      share of the busiest link on its path -- at each crossed level, the
      level's link bandwidth divided by how many of the round's flows use
      the flow's up-link (source side) or down-link (destination side),
      with flows meeting at the root additionally splitting ``root_bw``.
      ``rate_coeff`` is the reciprocal of the worst such share.

    The per-link counts are payload-independent, so one structural
    analysis per (placement, pattern) serves every payload size and
    every round the pattern recurs in.  The per-topology
    :class:`~repro.netsim.fabric.Fabric` memoizes only the
    ``(alpha, rate_coeff)`` pair
    (:meth:`~repro.netsim.fabric.Fabric.logp_coefficients`), so scalar
    payloads cost one multiply per (program, round) -- the Hockney
    ``alpha + n * beta`` form.  Per-flow payload arrays need the
    per-flow shares, which one uncached stacked pass re-derives for just
    the patterns those cells use; pricing them is one ``(cell, flow)``
    pass.  Decoupling the latency and bandwidth maxima makes the model
    an upper bound of the round model up to float rounding (the shares
    are built as ``count * (1 / bw)``, the round model's as
    ``bw / count``); its fidelity contract is order *rankings*, not
    absolute durations.
    """

    name = "logp"
    capabilities = BackendCapabilities(
        faults=False, per_flow_contention=False, tolerance="advisory"
    )
    _merged_flow_counts = False

    def _pattern_structures(
        self,
        table: _PatternTable,
        topology: MachineTopology,
        cores_list: list[np.ndarray],
        options: dict[str, Any],
    ) -> Sequence[tuple]:
        """The ``(alpha, rate_coeff)`` of every pattern of ``table`` under
        this placement, from the fabric's memo; its misses are analysed
        together in stacked passes."""
        return self.fabric(topology).logp_coefficients(
            tuple(c.tobytes() for c in cores_list),
            table.keys,
            lambda missing: _placed_patterns(table, cores_list, missing),
        )

    def _flow_structures(
        self,
        structs: Sequence[tuple],
        table: _PatternTable,
        topology: MachineTopology,
        cores_list: list[np.ndarray],
        which: list[int],
    ) -> Sequence[tuple]:
        placed = _placed_patterns(table, cores_list, which)
        return list(self.fabric(topology).fair_shares(placed, inverse=True))

    @staticmethod
    def _scalar_times(
        structs: Sequence[tuple], table: _PatternTable, nbytes: np.ndarray
    ) -> np.ndarray:
        # One elementwise ``alpha + nbytes * rate_coeff`` over every
        # (program, round) cell, each round reading its pattern's pair.
        alpha, rate_coeff = np.array(structs).reshape(-1, 2)[table.ids].T
        times: np.ndarray = alpha + nbytes * rate_coeff
        times[:, np.isnan(alpha)] = 0.0  # patterns without live flows
        return times

    @staticmethod
    def _flow_times(struct: tuple, payload: np.ndarray) -> np.ndarray:
        _, lat, inv_share = struct
        times: np.ndarray = (lat + payload * inv_share).max(axis=1)
        return times

    @staticmethod
    def _totals(times: np.ndarray, tables: list[_PatternTable]) -> np.ndarray:
        # ``[t * repeat, compute * repeat]`` per round, interleaved: the
        # accumulation adds them in the per-round order of a scalar loop.
        n, n_rounds = times.shape
        repeat = tables[0].repeat
        steps = np.zeros((n, 2 * n_rounds + 1))
        steps[:, 1::2] = times * repeat
        steps[:, 2::2] = np.array([t.compute for t in tables]) * repeat
        totals: np.ndarray = np.add.accumulate(steps, axis=1)[:, -1]
        return totals


register_backend("round", RoundBackend)
register_backend("des", DESBackend)
register_backend("logp", LogPBackend)
