"""Execution backends: interchangeable cost models over one IR.

An :class:`ExecutionBackend` consumes a :class:`~repro.ir.program.CommProgram`
plus a *placement* (one ``member_cores`` array per concurrently-executing
communicator instance) and produces an :class:`ExecutionResult`.  The
registry (:mod:`repro.ir.registry`) names three:

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
    that ``(alpha, rate_coeff)`` pair is memoized, one array of pairs per
    (placement, pattern table), in the per-topology fabric beside the
    round model's structures, so a warm memo covers many more placements
    in the same memory; the model is advisory (ranking) fidelity.

Backends are looked up by name through the registry
(:func:`~repro.ir.registry.get_backend` for a shared per-process
instance whose caches amortize across calls,
:func:`~repro.ir.registry.create_backend` for a cold instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.ir.program import CommProgram, CommRound
from repro.ir.registry import get_backend
from repro.topology.machine import MachineTopology

if TYPE_CHECKING:
    from repro.netsim.fabric import Fabric, FlowChunk, RoundStructure
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


@dataclass(frozen=True)
class _PatternTable:
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

    @cached_property
    def flows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, pattern)``: every pattern's rank-space flows,
        concatenated in pattern order, and each flow's pattern index.
        Built on the table's first logp coefficient miss, so the tables
        of programs that only hit the memo never hold them."""
        src = np.concatenate([np.empty(0, np.int64), *(r.src for r in self.patterns)])
        dst = np.concatenate([np.empty(0, np.int64), *(r.dst for r in self.patterns)])
        pattern = np.repeat(np.arange(len(self.patterns)), [r.n_flows for r in self.patterns])
        for a in (src, dst, pattern):
            a.setflags(write=False)
        return src, dst, pattern


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
    for value in vars(table).values():
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


def _instances(
    table: _PatternTable, cores_list: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated cores of a placement's instances and each
    instance's ``(k, 1)`` offset into them: instance ``k``'s core of rank
    ``r`` is ``flat[starts[k] + r]``."""
    lo, hi = table.rank_range
    if lo < 0 or hi >= min(c.size for c in cores_list):
        raise ValueError("round refers to ranks outside the communicator")
    flat = np.concatenate(cores_list)
    starts = np.cumsum([0] + [c.size for c in cores_list[:-1]])[:, None]
    return flat, starts


def _placed_patterns(
    table: _PatternTable, cores_list: list[np.ndarray], which: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Core-space ``(src, dst)`` of patterns ``which``, instance-major.

    One flow set per pattern covers every placement at once (instance
    ``k``'s flows follow instance ``k - 1``'s) -- the merged round of
    the "all subcommunicators at once" scenario.
    """
    flat, starts = _instances(table, cores_list)
    # Row ``k`` of ``starts + ranks`` indexes instance ``k``'s cores; the
    # row-major ravel is instance-major.
    for p in which:
        rnd = table.patterns[p]
        yield flat[starts + rnd.src].ravel(), flat[starts + rnd.dst].ravel()


def _placed_flows(
    table: _PatternTable, sets: list[list[np.ndarray]], weight: int, limit: int
) -> Iterator[FlowChunk]:
    """Core-space flows of every pattern of ``table`` under each of
    ``sets``, in tally chunks.

    A unit is one (set, pattern) pair, numbered placement-major, and
    weighs its flows over every instance plus ``weight`` tally cells (the
    machine's core count, the most one level can add).  Chunks take
    whole units, at most ``limit`` of weight (a heavier unit alone), and
    number their units from 0.  A set inside one chunk is placed with
    one gather over the table's concatenated flows
    (:attr:`_PatternTable.flows`).
    """
    n = len(table.patterns)
    placed = [_instances(table, cores_list) for cores_list in sets]
    table_src, table_dst, pattern = table.flows
    n_flows = np.bincount(pattern, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(n_flows))).tolist()
    copies = np.array([starts.shape[0] for _, starts in placed])
    ends = np.concatenate(([0], np.cumsum(np.outer(copies, n_flows) + weight)))
    start = 0
    while start < ends.size - 1:
        stop = int(np.searchsorted(ends, ends[start] + limit, side="right")) - 1
        stop = max(stop, start + 1)
        src, dst, units = [], [], []
        for s in range(start // n, (stop - 1) // n + 1):
            flat, starts = placed[s]
            a, b = offsets[max(start - s * n, 0)], offsets[min(stop - s * n, n)]
            src.append(flat[starts + table_src[a:b]].ravel())
            dst.append(flat[starts + table_dst[a:b]].ravel())
            units.append(np.tile(pattern[a:b] + (s * n - start), starts.shape[0]))
        yield np.concatenate(src), np.concatenate(dst), np.concatenate(units), stop - start
        start = stop


# -- analytic kernels: shared batch driver ---------------------------------

#: Elements one stacked ``(placement set, cell, flow)`` pricing pass of a
#: pattern holds at most (2 MiB per float64 temporary); a pattern whose
#: ``(cell, flow)`` block under one set is larger is priced one set at a
#: time, as large as an unstacked pass.
STACK_CELLS = 1 << 18


def _stacks(
    per_set: Sequence[RoundStructure], cells: int
) -> Iterator[tuple[np.ndarray, RoundStructure]]:
    """One pattern's ``(live, lat, share)`` under many placement sets, stacked.

    Sets whose structures share a live mask (hence a flow count) stack
    into ``(sets, flows)`` ``lat``/``share`` arrays, in runs of at most
    :data:`STACK_CELLS` elements when priced at ``cells`` cells each;
    yields each run's set indices with its stacked structure.
    """
    runs: Dict[Any, list[int]] = {}
    for s, (live, lat, _) in enumerate(per_set):
        runs.setdefault(lat.size if isinstance(live, slice) else live.tobytes(), []).append(s)
    for sets in runs.values():
        live, lat, _ = per_set[sets[0]]
        step = max(1, STACK_CELLS // max(1, cells * lat.size))
        for a in range(0, len(sets), step):
            run = sets[a : a + step]
            yield np.array(run), (
                live,
                np.stack([per_set[s][1] for s in run]),
                np.stack([per_set[s][2] for s in run]),
            )


def _stacked_shape(lat: np.ndarray, payload: np.ndarray) -> tuple[int, ...]:
    """Shape that lines stacked ``(sets, flows)`` structures up with a
    ``(..., flows)`` payload, leading with the set axis."""
    return (lat.shape[0],) + (1,) * (payload.ndim - 1) + (lat.shape[1],)


class _AnalyticBackend:
    """Whole-program pricing shared by the ``round`` and ``logp`` kernels.

    One call prices S placement sets x N programs.  Per alignment group,
    each distinct round pattern gets one memoized structural analysis
    per placement set, and the ``(S, N, R)`` time array fills with
    vector ops over whole patterns and every placement set at once
    rather than one round, or one placement, at a time.  A kernel
    supplies the structures (what scalar payloads need per pattern and
    set), the ``(live, lat, share)`` of the patterns carrying per-flow
    payloads, their pricing, and the summation of the time array, which
    runs along the round axis with ``np.add.accumulate``: its strictly
    sequential additions keep the round-by-round ``total += t * repeat``
    order bit for bit.
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
        return self.run_batch([program], topology, [placements], **options)[0][0]

    def run_batch(
        self,
        programs: Sequence[CommProgram],
        topology: MachineTopology,
        placement_sets: Sequence[Placements],
        **options: Any,
    ) -> list[list[ExecutionResult]]:
        """Score every program under every placement set, one vectorized
        pass per alignment group.

        ``placement_sets[s]`` is one placement (the core arrays of the
        communicator instances that run at once); entry ``[s][j]`` is
        program ``j`` under set ``s``.  ``run(program, topology,
        placements)`` is ``run_batch([program], topology,
        [placements])[0][0]``, and no entry depends on the rest of the
        batch: every vector op is elementwise over the set and program
        axes.

        ``detail=False`` skips the per-round :class:`RoundCost` breakdown
        (``per_round`` comes back empty); total times are unaffected.
        """
        detail = bool(options.get("detail", True))
        programs = list(programs)
        sets = [_as_placements(p) for p in placement_sets]
        results: list[Dict[int, ExecutionResult]] = [{} for _ in sets]
        for idxs in _aligned_groups(programs) if sets else ():
            group = [programs[j] for j in idxs]
            tables = [_pattern_table(p) for p in group]
            ref = tables[0]
            structs = self._pattern_structures(ref, topology, sets)
            times = self._times(group, tables, structs, topology, sets)
            totals = self._totals(times, tables).tolist()
            index = range(len(ref.ids))
            repeats = ref.repeat.tolist()
            for s, cores_list in enumerate(sets):
                per_round: list[tuple] = [()] * len(idxs)
                if detail:
                    copies = len(cores_list) if self._merged_flow_counts else 1
                    n_flows = [r.n_flows * copies for r in ref.patterns]
                    flows = [n_flows[p] for p in ref.ids.tolist()]
                    per_round = [
                        tuple(map(RoundCost, index, repeats, flows, row))
                        for row in times[s].tolist()
                    ]
                for jj, j in enumerate(idxs):
                    results[s][j] = ExecutionResult(self.name, totals[s][jj], per_round[jj])
        return [[out[j] for j in range(len(programs))] for out in results]

    # -- kernel hooks ----------------------------------------------------

    def _pattern_structures(
        self,
        table: _PatternTable,
        topology: MachineTopology,
        sets: list[list[np.ndarray]],
    ) -> Any:
        """The memoized structures of every pattern of ``table`` under
        every placement set: what the kernel needs to price scalar
        payloads."""
        raise NotImplementedError

    def _flow_structures(
        self,
        structs: Any,
        table: _PatternTable,
        topology: MachineTopology,
        sets: list[list[np.ndarray]],
        which: list[int],
    ) -> list[list[RoundStructure]]:
        """Per set, the ``(live, lat, share)`` of patterns ``which``, for
        per-flow payloads (``structs`` are :meth:`_pattern_structures`)."""
        raise NotImplementedError

    @staticmethod
    def _scalar_times(structs: Any, table: _PatternTable, nbytes: np.ndarray) -> np.ndarray:
        """``(n_sets, n_programs, R)`` durations at scalar payloads; ``0.0``
        in rounds without live flows, anything in per-flow-array cells."""
        raise NotImplementedError

    @staticmethod
    def _flow_times(lat: np.ndarray, share: np.ndarray, payload: np.ndarray) -> np.ndarray:
        """Per set and cell, the slowest flow's time: stacked ``(sets,
        flows)`` structures against a ``(..., flows)`` (or ``(..., 1)``)
        payload, giving ``(sets, ...)``."""
        raise NotImplementedError

    @staticmethod
    def _totals(times: np.ndarray, tables: list[_PatternTable]) -> np.ndarray:
        raise NotImplementedError

    def _times(
        self,
        group: list[CommProgram],
        tables: list[_PatternTable],
        structs: Any,
        topology: MachineTopology,
        sets: list[list[np.ndarray]],
    ) -> np.ndarray:
        """The ``(n_sets, len(group), R)`` array of per-round durations.

        The kernel prices every scalar-payload cell at once
        (:meth:`_scalar_times`).  Per pattern, the cells carrying
        per-flow payload arrays then stack into one ``(cells, live
        flows)`` matrix, each row the round's payload tiled once per
        placement (the merged round's flow order) and cut to live flows,
        and price against the pattern's :meth:`_flow_structures`, stacked
        over the sets that share its live mask.
        """
        ref = tables[0]
        times = self._scalar_times(structs, ref, np.array([t.nbytes for t in tables]))
        per_flow = np.array([t.per_flow for t in tables])
        if not per_flow.any():
            return times
        cols = list(ref.cols())
        which = [p for p, c in enumerate(cols) if per_flow[:, c].any()]
        flow_structs = self._flow_structures(structs, ref, topology, sets, which)
        for w, p in enumerate(which):
            rows, at = np.nonzero(per_flow[:, cols[p]])
            at = cols[p][at]
            per_set = [structs_of_set[w] for structs_of_set in flow_structs]
            for run, (live, lat, share) in _stacks(per_set, rows.size):
                if not lat.shape[1]:
                    continue
                k = len(sets[run[0]])
                payload = np.stack(
                    [
                        np.tile(group[j].rounds[r].nbytes_per_flow(), k)[live]
                        for j, r in zip(rows.tolist(), at.tolist())
                    ]
                )
                times[run[:, None], rows, at] = self._flow_times(lat, share, payload)
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
    under many placement sets in one ``(set, program, round, flow)``
    pass.
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
        sets: list[list[np.ndarray]],
    ) -> list[list[RoundStructure]]:
        """Per set, one structure per pattern from the fabric's
        per-pattern memo.  Each set's placed patterns are looked up (and
        dropped) before the next set's are placed: together they would
        weigh as much as the memo entries they key."""
        fabric = self.fabric(topology)
        which = range(len(table.patterns))
        return [
            fabric.round_structures(list(_placed_patterns(table, cores_list, which)))
            for cores_list in sets
        ]

    def _flow_structures(
        self,
        structs: list[list[RoundStructure]],
        table: _PatternTable,
        topology: MachineTopology,
        sets: list[list[np.ndarray]],
        which: list[int],
    ) -> list[list[RoundStructure]]:
        return [[per_set[p] for p in which] for per_set in structs]

    @staticmethod
    def _scalar_times(
        structs: list[list[RoundStructure]], table: _PatternTable, nbytes: np.ndarray
    ) -> np.ndarray:
        times = np.zeros((len(structs), *nbytes.shape))
        rows = np.arange(nbytes.shape[0])[:, None]
        for p, cols in enumerate(table.cols()):
            per_set = [structs_of_set[p] for structs_of_set in structs]
            for run, (_, lat, share) in _stacks(per_set, rows.size * cols.size):
                if lat.shape[1]:
                    times[run[:, None, None], rows, cols] = RoundBackend._flow_times(
                        lat, share, nbytes[:, cols, None]
                    )
        return times

    @staticmethod
    def _flow_times(lat: np.ndarray, share: np.ndarray, payload: np.ndarray) -> np.ndarray:
        shape = _stacked_shape(lat, payload)
        times: np.ndarray = (lat.reshape(shape) + payload / share.reshape(shape)).max(axis=-1)
        return times

    @staticmethod
    def _totals(times: np.ndarray, tables: list[_PatternTable]) -> np.ndarray:
        steps = np.zeros((*times.shape[:-1], times.shape[-1] + 1))
        np.multiply(times, tables[0].repeat, out=steps[..., 1:])
        compute = np.array([t.compute_total for t in tables])
        totals: np.ndarray = np.add.accumulate(steps, axis=-1, out=steps)[..., -1]
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
    ``(alpha, rate_coeff)`` pairs, one ``(P, 2)`` array per (placement,
    pattern table) (:meth:`~repro.netsim.fabric.Fabric.logp_coefficients`),
    so a placement set costs one memo lookup per alignment group and
    scalar payloads one multiply per (set, program, round) -- the
    Hockney ``alpha + n * beta`` form.  A miss derives the pairs
    straight from each pattern's per-component link tallies (the
    busiest link per level, the first-crossed levels' latencies), with
    no per-flow share
    (:meth:`~repro.netsim.fabric.Fabric.tally_coefficients`).  Per-flow
    payload arrays need the per-flow shares, which one uncached stacked
    pass re-derives for just the patterns those cells use; pricing them
    is one ``(set, cell, flow)`` pass.  Decoupling the latency and
    bandwidth maxima makes the model an upper bound of the round model
    up to float rounding (the shares are built as ``count * (1 / bw)``,
    the round model's as ``bw / count``); its fidelity contract is order
    *rankings*, not absolute durations.
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
        sets: list[list[np.ndarray]],
    ) -> np.ndarray:
        """``(n_sets, P, 2)``: the ``(alpha, rate_coeff)`` of every
        pattern of ``table`` under each placement set, from the fabric's
        per-table memo; the missing sets are tallied together, in
        chunks (:func:`_placed_flows`)."""
        fabric = self.fabric(topology)
        coefficients = fabric.logp_coefficients(
            [tuple(c.tobytes() for c in cores_list) for cores_list in sets],
            table.keys,
            lambda missing: _placed_flows(
                table, [sets[s] for s in missing], topology.n_cores, fabric.STACK_FLOWS
            ),
        )
        return np.stack(coefficients)

    def _flow_structures(
        self,
        structs: np.ndarray,
        table: _PatternTable,
        topology: MachineTopology,
        sets: list[list[np.ndarray]],
        which: list[int],
    ) -> list[list[RoundStructure]]:
        placed = [
            pattern
            for cores_list in sets
            for pattern in _placed_patterns(table, cores_list, which)
        ]
        flat = list(self.fabric(topology).fair_shares(placed, inverse=True))
        n = len(which)
        return [flat[s * n : (s + 1) * n] for s in range(len(sets))]

    @staticmethod
    def _scalar_times(structs: np.ndarray, table: _PatternTable, nbytes: np.ndarray) -> np.ndarray:
        # One elementwise ``alpha + nbytes * rate_coeff`` over every
        # (set, program, round) cell, each round reading its pattern's pair.
        coefficients = structs[:, None, table.ids]
        alpha, rate_coeff = coefficients[..., 0], coefficients[..., 1]
        times: np.ndarray = nbytes * rate_coeff
        times += alpha
        times[np.broadcast_to(np.isnan(alpha), times.shape)] = 0.0  # no live flows
        return times

    @staticmethod
    def _flow_times(lat: np.ndarray, inv_share: np.ndarray, payload: np.ndarray) -> np.ndarray:
        shape = _stacked_shape(lat, payload)
        times: np.ndarray = (lat.reshape(shape) + payload * inv_share.reshape(shape)).max(axis=-1)
        return times

    @staticmethod
    def _totals(times: np.ndarray, tables: list[_PatternTable]) -> np.ndarray:
        # ``[t * repeat, compute * repeat]`` per round, interleaved: the
        # accumulation adds them in the per-round order of a scalar loop.
        *lead, n_rounds = times.shape
        repeat = tables[0].repeat
        steps = np.zeros((*lead, 2 * n_rounds + 1))
        np.multiply(times, repeat, out=steps[..., 1::2])
        steps[..., 2::2] = np.array([t.compute for t in tables]) * repeat
        totals: np.ndarray = np.add.accumulate(steps, axis=-1, out=steps)[..., -1]
        return totals

