"""Differential verification: round model vs discrete-event simulation.

The repo carries two independent network models -- the vectorized
synchronized-round bottleneck model (:mod:`repro.netsim.fabric`) and the
exact max-min flow DES (:mod:`repro.netsim.flows` driven by
:mod:`repro.simmpi.runtime`).  The paper's numbers come from the round
model; the DES exists to keep it honest.  This module systematizes the
cross-check: any round schedule is *replayed* on the DES, flow for flow,
and the two durations are compared under a declared tolerance, with a
structured per-round mismatch report when they disagree.

Two replay modes:

- ``lockstep`` simulates each round in isolation on a fresh clock (one
  run of the DES round kernel, scaled by its repeat count), mirroring
  the round model's synchronized-round semantics.  For rounds whose flows carry
  equal bytes the two models agree to float precision whenever every
  flow's bottleneck share equals its max-min rate; progressive filling can
  redistribute capacity released by fast flows, so the DES may finish
  earlier -- the round model is an upper bound, and the per-benchmark
  tolerance declares how loose it is allowed to be.
- ``pipelined`` issues every round back to back in a single DES run with
  no barrier between rounds, so neighbouring ranks skew -- the
  unsynchronized execution a real MPI library would show.  The gap between
  ``pipelined`` and the round model measures how much the synchronized
  abstraction itself costs.

The replay also yields the DES's :class:`~repro.simmpi.runtime.FlowRecord`
stream, which :mod:`repro.verify.invariants` audits for physical
consistency (causality, conservation, capacity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.collectives.base import RoundSpec
from repro.netsim.flows import FlowNetwork
from repro.simmpi.runtime import FlowRecord
from repro.topology.machine import MachineTopology

#: Default declared tolerance on |round - DES| / DES for lockstep replays.
#: Equal-byte single-level rounds agree to ~1e-12; heterogeneous rounds
#: (flows crossing different hierarchy levels, e.g. recursive doubling)
#: diverge through progressive-filling redistribution and per-flow latency
#: staggering, both bounded well inside 15% on the seed machines.
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class RoundTiming:
    """One replayed round pattern."""

    index: int
    repeat: int
    n_flows: int
    t_round: float  # round-model duration of one instance
    t_des: float  # DES duration of one instance (lockstep)

    @property
    def rel_err(self) -> float:
        ref = max(self.t_des, 1e-300)
        return abs(self.t_round - self.t_des) / ref


@dataclass(frozen=True)
class DifferentialCase:
    """Round-model vs DES comparison of one schedule."""

    label: str
    p: int
    total_bytes: float
    mode: str
    tolerance: float
    t_round: float
    t_des: float
    rounds: tuple[RoundTiming, ...] = ()

    @property
    def rel_err(self) -> float:
        ref = max(self.t_des, 1e-300)
        return abs(self.t_round - self.t_des) / ref

    @property
    def ok(self) -> bool:
        return self.rel_err <= self.tolerance

    def mismatch_report(self) -> str:
        """Per-round divergence table (lockstep) or the scalar gap."""
        lines = [
            f"{self.label}: p={self.p} bytes={self.total_bytes:g} "
            f"mode={self.mode} round={self.t_round:.6e}s des={self.t_des:.6e}s "
            f"rel_err={self.rel_err:.3%} tol={self.tolerance:.1%} "
            f"{'OK' if self.ok else 'MISMATCH'}"
        ]
        worst = sorted(self.rounds, key=lambda r: r.rel_err, reverse=True)[:8]
        for rt in worst:
            lines.append(
                f"  round {rt.index:>3} x{rt.repeat:<4} {rt.n_flows:>5} flows  "
                f"round-model {rt.t_round:.6e}s  des {rt.t_des:.6e}s  "
                f"rel {rt.rel_err:.3%}"
            )
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """A batch of differential comparisons."""

    cases: list[DifferentialCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def mismatches(self) -> list[DifferentialCase]:
        return [c for c in self.cases if not c.ok]

    def summary(self) -> str:
        lines = [
            f"differential: {len(self.cases)} case(s), "
            f"{len(self.mismatches)} mismatch(es)"
        ]
        for case in self.cases:
            lines.append(case.mismatch_report())
        return "\n".join(lines)


def replay_rounds_des(
    topology: MachineTopology,
    member_cores: np.ndarray | Sequence[int],
    rounds: Sequence[RoundSpec],
    mode: str = "lockstep",
    listeners: Sequence = (),
    incremental: bool = True,
    audit: bool = False,
    network: FlowNetwork | None = None,
) -> tuple[float, list[RoundTiming], list[FlowRecord]]:
    """Replay a communicator-rank round schedule on the DES.

    Returns ``(makespan, per_round_timings, flow_records)``; per-round
    timings are only populated in ``lockstep`` mode (``pipelined`` has no
    round boundaries to time), each with the round model's time from the
    DES run's cross-check.  ``member_cores[comm_rank]`` is the core of
    communicator rank ``comm_rank``.

    Since the IR refactor this is a thin veneer over the ``des``
    execution backend (:class:`repro.ir.backends.DESBackend`): the rounds
    are lowered to a :class:`~repro.ir.program.CommProgram` and executed
    by the registry's shared instance.  One :class:`FlowNetwork`
    (``network`` if given) serves every lockstep round, so its path
    caches and rate memo carry across the repeated patterns of a
    schedule; ``incremental=False`` forces the from-scratch reference
    solver and ``audit=True`` cross-checks both on every solve.
    """
    from repro.ir import from_rounds, get_backend

    cores = np.asarray(member_cores, dtype=np.int64)
    program = from_rounds(rounds, n_ranks=max(int(cores.size), 1))
    result = get_backend("des").run(
        program,
        topology,
        [cores],
        mode=mode,
        listeners=listeners,
        incremental=incremental,
        audit=audit,
        network=network,
    )
    timings = [
        RoundTiming(
            index=c.index,
            repeat=c.repeat,
            n_flows=c.n_flows,
            t_round=c.seconds if c.model_seconds is None else c.model_seconds,
            t_des=c.seconds,
        )
        for c in result.per_round
    ]
    return result.time, timings, result.records


def compare_schedule(
    topology: MachineTopology,
    member_cores: np.ndarray | Sequence[int],
    rounds: Sequence[RoundSpec],
    label: str = "schedule",
    total_bytes: float = 0.0,
    tolerance: float = DEFAULT_TOLERANCE,
    mode: str = "lockstep",
    incremental: bool = True,
    audit: bool = False,
    network: FlowNetwork | None = None,
    backend: str = "des",
) -> DifferentialCase:
    """Round-model vs reference-backend duration of one schedule.

    ``backend`` names the registered execution backend the round model is
    checked against (``des`` by default -- the model of record; ``logp``
    gives a fast advisory comparison).  The round model's total is its
    rounds' seconds times their repeats, without compute, and every
    per-round row sets the ``round`` backend's time beside the reference
    backend's.  ``mode``, ``incremental``, ``audit`` and ``network`` go
    to the DES only.
    """
    from repro.ir import from_rounds, get_backend
    from repro.ir.backends import round_total

    cores = np.asarray(member_cores, dtype=np.int64)
    program = from_rounds(rounds, n_ranks=max(int(cores.size), 1))
    model = get_backend("round").run(program, topology, [cores]).per_round
    options: dict = {}
    if backend == "des":
        options = dict(mode=mode, incremental=incremental, audit=audit, network=network)
    result = get_backend(backend).run(program, topology, [cores], **options)
    return DifferentialCase(
        label=label,
        p=int(cores.size),
        total_bytes=float(total_bytes),
        mode=mode,
        tolerance=tolerance,
        t_round=round_total(model),
        t_des=result.time,
        rounds=tuple(
            RoundTiming(c.index, c.repeat, c.n_flows, m.seconds, c.seconds)
            for c, m in zip(result.per_round, model)
        ),
    )


def compare_collective(
    topology: MachineTopology,
    member_cores: np.ndarray | Sequence[int],
    collective: str,
    total_bytes: float,
    algorithm: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    mode: str = "lockstep",
    incremental: bool = True,
    audit: bool = False,
    network: FlowNetwork | None = None,
    backend: str = "des",
) -> DifferentialCase:
    """Differential check of one collective on one communicator."""
    from repro.collectives.selector import rounds_for, select_algorithm

    cores = np.asarray(member_cores, dtype=np.int64)
    p = int(cores.size)
    name = algorithm or select_algorithm(collective, p, total_bytes)
    rounds = rounds_for(collective, p, total_bytes, name)
    return compare_schedule(
        topology,
        cores,
        rounds,
        label=f"{collective}/{name}",
        total_bytes=total_bytes,
        tolerance=tolerance,
        mode=mode,
        incremental=incremental,
        audit=audit,
        network=network,
        backend=backend,
    )


def seed_benchmark_suite(
    topology: MachineTopology | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    total_bytes: float = 1e6,
    incremental: bool = True,
    audit: bool = False,
    backend: str = "des",
) -> DifferentialReport:
    """The seed benchmarks, cross-checked between both network models.

    Covers the paper's three micro-benchmarked collectives with both their
    small- and large-message algorithms on the Figure 1 machine (packed
    cores and one spread placement each).  A single :class:`FlowNetwork`
    is shared across every case so repeated round patterns (ring phases,
    pairwise exchanges recurring between placements) hit the rate memo.
    """
    from repro.topology.machines import generic_cluster

    topology = topology or generic_cluster((2, 2, 4), names=("node", "socket", "core"))
    p = 8
    packed = np.arange(p, dtype=np.int64)
    spread = np.arange(0, topology.n_cores, topology.n_cores // p, dtype=np.int64)
    report = DifferentialReport()
    net = FlowNetwork(topology, incremental=incremental, audit=audit)
    suite = [
        ("alltoall", "pairwise"),
        ("alltoall", "bruck"),
        ("allgather", "ring"),
        ("allgather", "recursive_doubling"),
        ("allreduce", "ring"),
        ("allreduce", "rabenseifner"),
    ]
    for collective, algorithm in suite:
        for cores, where in ((packed, "packed"), (spread, "spread")):
            case = compare_collective(
                topology, cores, collective, total_bytes,
                algorithm=algorithm, tolerance=tolerance,
                incremental=incremental, audit=audit, network=net,
                backend=backend,
            )
            report.cases.append(
                DifferentialCase(
                    label=f"{case.label}@{where}",
                    p=case.p,
                    total_bytes=case.total_bytes,
                    mode=case.mode,
                    tolerance=case.tolerance,
                    t_round=case.t_round,
                    t_des=case.t_des,
                    rounds=case.rounds,
                )
            )
    return report
