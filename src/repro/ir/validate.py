"""Validation pass over :class:`~repro.ir.program.CommProgram`.

Subsumes the scattered well-formedness checks that used to live in the
converters (``rounds_to_schedule``'s rank-range check, the ad-hoc
endpoint bucketing in ``repro.verify.differential``):

- **rank range**: every endpoint names a rank inside the communicator;
- **payload sanity**: finite, non-negative byte counts;
- **matched send/recv pairs + byte conservation**: the per-rank op view
  must contain exactly one :class:`~repro.ir.program.SendOp` and one
  :class:`~repro.ir.program.RecvOp` per flow, agreeing on peers, tag and
  byte count.  Flows are matched by ``(sender, receiver, tag)`` -- the
  same identity the DES's FIFO channels use.  Failures carry per-op
  diagnostics (the rank and the op's index in that rank's round
  program), so a hand-built lowering can be debugged flow by flow;
- **no self-deadlock**: under round-barrier semantics all sends are
  nonblocking, so a round deadlocks iff some posted receive never gets a
  matching send (or a send is never drained) -- exactly an unmatched
  half above.  A clean report therefore certifies lockstep
  deadlock-freedom.  Self-flows (``src == dst``) are legal and complete
  locally.

For a plain :class:`CommProgram` the op view is *derived* from the
vector arrays with per-flow tags, so every send half pairs with its
receive half by construction -- the endpoint scan can never find a
defect the array checks missed, and ``validate_program`` skips it (the
pass stays O(flows) in vectorized NumPy, which keeps the registry's
validate-on-lower policy cheap at thousands of ranks).  Subclasses that
override ``_round_ops`` (drift injection, instrumented views) get the
full op-view scan.

``validate_program`` returns a structured :class:`ValidationReport`;
``check_program`` raises :class:`IRValidationError` on the first report
with problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ir.program import CommProgram, CommRound, RecvOp, SendOp


class IRValidationError(ValueError):
    """A program failed the IR validation pass."""


@dataclass(frozen=True)
class ValidationIssue:
    """One defect found in one round.

    ``rank`` and ``op_index`` locate the defect in the per-rank op view
    (the rank whose program holds the offending half, and the op's index
    within that rank's round program); ``None`` for defects of the whole
    round (rank range, payload sanity).
    """

    round_index: int
    kind: str  # rank_range | payload | unmatched | conservation
    message: str
    rank: int | None = None
    op_index: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.rank is not None:
            where = f" (rank {self.rank}, op {self.op_index})"
        return f"round {self.round_index}: [{self.kind}] {self.message}{where}"


@dataclass
class ValidationReport:
    """All defects found in a program."""

    n_ranks: int
    n_rounds: int
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        head = (
            f"program: {self.n_ranks} rank(s), {self.n_rounds} distinct round(s), "
            f"{len(self.issues)} issue(s)"
        )
        return "\n".join([head, *(str(i) for i in self.issues)])


def validate_program(program: CommProgram) -> ValidationReport:
    """Run every check; never raises."""
    report = ValidationReport(
        n_ranks=program.n_ranks, n_rounds=program.n_distinct_rounds
    )
    n = program.n_ranks
    # Programs whose op view is the canonical derivation pair each send
    # with its receive by construction (unique per-flow tags), so only
    # the vectorized array checks can fail; overridden op views get the
    # full endpoint scan.
    derived_ops = type(program)._round_ops is CommProgram._round_ops
    # Rounds mostly repeat a few patterns: each distinct pattern's rank
    # range is checked once, and every round of a bad one is reported.
    out_of_range: dict[tuple[bytes, bytes], bool] = {}
    for index, rnd in enumerate(program.rounds):
        key = rnd.structure_key()
        bad = out_of_range.get(key)
        if bad is None:
            src, dst = rnd.src, rnd.dst
            bad = out_of_range[key] = bool(src.size) and bool(
                src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
            )
        if bad:
            report.issues.append(
                ValidationIssue(
                    index,
                    "rank_range",
                    "round refers to ranks outside the communicator "
                    f"(0..{n - 1})",
                )
            )
            continue  # endpoint checks below would index out of range
        if rnd.src.size and not _payload_ok(rnd):
            report.issues.append(
                ValidationIssue(
                    index, "payload", "payloads must be finite and >= 0"
                )
            )
            continue
        if not derived_ops:
            _check_endpoints(program, report, index, rnd)
    return report


def _payload_ok(rnd: CommRound) -> bool:
    """Finite, non-negative byte counts: a scalar payload is checked as
    one number, a per-flow array element by element."""
    nbytes = rnd.nbytes
    if isinstance(nbytes, (float, int)):
        return math.isfinite(nbytes) and nbytes >= 0
    nb = rnd.nbytes_per_flow()
    return bool(np.all(np.isfinite(nb)) and nb.min() >= 0)


def _check_endpoints(
    program: CommProgram, report: ValidationReport, index: int, rnd: CommRound
) -> None:
    """Match the op view's send and receive halves flow for flow.

    The op view is what the DES executes, so validating it (rather than
    re-reading the vector arrays the ops were derived from) catches both
    malformed rounds and any drift in the derivation itself.  Each half
    remembers which rank posted it at which op index, so failures name
    the exact op to look at.
    """
    sends: dict[tuple[int, int, int], tuple[float, int, int]] = {}
    recvs: dict[tuple[int, int, int], tuple[float, int, int]] = {}
    for rank in range(program.n_ranks):
        for pos, op in enumerate(program._round_ops(rank, index, rnd)):
            if isinstance(op, SendOp):
                sends[(rank, op.peer, op.tag)] = (op.nbytes, rank, pos)
            elif isinstance(op, RecvOp):
                recvs[(op.peer, rank, op.tag)] = (op.nbytes, rank, pos)
    for key in sends.keys() - recvs.keys():
        _, rank, pos = sends[key]
        report.issues.append(
            ValidationIssue(
                index,
                "unmatched",
                f"send {key[0]}->{key[1]} tag {key[2]} has no matching "
                "receive; the receiver blocks at the barrier",
                rank=rank,
                op_index=pos,
            )
        )
    for key in recvs.keys() - sends.keys():
        _, rank, pos = recvs[key]
        report.issues.append(
            ValidationIssue(
                index,
                "unmatched",
                f"receive {key[0]}->{key[1]} tag {key[2]} has no matching "
                f"send; rank {key[1]} blocks at the barrier",
                rank=rank,
                op_index=pos,
            )
        )
    for key in sends.keys() & recvs.keys():
        sent, _, _ = sends[key]
        expected, rank, pos = recvs[key]
        if sent != expected:
            report.issues.append(
                ValidationIssue(
                    index,
                    "conservation",
                    f"flow {key[0]}->{key[1]} tag {key[2]}: sender moves "
                    f"{sent:g} bytes but receiver expects {expected:g}",
                    rank=rank,
                    op_index=pos,
                )
            )


def check_program(program: CommProgram) -> CommProgram:
    """Validate and return the program; raise on any defect.

    The raised message keeps the historical phrasing ("round refers to
    ranks outside the communicator") that pre-IR callers matched on.
    """
    report = validate_program(program)
    if not report.ok:
        raise IRValidationError(report.summary())
    return program
