"""Structured failures for result grids.

The supervised engine salvages a grid by returning quarantined points
as :class:`~repro.engine.supervisor.EvalFailure` result dicts.  Grid
consumers that need every point (advice assembly, ranking) lift them
into :class:`FailedPoint` coordinates with :func:`failed_point` and
raise one :class:`BatchEvaluationError` naming them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.orders import format_order


@dataclass(frozen=True)
class FailedPoint:
    """One grid point whose evaluation was quarantined as a failure."""

    order: tuple[int, ...] | None
    total_bytes: float | None
    cause: str
    detail: str
    key: str

    def describe(self) -> str:
        order = format_order(self.order) if self.order is not None else "?"
        size = f"{self.total_bytes:g} B" if self.total_bytes is not None else "? B"
        return f"order {order} @ {size}: {self.cause} ({self.detail})"


def failed_point(
    record: dict,
    order: tuple[int, ...] | None = None,
    total_bytes: float | None = None,
) -> FailedPoint:
    """Lift a salvaged :class:`~repro.engine.supervisor.EvalFailure`
    result record into a :class:`FailedPoint` at known grid coordinates."""
    return FailedPoint(
        order=order,
        total_bytes=total_bytes,
        cause=str(record.get("failure_cause", "unknown")),
        detail=str(record.get("failure_detail", "")),
        key=str(record.get("failure_key", "")),
    )


class BatchEvaluationError(RuntimeError):
    """A result grid contains quarantined evaluation failures.

    The supervised fallback path salvages a batch by recording tasks that
    exhausted their attempt budget as structured
    :class:`~repro.engine.supervisor.EvalFailure` result dicts instead of
    aborting the sweep.  Consumers that need every grid point (stacking,
    ranking, advice assembly) raise this instead of an opaque
    ``KeyError``/``TypeError``: :attr:`points` names each failed
    ``(order, payload)`` coordinate with its cause.  Failures are never
    cached or logged, so re-running the same grid retries exactly these
    points.
    """

    def __init__(self, points: Sequence[FailedPoint], context: str = ""):
        self.points = tuple(points)
        head = context or "batch evaluation"
        shown = "; ".join(p.describe() for p in self.points[:8])
        more = f" (+{len(self.points) - 8} more)" if len(self.points) > 8 else ""
        super().__init__(
            f"{head}: {len(self.points)} grid point(s) failed evaluation -- "
            f"{shown}{more}; failures are never cached, so re-running the "
            "grid retries exactly these points"
        )
