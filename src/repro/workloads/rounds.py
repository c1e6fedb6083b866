"""The raw-rounds workload: hand-built round lists as a registry citizen.

Each round is a JSON-able sequence ``[src, dst, nbytes]`` optionally
extended to ``[src, dst, nbytes, repeat, compute]``; ``src``/``dst`` are
flow endpoint lists and ``nbytes`` is a scalar or a per-flow list.  This
is how ad-hoc programs (experiments, regression cases, service payloads)
enter the same validated, memoized lowering path as the builtin
producers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.workloads.base import ParamSpec, WorkloadError, register_workload

if TYPE_CHECKING:
    from repro.ir.program import CommProgram


class RoundsWorkload:
    name = "rounds"
    description = "raw communication rounds ([src, dst, nbytes, ...] lists)"
    params = (
        ParamSpec(
            "rounds", "json",
            doc="list of [src, dst, nbytes] or [src, dst, nbytes, repeat, compute]",
        ),
        ParamSpec(
            "n_ranks", "int", default=None,
            doc="communicator size (default: one past the largest endpoint)",
        ),
        ParamSpec("label", "str", default=None, doc="provenance label"),
    )

    def lower(
        self,
        *,
        rounds: tuple[Any, ...],
        n_ranks: int | None = None,
        label: str | None = None,
    ) -> CommProgram:
        import numpy as np

        from repro.ir.lower import from_rounds
        from repro.ir.program import CommRound, ProgramMeta

        lowered = []
        for i, entry in enumerate(rounds):
            if not isinstance(entry, tuple) or not 3 <= len(entry) <= 5:
                raise WorkloadError(
                    f"round {i} must be [src, dst, nbytes] or "
                    f"[src, dst, nbytes, repeat, compute], got {entry!r}"
                )
            src, dst, nbytes = entry[0], entry[1], entry[2]
            repeat = int(entry[3]) if len(entry) >= 4 else 1
            compute = float(entry[4]) if len(entry) >= 5 else 0.0
            try:
                lowered.append(
                    CommRound(
                        np.asarray(src, dtype=np.int64),
                        np.asarray(dst, dtype=np.int64),
                        np.asarray(nbytes, dtype=float)
                        if isinstance(nbytes, tuple)
                        else float(nbytes),
                        repeat=repeat,
                        compute=compute,
                    )
                )
            except (TypeError, ValueError) as exc:
                raise WorkloadError(f"round {i} is malformed: {exc}") from None
        meta = ProgramMeta(source="rounds", label=label)
        return from_rounds(lowered, n_ranks=n_ranks, meta=meta)


register_workload(RoundsWorkload())
