"""Property test: an interrupted-then-resumed sweep is bitwise identical.

The crash-safety contract of :mod:`repro.engine` is that interruption at
*any* point -- after any prefix of completions, at any jobs count, with
or without a corrupted survivor record -- changes only how much work the
resumed run repeats, never its results: the resumed sweep re-evaluates
exactly the keys that never durably completed and reproduces the
uninterrupted output bit for bit.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.hierarchy import Hierarchy  # noqa: E402
from repro.engine import EvalRequest, SweepEngine  # noqa: E402
from repro.engine.evaluators import EVALUATORS  # noqa: E402
from repro.topology.machines import generic_cluster  # noqa: E402
from repro.workloads import collective_params


H = Hierarchy((2, 2, 4), names=("node", "socket", "core"))
TOPO = generic_cluster((2, 2, 4), names=("node", "socket", "core"))
N_POINTS = 5


def _probe_eval(req: EvalRequest) -> dict:
    # Deterministic, key-dependent, and cheap: a stand-in for any model.
    return {"value": float(req.param("total_bytes") or 0.0) * 1.5, "tag": 7.0}


if "resume_probe" not in EVALUATORS:  # once per session; workers inherit
    EVALUATORS["resume_probe"] = _probe_eval


def _requests() -> list[EvalRequest]:
    return [
        EvalRequest(
            model="resume_probe",
            topology=TOPO,
            hierarchy=H,
            order=(0, 1, 2),
            comm_size=4,
            workload="collective",
            workload_params=collective_params("alltoall", 4, float((i + 1) * 10_000)),
        )
        for i in range(N_POINTS)
    ]


#: The uninterrupted reference: serial, no cache, no journal.
REFERENCE = SweepEngine(jobs=1).evaluate_many(_requests())


@settings(max_examples=15, deadline=None)
@given(
    interrupt_after=st.integers(min_value=0, max_value=N_POINTS),
    jobs=st.sampled_from([1, 2]),
    corrupt_survivor=st.booleans(),
)
def test_resume_is_bitwise_identical(interrupt_after, jobs, corrupt_survivor):
    reqs = _requests()
    cache_dir = tempfile.mkdtemp(prefix="resume-prop-")
    try:
        # An interrupted sweep: the first `interrupt_after` points
        # complete (cached + journaled), then the process dies.
        interrupted = SweepEngine(jobs=jobs, cache_dir=cache_dir)
        interrupted.evaluate_many(reqs[:interrupt_after])
        if interrupted.journal is not None:
            interrupted.journal.close()

        # Optionally one survivor's cache record is torn by the crash.
        torn = 0
        if corrupt_survivor and interrupt_after > 0:
            key = reqs[0].key
            record = interrupted.cache._path(key)
            record.write_text(record.read_text()[:25])
            torn = 1

        resumed = SweepEngine(jobs=jobs, cache_dir=cache_dir)
        out = resumed.evaluate_many(reqs)

        assert out == REFERENCE
        assert not resumed.failures
        # Exactly the incomplete keys (plus any torn survivor) re-ran.
        assert resumed.stats.journal_replayed == interrupt_after
        assert resumed.stats.evaluated == N_POINTS - interrupt_after + torn
        assert resumed.stats.cache_quarantined == torn
        assert resumed.stats.journal_missing == torn

        # A third run over the repaired cache is pure recall.
        warm = SweepEngine(jobs=jobs, cache_dir=cache_dir)
        assert warm.evaluate_many(reqs) == REFERENCE
        assert warm.stats.evaluated == 0
        assert warm.stats.cache_hit_rate == 1.0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
