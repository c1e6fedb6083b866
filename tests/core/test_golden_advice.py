"""Golden bytes of the advisor's answers, and a reference for its rendering.

``golden_advice.json`` pins, as sha256 digests, the exact bytes of
``json.dumps(advice.to_jsonable())`` and of ``advice.report()`` for the
served query shapes (the 14 shapes the end-to-end ``advise_warm``
workload draws, on the ``logp`` and ``round`` backends), one fidelity
ladder finalist subset and one ``orders=`` subset query.  Served and
offline answers share the assembly code, so only a fixture fixed
beforehand catches a change in how an answer is rendered.

The property test compares the advisor's assembly against
:func:`reference_jsonable`/:func:`reference_report`: the per-query
rendering the advisor used before per-class pieces were memoized, with
the Slurm string found by a linear scan of ``expressible_distributions``.

Regenerate the fixture only after an intentional change to an answer::

    PYTHONPATH=src python tests/core/test_golden_advice.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.advisor import _assemble, advise, ladder_advise, plan_query
from repro.core.hierarchy import Hierarchy
from repro.core.metrics import signature
from repro.core.orders import all_orders, format_order
from repro.launcher.slurm import expressible_distributions
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import generic_cluster, topology_for
from repro.workloads import collective_cells

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_advice.json"

HYDRA4 = ("hydra", "node:4 socket:2 group:2 core:8")
LUMI2 = ("lumi", "node:2 socket:2 numa:4 l3:2 core:8")

#: The served query shapes, as ``benchmarks/e2e/jobs.py`` draws them.
SHAPES = (
    (HYDRA4, 16, "alltoall"),
    (HYDRA4, 64, "alltoall"),
    (HYDRA4, 16, "allreduce"),
    (HYDRA4, 64, "allgather"),
    (LUMI2, 16, "alltoall"),
    (HYDRA4, 8, "alltoall"),
    (HYDRA4, 32, "alltoall"),
    (HYDRA4, 32, "allreduce"),
    (HYDRA4, 64, "allreduce"),
    (HYDRA4, 8, "allgather"),
    (HYDRA4, 16, "allgather"),
    (LUMI2, 64, "alltoall"),
    (HYDRA4, 8, "allreduce"),
    (HYDRA4, 32, "allgather"),
)

SIZES = (1e5, 64e6)


def _machine(spec):
    machine, text = spec
    h = parse_synthetic(text)
    return topology_for(machine, h), h


def golden_advice() -> dict:
    """Label -> :class:`~repro.core.advisor.Advice` of every pinned query."""
    out = {}
    for backend in ("logp", "round"):
        for spec, comm_size, collective in SHAPES:
            topo, h = _machine(spec)
            out[f"{spec[0]}@{comm_size}:{collective}:{backend}"] = advise(
                topo, h, comm_size, collective, total_bytes=SIZES, backend=backend
            )
    for spec, comm_size in ((HYDRA4, 16), (LUMI2, 16)):
        topo, h = _machine(spec)
        plan = plan_query(
            topo, h, collective_cells([comm_size], ["alltoall"], SIZES),
            backend="round",
        )
        out[f"{spec[0]}@{comm_size}:alltoall:round:ladder"] = ladder_advise(plan)[0]
    topo, h = _machine(LUMI2)
    subset = all_orders(h.depth)[::7]
    out["lumi@16:allgather:logp:orders"] = advise(
        topo, h, 16, "allgather", total_bytes=SIZES, backend="logp", orders=subset
    )
    return out


def digests(advice) -> dict:
    return {
        "json": hashlib.sha256(json.dumps(advice.to_jsonable()).encode()).hexdigest(),
        "report": hashlib.sha256(advice.report().encode()).hexdigest(),
    }


def test_answers_match_golden_bytes():
    golden = json.loads(GOLDEN_PATH.read_text())["cases"]
    answers = golden_advice()
    assert set(answers) == set(golden)
    for label, advice in answers.items():
        assert digests(advice) == golden[label], label


# -- the reference rendering ------------------------------------------------


def reference_slurm(hierarchy: Hierarchy, order) -> str | None:
    """``order_to_distribution`` as a scan: the first match wins."""
    for value, candidate in expressible_distributions(hierarchy).items():
        if candidate == tuple(order):
            return value
    return None


def _reference_recs(plan, totals) -> list[dict]:
    recs = []
    for cls, total in zip(plan.classes, totals):
        rep = cls.order
        slurm = reference_slurm(plan.hierarchy, rep)
        tag = f" [{slurm}]" if slurm else ""
        legend = signature(plan.hierarchy, rep, plan.comm_size).legend()
        recs.append(
            {
                "order": list(rep),
                "order_name": format_order(rep),
                "equivalent_orders": [format_order(o) for o in cls.members],
                "predicted_seconds": total,
                "slurm_distribution": slurm,
                "legend": f"{legend}{tag} -> {total * 1e3:.3f} ms",
            }
        )
    recs.sort(key=lambda r: r["predicted_seconds"])
    return recs


def reference_jsonable(plan, totals) -> dict:
    recs = _reference_recs(plan, totals)
    return {
        "collective": plan.name,
        "comm_size": plan.comm_size,
        "scenario": plan.scenario,
        "recommendations": recs,
        "spread_factor": recs[-1]["predicted_seconds"] / recs[0]["predicted_seconds"],
    }


def reference_report(plan, totals) -> str:
    doc = reference_jsonable(plan, totals)
    lines = [
        f"advice for {plan.name} in {plan.comm_size}-rank "
        f"communicators ({plan.scenario} scenario):"
    ]
    for i, rec in enumerate(doc["recommendations"]):
        n = len(rec["equivalent_orders"])
        extra = f" (+{n - 1} equivalent)" if n > 1 else ""
        lines.append(f"  {i + 1}. {rec['legend']}{extra}")
    lines.append(f"worst/best factor: {doc['spread_factor']:.2f}x")
    return "\n".join(lines)


@st.composite
def _queries(draw):
    depth = draw(st.integers(2, 5))
    radices = tuple(draw(st.lists(st.integers(2, 4), min_size=depth, max_size=depth)))
    size = 1
    for r in radices:
        size *= r
    assume(size <= 512)
    comm_size = draw(st.sampled_from([d for d in range(2, size + 1) if size % d == 0]))
    orders = None
    if draw(st.booleans()):
        orders = draw(
            st.lists(st.sampled_from(all_orders(depth)), min_size=1, max_size=8,
                     unique=True)
        )
    scenario = draw(st.sampled_from(("all", "single")))
    return radices, comm_size, orders, scenario


@given(query=_queries(), data=st.data())
def test_assembly_matches_reference_rendering(query, data):
    radices, comm_size, orders, scenario = query
    h = Hierarchy(radices)
    plan = plan_query(
        generic_cluster(radices), h,
        collective_cells([comm_size], ["alltoall"], [1e6]),
        scenario=scenario, orders=orders, backend="logp",
    )
    totals = data.draw(
        st.lists(
            st.floats(1e-9, 10.0, allow_nan=False),
            min_size=len(plan.classes), max_size=len(plan.classes),
        )
    )
    advice = _assemble(plan, totals)
    want = reference_jsonable(plan, totals)
    assert advice.to_jsonable() == want
    assert [r.legend() for r in advice.recommendations] == [
        r["legend"] for r in want["recommendations"]
    ]
    assert advice.report() == reference_report(plan, totals)
    # Rendering twice gives fresh, equal documents.
    first = advice.to_jsonable()
    first["recommendations"][0]["equivalent_orders"].append("x")
    assert advice.to_jsonable() == want


def regen() -> None:
    cases = {label: digests(a) for label, a in sorted(golden_advice().items())}
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "description": (
                    "sha256 of json.dumps(advice.to_jsonable()) and of "
                    "advice.report() per query; regenerate with "
                    "tests/core/test_golden_advice.py --regen"
                ),
                "cases": cases,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(f"usage: {sys.argv[0]} --regen")
    regen()
