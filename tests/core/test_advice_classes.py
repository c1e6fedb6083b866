"""Every order an answer lists takes its class's predicted time.

The advisor scores one representative per class and reports that time
for every order the class lists, so a class may only hold orders whose
placements run isomorphic simulations.  This property checks the claim
end to end, across the layers that answer the same question: each order
an :func:`~repro.core.advisor.advise` answer lists, asked about alone
(``orders=[o]``, a fresh engine, nothing to share a result with), must
come back with its class's ``predicted_seconds`` bitwise, and a plain
:func:`~repro.bench.sweeps.sweep` over every order must give it the
same summed time.  The classes must partition the orders, and a
fidelity ladder that eliminates nothing (``eta=1``, one rung at the
backend) must answer with the same bytes.

Drawn over the hydra and lumi presets and a generic machine whose
levels all have different link parameters, every communicator size
that divides the machine, three collectives, both scenarios and the
``round`` and ``logp`` backends.  Signature classes (Section 3.3's ring
cost and pairs per level) fail it: on lumi(2) at 64 ranks, allreduce,
order 0-4-3-1-2 alone takes 3.7 times the time its signature class
reported.
"""

from __future__ import annotations

import json

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.bench.sweeps import sweep
from repro.core.advisor import advise
from repro.core.orders import all_orders, format_order
from repro.engine.fidelity import LadderConfig
from repro.topology.hwloc import parse_synthetic
from repro.topology.machines import topology_for

#: ``(machine, hwloc-synthetic hierarchy)``; the generic machine grades
#: link bandwidth and latency per level.
MACHINES = (
    ("hydra", "node:4 socket:2 group:2 core:8"),
    ("lumi", "node:2 socket:2 numa:4 l3:2 core:8"),
    ("generic", "node:2 socket:3 l3:2 core:4"),
)

SIZES = (1e5, 64e6)


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


@st.composite
def _queries(draw):
    machine, text = draw(st.sampled_from(MACHINES))
    h = parse_synthetic(text)
    return (
        machine,
        text,
        draw(st.sampled_from(_divisors(h.size))),
        draw(st.sampled_from(("alltoall", "allgather", "allreduce"))),
        draw(st.sampled_from(("all", "single"))),
        draw(st.sampled_from(("round", "logp"))),
    )


@seed(27)
@settings(max_examples=12, deadline=None)
@given(_queries())
@example(("lumi", MACHINES[1][1], 64, "allreduce", "all", "round"))
@example(("lumi", MACHINES[1][1], 64, "allreduce", "single", "round"))
def test_listed_orders_take_their_class_time(query):
    machine, text, comm_size, collective, scenario, backend = query
    h = parse_synthetic(text)
    topo = topology_for(machine, h)
    ask = dict(total_bytes=SIZES, scenario=scenario, backend=backend)
    advice = advise(topo, h, comm_size, collective, **ask)

    listed = [o for rec in advice.recommendations for o in rec.equivalent_orders]
    assert sorted(listed) == sorted(all_orders(h.depth))
    assert len(set(listed)) == len(listed)

    # A ladder that eliminates nothing answers like plain advice, ties
    # included.
    key = "duration_all" if scenario == "all" else "duration_single"
    ladder = LadderConfig(rungs=(backend,), eta=1, top_k=10**6)
    laddered = advise(topo, h, comm_size, collective, ladder=ladder, **ask)
    assert json.dumps(laddered.to_jsonable()) == json.dumps(advice.to_jsonable())

    swept: dict[str, list[float]] = {}
    for record in sweep(topo, h, [comm_size], [collective], SIZES, backend=backend):
        swept.setdefault(record.order, []).append(getattr(record, key))

    for rec in advice.recommendations:
        for order in rec.equivalent_orders:
            alone = advise(topo, h, comm_size, collective, orders=[order], **ask)
            assert alone.best.predicted_seconds == rec.predicted_seconds, (
                order, rec.order
            )
            assert sum(swept[format_order(order)]) == rec.predicted_seconds, (
                order, rec.order
            )
