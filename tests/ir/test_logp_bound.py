"""logp bounds the round model from above, up to float rounding.

Per round, logp prices ``max(lat) + nbytes * max(1 / share)``, which is
never below the round model's ``max(lat + nbytes / share)`` in exact
arithmetic.  The two models build the shares differently
(``count * (1 / bw)`` against ``bw / count``), so a float result may
fall below by a few ulps, never by more.
"""

from __future__ import annotations

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bench.microbench import comm_members  # noqa: E402
from repro.core.hierarchy import Hierarchy  # noqa: E402
from repro.ir import collective_program, get_backend  # noqa: E402
from repro.topology.machines import generic_cluster  # noqa: E402

COLLECTIVES = ["alltoall", "allgather", "allreduce", "bcast", "reduce_scatter"]
PAYLOADS = [2e3, 16e3, 1e5, 1e6, 8e6, 64e6]


@st.composite
def points(draw):
    radices = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    h = Hierarchy(radices)
    divisors = [d for d in range(2, h.size + 1) if h.size % d == 0]
    return {
        "topology": dataclasses.replace(
            generic_cluster(radices), root_bw=draw(st.sampled_from([0.0, 4e10]))
        ),
        "hierarchy": h,
        "order": tuple(draw(st.permutations(range(len(radices))))),
        "comm_size": draw(st.sampled_from(divisors)),
        "collective": draw(st.sampled_from(COLLECTIVES)),
        "total_bytes": draw(st.sampled_from(PAYLOADS)),
    }


@given(pt=points())
@settings(max_examples=60)
def test_logp_upper_bounds_round(pt):
    program = collective_program(
        pt["collective"], pt["comm_size"], pt["total_bytes"]
    )
    members = comm_members(pt["hierarchy"], pt["order"], pt["comm_size"])
    for placements in ([members[0]], list(members)):
        logp = get_backend("logp").run(program, pt["topology"], placements)
        rnd = get_backend("round").run(program, pt["topology"], placements)
        assert logp.time >= rnd.time * (1 - 1e-12)
