"""Golden lock: the batch path reproduces the fig3 golden exactly.

``tests/ir/golden_fig3.json`` pins the seed round-model durations of the
fig3 grid.  ``tests/ir/test_golden_fig3.py`` holds chunks on engine
workers to it; this module holds the in-process chunk to the same
fixture, so a batch kernel regression cannot hide behind a matching
in-process/worker comparison:

- the ``round`` backend through ``fig3_data()`` (no engine workers, so
  the grid is one in-process vectorized pass) must stay
  bitwise identical to the golden ``repr`` strings, and its fastest-first
  order ranking must equal the golden ranking exactly;
- the ``logp`` backend through the batch path is advisory, so its
  per-size Kendall tau against the golden ranking must average >= 0.9
  (the same floor the scalar logp path is held to).

Regenerate the fixture only after an intentional model change, via
``tests/verify/regen_golden.py`` (the ``--fig3`` entry rewrites
``golden_fig3.json`` from the scalar round path; this test then verifies
the batch path reproduces it).
"""

import json
from pathlib import Path

import pytest

from repro.bench.figures import FIG3_ORDERS, fig3_data
from repro.core.orders import format_order
from repro.engine import SweepEngine
from tests.ir.test_golden_fig3 import kendall_tau

GOLDEN = Path(__file__).parent / "golden_fig3.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["orders"]


def _golden_ranking(golden, scenario: str) -> list[str]:
    """Fastest-first order names by summed golden duration."""
    orders = [format_order(o) for o in FIG3_ORDERS]
    totals = {
        o: sum(float(x) for x in golden[o][scenario]) for o in orders
    }
    return sorted(orders, key=lambda o: totals[o])


class TestRoundBatchGolden:
    def test_bitwise_identical_to_golden(self, golden):
        series = fig3_data()
        assert len(series) == len(FIG3_ORDERS)
        for s in series:
            ref = golden[format_order(s.order)]
            assert [repr(p.total_bytes) for p in s.points] == ref["sizes"]
            assert [repr(p.duration_single) for p in s.points] == ref[
                "duration_single"
            ]
            assert [repr(p.duration_all) for p in s.points] == ref[
                "duration_all"
            ]

    @pytest.mark.parametrize("scenario", ["duration_single", "duration_all"])
    def test_order_ranking_matches_golden(self, golden, scenario):
        series = fig3_data(engine=SweepEngine())
        attr = scenario
        totals = {
            format_order(s.order): sum(getattr(p, attr) for p in s.points)
            for s in series
        }
        got = sorted(totals, key=lambda o: totals[o])
        assert got == _golden_ranking(golden, scenario)


class TestLogPBatchGolden:
    @pytest.mark.parametrize("scenario", ["duration_single", "duration_all"])
    def test_ranking_tau_at_least_0_9(self, golden, scenario):
        series = {
            format_order(s.order): s
            for s in fig3_data(backend="logp")
        }
        orders = [format_order(o) for o in FIG3_ORDERS]
        n_sizes = len(golden[orders[0]][scenario])
        taus = []
        for i in range(n_sizes):
            ref = [float(golden[o][scenario][i]) for o in orders]
            got = [getattr(series[o].points[i], scenario) for o in orders]
            taus.append(kendall_tau(ref, got))
        mean_tau = sum(taus) / len(taus)
        assert mean_tau >= 0.9, f"mean Kendall tau {mean_tau:.3f} < 0.9 ({taus})"
