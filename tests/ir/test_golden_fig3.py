"""Cross-backend golden equivalence on the Figure 3 seed sweep.

``tests/ir/golden_fig3.json`` pins the pre-IR round-model durations of the
fig3 grid (6 orders x 9 sizes, both scenarios) as ``repr`` strings.  The
``round`` backend must stay *bitwise* identical to it; the ``logp``
backend is advisory, so it is held to ranking fidelity instead: the
per-size Kendall tau between its order ranking and the golden ranking
must average >= 0.9.  Both run the per-request path, one task per point
on two engine workers (``tests/ir/test_golden_batch.py`` holds the
in-process vectorized path to the same fixture).  (The ``des``
backend's bitwise contract is pinned
separately by ``tests/verify/golden_differential.json`` -- fig3's 512
ranks are DES-prohibitive in unit tests.)
"""

import json
from pathlib import Path

import pytest

from repro.bench.figures import FIG3_ORDERS, fig3_data
from repro.core.orders import format_order
from repro.engine import SweepEngine

GOLDEN = Path(__file__).parent / "golden_fig3.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["orders"]


def kendall_tau(a, b):
    """Plain O(n^2) Kendall rank correlation of two score sequences."""
    n = len(a)
    assert n == len(b) and n >= 2
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            prod = (a[i] - a[j]) * (b[i] - b[j])
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class TestKendallTau:
    def test_perfect_and_reversed(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_one_swap(self):
        assert kendall_tau([1, 2, 3, 4], [2, 1, 3, 4]) == pytest.approx(4 / 6)


class TestRoundBackendGolden:
    def test_bitwise_identical_to_seed(self, golden):
        series = fig3_data(engine=SweepEngine(jobs=2, prune=False))
        assert len(series) == len(FIG3_ORDERS)
        for s in series:
            ref = golden[format_order(s.order)]
            assert [repr(p.total_bytes) for p in s.points] == ref["sizes"]
            assert [repr(p.duration_single) for p in s.points] == ref[
                "duration_single"
            ]
            assert [repr(p.duration_all) for p in s.points] == ref["duration_all"]


class TestLogPBackendGolden:
    @pytest.mark.parametrize("scenario", ["duration_single", "duration_all"])
    def test_ranking_tau_at_least_0_9(self, golden, scenario):
        engine = SweepEngine(jobs=2, prune=False)
        series = {
            format_order(s.order): s
            for s in fig3_data(backend="logp", engine=engine)
        }
        orders = [format_order(o) for o in FIG3_ORDERS]
        n_sizes = len(golden[orders[0]][scenario])
        taus = []
        for i in range(n_sizes):
            ref = [float(golden[o][scenario][i]) for o in orders]
            attr = "duration_single" if scenario == "duration_single" else "duration_all"
            got = [getattr(series[o].points[i], attr) for o in orders]
            taus.append(kendall_tau(ref, got))
        mean_tau = sum(taus) / len(taus)
        assert mean_tau >= 0.9, f"mean Kendall tau {mean_tau:.3f} < 0.9 ({taus})"
