"""Error-calibrated fidelity ladder with successive-halving promotion.

Large order spaces cannot afford full-fidelity simulation of every
candidate: a depth-7 hierarchy has 5040 orders, and the ROADMAP's DNN
hierarchies have millions.  But the repo already owns a *ladder* of
evaluators whose cost spans ~4 orders of magnitude at strongly
correlated rankings (BENCH_ir.json: ``logp`` is ~11x cheaper than
``round`` at Kendall tau 0.93):

===========  ======================================  ================
rung         what it costs                           what it knows
===========  ======================================  ================
``metric``   free (analytic, :mod:`repro.core.metrics`)  locality structure
``logp``     closed-form per-pattern pass            contention-free latency/bw
``round``    per-round contention model              link sharing
``des``      flow-level event simulation             exact per-flow dynamics
===========  ======================================  ================

:class:`FidelityLadder` runs successive halving over that ladder: score
every surviving candidate at the cheapest rung, promote only the top
``1/eta`` fraction (never fewer than ``top_k``), and repeat until the
final rung ranks the finalists at full fidelity.

**Calibration, not faith.**  Every promotion decision is checked against
evidence: before promoting out of a rung, a seeded probe subset of the
survivors is also evaluated at the *next* rung and the Kendall rank
correlation between the two rungs is measured
(:func:`repro.profiling.correlation.kendall`).  A rung whose probe tau
falls below ``tau_floor`` is not trusted to halve: its effective eta is
widened proportionally (``eta_eff = max(1, eta * tau)``), degrading
gracefully toward "promote everyone" as the cheap rung's ranking decays.
Probe evaluations go through the engine, so they are cached -- a probed
candidate that gets promoted costs nothing extra at the next rung.

``eta=1`` disables elimination entirely: every candidate reaches the
final rung and the result is bitwise identical to a plain full-fidelity
sweep (a property test locks this).  The opt-in *exhaustive audit* mode
evaluates every candidate at the final rung and asserts the ladder's
top-k matches the exhaustive top-k exactly.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from repro.engine.keys import EvalRequest
from repro.engine.supervisor import is_failure

if TYPE_CHECKING:
    from repro.core.metrics import OrderSignature

#: The free analytic rung (never touches the engine).
RUNG_METRIC = "metric"

#: Engine-model rungs the ladder accepts, cheapest first.
ENGINE_RUNGS = ("logp", "round", "des")

Candidate = Hashable
#: ``requests_for(model, candidate)`` -> the engine requests whose summed
#: durations score ``candidate`` at that fidelity.
RequestsFor = Callable[[str, Any], Sequence[EvalRequest]]
#: ``metric_score(candidate)`` -> the free analytic score (metric rung).
MetricScore = Callable[[Any], float]


class LadderConfigError(ValueError):
    """An invalid ladder configuration."""


class LadderAuditError(AssertionError):
    """The exhaustive audit found a top-k divergence."""


@dataclass(frozen=True)
class LadderConfig:
    """Knobs of one successive-halving search.

    ``rungs`` is the fidelity sequence, cheapest first; ``metric`` may
    only appear first, and the final rung must be an engine model (it
    produces the reported scores).  ``eta`` is the nominal elimination
    factor per rung (1 disables elimination).  ``top_k`` is the minimum
    survivor count -- the ladder never prunes below the number of
    finalists the caller wants ranked.  ``probe`` is the calibration
    subset size per rung; ``tau_floor`` the Kendall tau below which a
    rung's promotion fraction is widened.  ``seed`` makes the probe
    choice deterministic.
    """

    rungs: tuple[str, ...] = (RUNG_METRIC, "logp", "round")
    eta: float = 4.0
    top_k: int = 10
    probe: int = 16
    tau_floor: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rungs", tuple(self.rungs))
        if not self.rungs:
            raise LadderConfigError("a ladder needs at least one rung")
        if len(set(self.rungs)) != len(self.rungs):
            raise LadderConfigError(f"duplicate rungs in {self.rungs}")
        for i, rung in enumerate(self.rungs):
            if rung == RUNG_METRIC:
                if i != 0:
                    raise LadderConfigError(
                        "the free 'metric' rung can only open the ladder"
                    )
            elif rung not in ENGINE_RUNGS:
                raise LadderConfigError(
                    f"unknown rung {rung!r}; choose from "
                    f"{(RUNG_METRIC,) + ENGINE_RUNGS}"
                )
        if self.rungs[-1] == RUNG_METRIC:
            raise LadderConfigError(
                "the final rung must be an engine model (it produces the "
                "reported ranking)"
            )
        if not self.eta >= 1:  # also refuses nan
            raise LadderConfigError("eta must be >= 1")
        if self.top_k < 1:
            raise LadderConfigError("top_k must be >= 1")
        if self.probe < 2:
            raise LadderConfigError("probe must be >= 2 (tau needs pairs)")
        if not 0.0 <= self.tau_floor <= 1.0:
            raise LadderConfigError("tau_floor must be in [0, 1]")

    def to_jsonable(self) -> dict:
        return {
            "rungs": list(self.rungs),
            "eta": self.eta,
            "top_k": self.top_k,
            "probe": self.probe,
            "tau_floor": self.tau_floor,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RungOutcome:
    """What one rung of the ladder did."""

    rung: str
    n_candidates: int  # survivors scored at this rung
    n_promoted: int  # survivors promoted to the next rung
    n_requests: int  # engine requests issued (0 for the metric rung)
    eta_nominal: float
    eta_effective: float  # after calibration widening
    tau: float | None  # probe rank correlation vs the next rung
    probe_size: int  # candidates in the calibration probe
    widened: bool  # tau fell below the floor
    wall_s: float
    #: Distinct finite scores at this rung.  1 means the rung tied every
    #: candidate: its tau (1.0 by convention) and its promotion (decided
    #: by the deterministic tie-break alone) carry no information.
    n_distinct: int

    def to_jsonable(self) -> dict:
        return {
            "rung": self.rung,
            "n_candidates": self.n_candidates,
            "n_promoted": self.n_promoted,
            "n_requests": self.n_requests,
            "eta_nominal": self.eta_nominal,
            "eta_effective": self.eta_effective,
            "tau": self.tau,
            "probe_size": self.probe_size,
            "widened": self.widened,
            "wall_s": self.wall_s,
            "n_distinct": self.n_distinct,
        }


@dataclass
class LadderResult:
    """The ranked finalists plus the full per-rung audit trail."""

    ranking: tuple  # finalists, fastest first (failures excluded)
    scores: dict  # candidate -> final-rung score
    rungs: list[RungOutcome] = field(default_factory=list)
    failed: tuple = ()  # candidates lost to quarantined evaluations
    n_requests: int = 0  # engine requests issued across all rungs
    audit: dict | None = None  # exhaustive-audit report, when enabled

    def top(self, k: int | None = None) -> tuple:
        return self.ranking if k is None else self.ranking[:k]

    @property
    def min_tau(self) -> float | None:
        taus = [r.tau for r in self.rungs if r.tau is not None]
        return min(taus) if taus else None

    def to_jsonable(self) -> dict:
        return {
            "ranking": [repr(c) for c in self.ranking],
            "n_finalists": len(self.ranking),
            "n_failed": len(self.failed),
            "n_requests": self.n_requests,
            "min_tau": self.min_tau,
            "rungs": [r.to_jsonable() for r in self.rungs],
            "audit": self.audit,
        }


def default_rungs(backend: str) -> tuple[str, ...]:
    """The stock ladder toward ``backend``: the free metric rung, then
    every strictly cheaper engine rung, then the target itself."""
    if backend not in ENGINE_RUNGS:
        raise LadderConfigError(
            f"no ladder toward backend {backend!r}; choose from {ENGINE_RUNGS}"
        )
    rungs: list[str] = [RUNG_METRIC]
    for rung in ENGINE_RUNGS:
        if rung == backend:
            break
        rungs.append(rung)
    rungs.append(backend)
    return tuple(rungs)


def _probe_rank(seed: int, candidate: Any) -> str:
    """Deterministic pseudo-random position of one candidate."""
    return hashlib.sha256(f"{seed}:{candidate!r}".encode()).hexdigest()


def _tie(candidate: Any) -> tuple:
    """Total deterministic order over candidates of any hashable type:
    integers (the advisor's class indices) numerically, so tied classes
    keep the order plain advice lists them in, anything else by ``repr``."""
    return (0, candidate) if isinstance(candidate, int) else (1, repr(candidate))


def _n_distinct(scores: dict, candidates: Sequence[Any]) -> int:
    """Number of distinct finite scores among ``candidates``."""
    return len({scores[c] for c in candidates if math.isfinite(scores[c])})


class FidelityLadder:
    """Successive-halving search over an engine-backed fidelity ladder.

    ``engine`` is the shared :class:`~repro.engine.core.SweepEngine`
    (its cache makes probe evaluations free on promotion and lets the
    ladder share warmth with plain sweeps).  Engine rungs go through
    :meth:`evaluate_many <repro.engine.core.SweepEngine.evaluate_many>`,
    so they run as the engine's chunks: one in-process chunk without
    workers, chunks on the workers with them.  ``duration_key`` names the
    result field summed into a candidate's score (the scenario's
    duration).
    """

    def __init__(
        self, engine, config: LadderConfig | None = None, duration_key: str = "duration_all"
    ):
        self.engine = engine
        self.config = config or LadderConfig()
        self.duration_key = duration_key

    # -- public ------------------------------------------------------------

    def search(
        self,
        candidates: Sequence[Any],
        requests_for: RequestsFor,
        metric_score: MetricScore | None = None,
        exhaustive_audit: bool = False,
    ) -> LadderResult:
        """Run the ladder; returns the ranked finalists.

        ``candidates`` is the full search space (duplicates collapse);
        ``requests_for(model, candidate)`` materializes the engine grid
        that scores one candidate at one fidelity -- a candidate's score
        is the sum of ``duration_key`` over its grid.  The same
        builder used with the final rung's model by a plain sweep yields
        identical content keys, so ladder and sweep share every cache
        record.  ``metric_score`` is required when the ladder opens with
        the free ``metric`` rung.
        """
        cfg = self.config
        if RUNG_METRIC in cfg.rungs and metric_score is None:
            raise LadderConfigError(
                "the ladder opens with the 'metric' rung; pass metric_score"
            )
        seen: dict[Any, None] = {}
        for c in candidates:
            seen.setdefault(c, None)
        survivors = list(seen)
        if not survivors:
            return LadderResult(ranking=(), scores={})

        result = LadderResult(ranking=(), scores={})
        for i, rung in enumerate(cfg.rungs):
            t0 = time.perf_counter()
            scores, issued = self._score(
                rung, survivors, requests_for, metric_score
            )
            result.n_requests += issued
            final = i == len(cfg.rungs) - 1
            if final:
                ranked = sorted(
                    (c for c in survivors if math.isfinite(scores[c])),
                    key=lambda c: (scores[c], _tie(c)),
                )
                result.failed = tuple(
                    c for c in survivors if not math.isfinite(scores[c])
                )
                result.ranking = tuple(ranked)
                result.scores = {c: scores[c] for c in ranked}
                result.rungs.append(
                    RungOutcome(
                        rung=rung,
                        n_candidates=len(survivors),
                        n_promoted=len(ranked),
                        n_requests=issued,
                        eta_nominal=cfg.eta,
                        eta_effective=1.0,
                        tau=None,
                        probe_size=0,
                        widened=False,
                        wall_s=time.perf_counter() - t0,
                        n_distinct=_n_distinct(scores, survivors),
                    )
                )
                break

            # Calibration: probe a seeded subset at the next rung and
            # measure how well this rung predicts its ranking.
            viable = [c for c in survivors if math.isfinite(scores[c])]
            probe = sorted(viable, key=lambda c: _probe_rank(cfg.seed, c))
            probe = probe[: min(cfg.probe, len(probe))]
            tau, probe_issued = self._calibrate(
                rung_scores=scores,
                probe=probe,
                next_rung=cfg.rungs[i + 1],
                requests_for=requests_for,
                metric_score=metric_score,
            )
            result.n_requests += probe_issued
            widened = tau is not None and tau < cfg.tau_floor
            if widened:
                # Graded distrust: a rung that only weakly predicts the
                # next one keeps proportionally more survivors; tau <= 0
                # (anti-correlated or useless) disables elimination.
                eta_eff = max(1.0, cfg.eta * max(tau, 0.0))
            else:
                eta_eff = cfg.eta
            n = len(survivors)
            n_keep = min(n, max(cfg.top_k, math.ceil(n / eta_eff)))
            promoted = sorted(survivors, key=lambda c: (scores[c], _tie(c)))
            promoted = promoted[:n_keep]
            result.rungs.append(
                RungOutcome(
                    rung=rung,
                    n_candidates=n,
                    n_promoted=n_keep,
                    n_requests=issued + probe_issued,
                    eta_nominal=cfg.eta,
                    eta_effective=eta_eff,
                    tau=tau,
                    probe_size=len(probe),
                    widened=widened,
                    wall_s=time.perf_counter() - t0,
                    n_distinct=_n_distinct(scores, survivors),
                )
            )
            survivors = promoted

        if exhaustive_audit:
            result.audit = self._exhaustive_audit(
                list(seen), requests_for, result
            )
        return result

    # -- internals ---------------------------------------------------------

    def _score(
        self,
        rung: str,
        candidates: Sequence[Any],
        requests_for: RequestsFor,
        metric_score: MetricScore | None,
    ) -> tuple[dict, int]:
        """Score every candidate at one rung; failures score ``inf``."""
        if rung == RUNG_METRIC:
            assert metric_score is not None
            return {c: float(metric_score(c)) for c in candidates}, 0
        flat: list[EvalRequest] = []
        spans: list[tuple[Any, int]] = []
        for c in candidates:
            reqs = list(requests_for(rung, c))
            if not reqs:
                raise LadderConfigError(
                    f"requests_for({rung!r}, {c!r}) produced an empty grid"
                )
            spans.append((c, len(reqs)))
            flat.extend(reqs)
        results = self.engine.evaluate_many(flat)
        key = self.duration_key
        scores: dict[Any, float] = {}
        pos = 0
        for c, n in spans:
            total = 0.0
            for r in results[pos : pos + n]:
                if is_failure(r):
                    total = math.inf
                    break
                total += float(r[key])
            pos += n
            scores[c] = total
        return scores, len(flat)

    def _calibrate(
        self,
        rung_scores: dict,
        probe: Sequence[Any],
        next_rung: str,
        requests_for: RequestsFor,
        metric_score: MetricScore | None,
    ) -> tuple[float | None, int]:
        """Probe tau between this rung's scores and the next rung's."""
        from repro.profiling.correlation import kendall

        if len(probe) < 2:
            return None, 0
        next_scores, issued = self._score(
            next_rung, probe, requests_for, metric_score
        )
        pairs = [
            (rung_scores[c], next_scores[c])
            for c in probe
            if math.isfinite(next_scores[c])
        ]
        if len(pairs) < 2:
            return None, issued
        tau = kendall([a for a, _ in pairs], [b for _, b in pairs])
        return tau, issued

    def _exhaustive_audit(
        self,
        candidates: Sequence[Any],
        requests_for: RequestsFor,
        result: LadderResult,
    ) -> dict:
        """Evaluate *everything* at the final rung; assert top-k identity."""
        cfg = self.config
        scores, issued = self._score(
            cfg.rungs[-1], candidates, requests_for, None
        )
        result.n_requests += issued
        exhaustive = sorted(
            (c for c in candidates if math.isfinite(scores[c])),
            key=lambda c: (scores[c], _tie(c)),
        )
        k = min(cfg.top_k, len(exhaustive), len(result.ranking))
        expect = tuple(exhaustive[:k])
        got = tuple(result.ranking[:k])
        if expect != got:
            raise LadderAuditError(
                "exhaustive audit: ladder top-k diverges from the "
                f"full-fidelity sweep\n  ladder:     {got}\n"
                f"  exhaustive: {expect}"
            )
        return {
            "checked_top_k": k,
            "n_candidates": len(candidates),
            "agrees": True,
        }


# -- the free analytic rung for order searches -------------------------------


def analytic_order_score(
    topology,
    hierarchy,
    order: tuple[int, ...],
    comm_size: int,
    total_bytes: float,
    sig: OrderSignature | None = None,
) -> float:
    """Machine-aware analytic proxy for an order's collective duration.

    The exact per-level pair histogram of the first subcommunicator
    (:func:`repro.core.metrics.signature`) weighted by each crossed
    level's link latency and inverse bandwidth: pairs whose closest
    common level is further out cross slower, more contended links.  No
    simulation runs -- this is the ladder's free ``metric`` rung for
    order searches, good enough to discard the clearly hopeless bulk of
    an order space before ``logp`` sees it.

    ``sig`` is ``signature(hierarchy, order, comm_size)`` when the caller
    already holds it: it does not depend on ``total_bytes``, so a caller
    scoring one order at several payload sizes computes it once.
    """
    if sig is None:
        from repro.core.metrics import signature

        sig = signature(hierarchy, order, comm_size)
    depth = len(sig.pair_counts)
    per_pair_bytes = float(total_bytes) / max(comm_size, 1)
    score = 0.0
    # pair_counts is innermost level first; topology.levels outermost
    # first.  A pair first differing at topology level j crosses the
    # links of every level j..depth-1, so its weight accumulates the
    # whole path below the meeting point.
    for k, count in enumerate(sig.pair_counts):
        if not count:
            continue
        j = depth - 1 - k  # outermost-first level index of this bucket
        w = 0.0
        for lv in topology.levels[j:]:
            w += lv.link_lat + per_pair_bytes / lv.link_bw
        score += count * w
    return score
