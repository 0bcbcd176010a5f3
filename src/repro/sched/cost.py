"""The lane cost model: static seeds corrected by live latency histograms.

Each of the four lanes gets a hand-seeded analytic cost estimate (how
exhaustive simulation scales with support-union size, how SAT setup
amortises with cone depth, …).  The seeds only need to get the *relative*
ordering right on a cold start: every dispatched pair feeds its observed
latency back into a per-lane :class:`~repro.obs.metrics.Histogram`, and
the model rescales its static estimate by the observed-vs-predicted p50
ratio — so a lane that is systematically slower than its seed claims
loses candidates within a few dozen dispatches.  Misprediction (a lane
that fails to resolve a pair it was chosen for — budget blown, support
escaped, BDD exploded) multiplies a per-lane penalty that decays again
on later successes.

Selection is ε-greedy over the predicted costs: with small probability a
random feasible lane is explored, which keeps the histograms of
out-of-favour lanes fresh enough to notice when the workload shifts.

``REPRO_SCHED_FORCE=sim|cut|bdd|sat`` pins every choice to one lane (the
correctness-isolation knob of the property tests); unresolved pairs
still fall through to the batched SAT backstop, so a forced run stays
sound and complete.
"""

from __future__ import annotations

import math
import os
import random
from typing import Dict, Optional

from repro.obs import get_tracer
from repro.obs.metrics import Histogram
from repro.sched.features import PairFeatures

#: The four dispatch lanes, in reroute order (SAT last: it is the
#: completeness backstop every unresolved pair falls through to).
LANES = ("sim", "cut", "bdd", "sat")

#: Environment variable forcing every dispatch onto a single lane.
FORCE_ENV = "REPRO_SCHED_FORCE"

INFEASIBLE = math.inf


class CostModel:
    """Per-lane cost prediction with online histogram feedback.

    One instance learns across rounds of one check — or, in the serve
    daemon, across every job of one tenant (the pool keeps the model
    resident per tenant, so the hundredth query dispatches with a
    well-calibrated model).
    """

    def __init__(
        self,
        seed: int = 2025,
        epsilon: float = 0.05,
        sim_cap: int = 14,
        bdd_cap: int = 32,
        min_observations: int = 8,
    ) -> None:
        self.epsilon = epsilon
        self.sim_cap = sim_cap
        self.bdd_cap = bdd_cap
        self.min_observations = min_observations
        self._rng = random.Random(seed)
        #: Observed per-pair latency per lane (log₂ buckets, mergeable).
        self.histograms: Dict[str, Histogram] = {
            lane: Histogram() for lane in LANES
        }
        #: Sum of the static estimates at observation time — the
        #: denominator of the observed/predicted correction ratio.
        self._static_sums: Dict[str, float] = {lane: 0.0 for lane in LANES}
        #: Misprediction penalty multiplier (≥ 1, decays on success).
        self.penalty: Dict[str, float] = {lane: 1.0 for lane in LANES}
        self.dispatched: Dict[str, int] = {lane: 0 for lane in LANES}
        self.mispredicts = 0

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def static_cost(self, lane: str, f: PairFeatures) -> float:
        """Hand-seeded per-pair cost estimate, in (nominal) seconds."""
        if lane == "sim":
            if f.union_size < 0 or f.union_size > self.sim_cap:
                return INFEASIBLE
            # Window simulation is vectorised but exponential in the
            # union support: ~2^(u-6) words per window node.  It is also
            # a *complete* prover below the cap — the paper's core bet —
            # so the seed keeps it cheapest whenever it is feasible.
            words = 1 << max(0, f.union_size - 6)
            return 2e-4 + 5e-8 * (f.level + f.union_size) * words
        if lane == "cut":
            if not f.node_is_and:
                return INFEASIBLE  # PI-class pairs have no cuts
            # Cut enumeration is a pure-Python pass over the pair cones;
            # it amortises well over big classes, badly over singletons.
            return 1.5e-3 + 2e-5 * f.level / max(1, f.class_size - 1)
        if lane == "bdd":
            # Unknown (capped) support keeps BDD feasible at the cap's
            # cost: blowout penalties demote the lane quickly on
            # BDD-hostile structures, while control/majority logic —
            # where wide support is harmless — stays eligible.
            support = f.union_size if f.union_size >= 0 else self.bdd_cap
            if support > self.bdd_cap:
                return INFEASIBLE
            return 4e-4 + 3e-5 * support * (1.0 + f.level / 8.0)
        if lane == "sat":
            # Always feasible, but CDCL on a non-trivially-equivalent
            # pair is milliseconds even when it wins — seed it as the
            # expensive backstop so cheaper certificates go first.
            return 3e-3 + 1.5e-4 * f.level
        raise ValueError(f"unknown lane {lane!r}")

    def predicted_cost(self, lane: str, f: PairFeatures) -> float:
        """Static seed × online correction × misprediction penalty."""
        base = self.static_cost(lane, f)
        if not math.isfinite(base):
            return base
        hist = self.histograms[lane]
        if hist.count >= self.min_observations:
            predicted_mean = self._static_sums[lane] / hist.count
            observed_p50 = hist.quantile(0.5)
            if predicted_mean > 0 and observed_p50 > 0:
                ratio = observed_p50 / predicted_mean
                base *= min(8.0, max(0.125, ratio))
        return base * self.penalty[lane]

    def forced_lane(self) -> Optional[str]:
        """The ``REPRO_SCHED_FORCE`` lane, if set and valid."""
        forced = os.environ.get(FORCE_ENV)
        return forced if forced in LANES else None

    def choose(self, f: PairFeatures) -> str:
        """Pick the lane for one pair (ε-greedy over predicted cost)."""
        forced = self.forced_lane()
        if forced is not None:
            self.dispatched[forced] += 1
            return forced
        costs = {lane: self.predicted_cost(lane, f) for lane in LANES}
        feasible = [lane for lane in LANES if math.isfinite(costs[lane])]
        # "sat" is always finite, so feasible is never empty.
        if len(feasible) > 1 and self._rng.random() < self.epsilon:
            choice = self._rng.choice(feasible)
        else:
            choice = min(feasible, key=lambda lane: costs[lane])
        self.dispatched[choice] += 1
        return choice

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------

    def record(
        self,
        lane: str,
        f: PairFeatures,
        seconds: float,
        resolved: bool,
        neutral: bool = False,
    ) -> None:
        """Feed one dispatch outcome back into the model.

        ``resolved=False`` is a misprediction: the lane was chosen but
        could not settle the pair (conflict budget blown, BDD node limit
        hit, support escaped the window cap under forcing) — the pair is
        reroute to SAT and the lane's penalty grows.  ``neutral=True``
        observes the latency without touching the penalty, for lanes
        where an unresolved pair is an expected outcome rather than a
        routing mistake (the cut lane: a local mismatch may be an SDC,
        and a later pass may still prove the pair).
        """
        static = self.static_cost(lane, f)
        self._static_sums[lane] += static if math.isfinite(static) else seconds
        self.histograms[lane].observe(seconds)
        metrics = get_tracer().metrics
        metrics.observe(f"sched.lane_seconds.{lane}", seconds)
        if neutral:
            return
        if resolved:
            self.penalty[lane] = max(1.0, self.penalty[lane] * 0.9)
        else:
            self.mispredict(lane)

    def mispredict(self, lane: str) -> None:
        """Penalise a lane that failed a pair without a latency sample
        (batch-level failures: saturated BDD manager, force-routed
        infeasible pairs)."""
        self.mispredicts += 1
        self.penalty[lane] = min(16.0, self.penalty[lane] * 1.5)
        get_tracer().metrics.counter_add("sched.mispredict")

    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Snapshot for stats endpoints and bench payloads."""
        return {
            "dispatched": dict(self.dispatched),
            "mispredicts": self.mispredicts,
            "penalty": {k: round(v, 3) for k, v in self.penalty.items()},
            "observed_p50": {
                lane: self.histograms[lane].quantile(0.5) for lane in LANES
            },
        }
