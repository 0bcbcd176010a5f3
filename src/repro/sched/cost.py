"""The lane cost model: static seeds times misprediction penalties.

Each of the four lanes gets a hand-seeded analytic cost estimate (how
exhaustive simulation scales with support-union size, how SAT setup
amortises with cone depth, …).  The estimates are nominal: only their
*relative* ordering matters.  The model learns from outcomes alone — a
lane that fails to resolve a pair it was chosen for (budget blown,
support escaped, BDD exploded) multiplies a per-lane penalty that
decays again on later successes.  No clock enters a prediction, so a
lane choice depends only on the pair's features and on the resolved /
unresolved outcomes seen earlier in the same check: the same input
routes the same way on any machine, at any speed.

``REPRO_SCHED_FORCE=sim|cut|bdd|sat`` pins every choice to one lane (the
correctness-isolation knob of the property tests); unresolved pairs
still reroute to later lanes and at worst the batched SAT backstop, so
a forced run stays sound and complete.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional

from repro.obs import get_tracer
from repro.sched.features import PairFeatures

#: The four dispatch lanes, in reroute order: a pair a lane cannot
#: settle goes on to the predicted-cheapest later lane, and SAT comes
#: last because it is the completeness backstop.
LANES = ("sim", "cut", "bdd", "sat")

#: Environment variable forcing every dispatch onto a single lane.
FORCE_ENV = "REPRO_SCHED_FORCE"

INFEASIBLE = math.inf


class CostModel:
    """Per-lane cost prediction with misprediction feedback.

    One instance lives for one check: the dispatcher builds a fresh
    model in every ``check_miter`` call, so nothing learned on one input
    steers the next.
    """

    def __init__(self, sim_cap: int = 14, bdd_cap: int = 32) -> None:
        self.sim_cap = sim_cap
        self.bdd_cap = bdd_cap
        #: Misprediction penalty multiplier (≥ 1, decays on success).
        self.penalty: Dict[str, float] = {lane: 1.0 for lane in LANES}
        self.mispredicts = 0

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def static_cost(self, lane: str, f: PairFeatures) -> float:
        """Hand-seeded per-pair cost estimate, in nominal units."""
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
            # pair is expensive even when it wins — seed it as the
            # backstop so cheaper certificates go first.
            return 3e-3 + 1.5e-4 * f.level
        raise ValueError(f"unknown lane {lane!r}")

    def predicted_cost(self, lane: str, f: PairFeatures) -> float:
        """Static seed × misprediction penalty."""
        return self.static_cost(lane, f) * self.penalty[lane]

    def forced_lane(self) -> Optional[str]:
        """The ``REPRO_SCHED_FORCE`` lane, if set and valid."""
        forced = os.environ.get(FORCE_ENV)
        return forced if forced in LANES else None

    def choose(self, f: PairFeatures) -> str:
        """Pick the lane for one pair: the lowest predicted cost, ties
        going to the earlier lane ("sat" is always finite, so the
        choice is always feasible)."""
        forced = self.forced_lane()
        if forced is not None:
            return forced
        return min(LANES, key=lambda lane: self.predicted_cost(lane, f))

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------

    def record(self, lane: str, resolved: bool) -> None:
        """Feed one dispatch outcome back into the model.

        ``resolved=False`` is a misprediction: the lane was chosen but
        could not settle the pair (conflict budget blown, BDD node limit
        hit, support escaped the window cap under forcing) — the pair is
        rerouted to a later lane and this lane's penalty grows.  A
        success decays the penalty back toward 1.
        """
        if resolved:
            self.penalty[lane] = max(1.0, self.penalty[lane] * 0.9)
        else:
            self.mispredict(lane)

    def mispredict(self, lane: str) -> None:
        """Penalise a lane that failed a pair it was chosen for."""
        self.mispredicts += 1
        self.penalty[lane] = min(16.0, self.penalty[lane] * 1.5)
        get_tracer().metrics.counter_add("sched.mispredict")
