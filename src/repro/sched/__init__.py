"""Adaptive per-pair engine scheduling (``--sched auto``).

A cost-model dispatcher that routes each candidate equivalence pair to
the predicted-cheapest of four proving lanes (exhaustive-simulation
window, cut-based local check, size-limited BDD, batched incremental
SAT).  Routing depends only on the pair's features and on the outcomes
seen earlier in the same check, never on a clock, so the same input
gets the same work.  See ``docs/scheduling.md``.
"""

from repro.sched.cost import FORCE_ENV, LANES, CostModel
from repro.sched.dispatcher import AdaptiveSweeper
from repro.sched.features import FeatureExtractor, PairFeatures
from repro.sched.lanes import (
    BddLane,
    CutLane,
    LaneOutcome,
    RoundContext,
    RoutedPair,
    SatBatchLane,
    SimLane,
)

__all__ = [
    "AdaptiveSweeper",
    "BddLane",
    "CostModel",
    "CutLane",
    "FeatureExtractor",
    "FORCE_ENV",
    "LANES",
    "LaneOutcome",
    "PairFeatures",
    "RoundContext",
    "RoutedPair",
    "SatBatchLane",
    "SimLane",
]
