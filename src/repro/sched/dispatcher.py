"""The adaptive per-pair scheduler (``--sched auto``).

Replaces the fixed pair pipeline of the residual-SAT stage with
feature-based dispatch: every candidate pair of every refinement round
is scored against four lanes — exhaustive-simulation window, cut-based
local check, size-limited BDD, batched incremental SAT — and routed to
the predicted-cheapest one.  Lane outcomes feed back into the
:class:`~repro.sched.cost.CostModel` as misprediction penalties, so the
routing adapts to the input within one check.  The model is built
afresh for every check, and neither it nor the round's SAT budget
(:data:`SAT_ROUND_PROPAGATIONS`, a count of solver propagations) reads
a clock: the same input gets the same routing and the same work on any
machine.  Wall clock enters only through ``time_limit``, which may end
a run as UNDECIDED but never steers one.

Correctness does not depend on the model: lanes only ever *prove* or
*refute* with sound certificates (full-support windows, canonical BDDs,
exact SAT), anything a lane cannot settle reroutes to a later lane and
at worst to the batched SAT backstop, and the final PO proof always
runs at the full conflict
limit.  A bad cost model costs time, never the verdict.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Union

from repro.aig.literals import lit
from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.cache.knowledge import SweepCache
from repro.obs import get_tracer
from repro.sat.sweeping import prove_pos_batched
from repro.sched.cost import LANES, CostModel
from repro.sched.features import FeatureExtractor
from repro.sched.lanes import (
    BddLane,
    CutLane,
    RoundContext,
    RoutedPair,
    SatBatchLane,
    SimLane,
)
from repro.simulation.exhaustive import ExhaustiveSimulator
from repro.sweep.classes import SimulationState
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecResult
from repro.sweep.loop import Round, SweepLoop, adopt_state
from repro.sweep.state import SweepState

#: Sweep/refine rounds before the final PO proof.
MAX_ROUNDS = 16

#: Node budget of the BDD lane's per-batch manager.
BDD_NODE_LIMIT = 50_000

#: Pairs routed per chunk: lane feedback from early chunks steers the
#: routing of later ones.
CHUNK_SIZE = 64

#: Solver propagations the in-round SAT batch may spend per round
#: before it stops taking pairs (about what a 1 s slice of the pure-Python
#: solver spends on a 2-vCPU machine).  Small on purpose: merges from the
#: cheap lanes shrink supports between rounds, turning SAT-only pairs
#: into sim/cut/BDD pairs — solving them *now* would buy nothing.
SAT_ROUND_PROPAGATIONS = 150_000


class AdaptiveSweeper:
    """Cost-model-dispatched sweeping over a (residual) miter.

    Drop-in peer of :class:`~repro.sat.sweeping.SatSweepChecker`: same
    ``check_miter(miter, state)`` contract, same state adoption and
    round loop (:mod:`repro.sweep.loop`), same UNDECIDED hand-back
    shape — but each candidate pair goes to whichever engine the cost
    model predicts is cheapest for it.

    Parameters
    ----------
    config:
        Engine knobs reused by the lanes (``k_g`` caps the sim windows,
        ``k_l``/``C`` drive the cut lane, the memory budget bounds the
        simulator).
    conflict_limit:
        Full SAT budget for the final PO proof; the per-pair batched
        budgets are derived from it (two orders of magnitude smaller).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        conflict_limit: int = 100_000,
        time_limit: Optional[float] = None,
        cache: Optional[SweepCache] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.conflict_limit = conflict_limit
        self.time_limit = time_limit
        self.cache = cache
        self.simulator = ExhaustiveSimulator(
            memory_budget_words=self.config.memory_budget_words
        )
        self.lanes = {
            "sim": SimLane(self.config),
            "cut": CutLane(self.config),
            "bdd": BddLane(node_limit=BDD_NODE_LIMIT),
            "sat": SatBatchLane(
                conflict_budget=max(200, conflict_limit // 100),
                round_propagations=SAT_ROUND_PROPAGATIONS,
            ),
        }
        #: Full-budget drain for stalled rounds (the fixed pipeline's
        #: SAT sweep, paid only when every cheaper avenue is dry).
        self._drain_lane = SatBatchLane(conflict_budget=conflict_limit)
        self.rounds = 0

    # ------------------------------------------------------------------

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(
        self,
        miter: Aig,
        state: Optional[Union[SimulationState, SweepState]] = None,
    ) -> CecResult:
        """Run the adaptive sweep on a miter.

        ``state`` follows the same EC-transfer contract as the SAT
        checker: a matching :class:`SweepState` is adopted verbatim
        (signatures, classes and cache fingerprints carried in place), a
        pattern pool is adopted into a fresh state.  The cost model and
        the cut lane's pass rotation start afresh, so a reused sweeper
        routes the same input the same way.
        """
        loop = SweepLoop("SCHED", miter, self.cache, self.time_limit)
        model = CostModel(sim_cap=self.config.k_g)
        self.lanes["cut"].reset()
        sweep = adopt_state(
            miter, state, self.config.num_random_words, self.config.seed,
            counter="sched",
        )
        metrics = get_tracer().metrics
        # Pre-register the dispatch counters so a traced run exports
        # every lane (and the misprediction count) even when zero.
        for lane in LANES:
            metrics.counter_add(f"sched.dispatch.{lane}", 0)
        metrics.counter_add("sched.mispredict", 0)
        metrics.counter_add("sat.batch.pairs", 0)
        metrics.counter_add("sat.batch.solves", 0)
        return loop.run(
            sweep, "sched.check_miter", MAX_ROUNDS,
            functools.partial(self._prove_round, model),
            lambda sweep, deadline, record: prove_pos_batched(
                sweep, self.cache, self.conflict_limit, deadline, record
            ),
        )

    # ------------------------------------------------------------------

    def _prove_round(
        self,
        model: CostModel,
        sweep: SweepState,
        classes,
        pairs,
        deadline: Optional[float],
    ) -> Round:
        tracer = get_tracer()
        metrics = tracer.metrics
        bound = sweep.bound_cache(self.cache)
        extractor = FeatureExtractor(
            sweep, cap=max(self.config.k_g, model.bdd_cap)
        )
        class_sizes = extractor.class_sizes(classes)
        merges = {}
        cex_patterns: List[List[int]] = []
        ctx = RoundContext(
            miter=sweep.network(),
            simulator=self.simulator,
            bound=bound,
            deadline=deadline,
        )
        # Route in chunks: lane feedback from early chunks steers the
        # routing of later ones, so a model recovers from a bad seed
        # *within* the first round instead of after it.  SAT-bound
        # pairs accumulate across chunks and solve as one batch on a
        # single shared solver at the end of the round.
        sat_pending: List[RoutedPair] = []
        for chunk_start in range(0, len(pairs), CHUNK_SIZE):
            chunk = pairs[chunk_start:chunk_start + CHUNK_SIZE]
            routed: Dict[str, List[RoutedPair]] = {lane: [] for lane in LANES}
            for repr_node, node, phase in chunk:
                # Cache-hit fingerprint: a cached verdict is the
                # cheapest lane of all — short-circuit before scoring
                # anything.
                if bound is not None:
                    known = bound.lookup_pair(
                        lit(repr_node), lit(node, phase),
                        want_inconclusive=False,
                    )
                    if known is not None:
                        if known.is_equivalent:
                            merges[node] = (repr_node, phase)
                            continue
                        if known.is_nonequivalent:
                            cex_patterns.append(known.cex)
                            continue
                features = extractor.pair(
                    repr_node, node, class_sizes.get(node, 2)
                )
                lane = model.choose(features)
                metrics.counter_add(f"sched.dispatch.{lane}")
                routed[lane].append(
                    RoutedPair(repr_node, node, phase, features)
                )
            for index, lane_name in enumerate(LANES[:-1]):
                lane_pairs = routed[lane_name]
                if not lane_pairs:
                    continue
                with tracer.span(
                    f"sched.lane.{lane_name}",
                    category="sched",
                    pairs=len(lane_pairs),
                ):
                    outcome = self.lanes[lane_name].run(
                        ctx, lane_pairs, model
                    )
                merges.update(outcome.merges)
                cex_patterns.extend(outcome.cex_patterns)
                # Everything a lane could not settle goes on to the
                # lane after it in reroute order that the model, with
                # the outcomes just recorded, predicts cheapest; the
                # batched SAT backstop of the same round is always
                # among them, so nothing is dropped.
                later = LANES[index + 1:]
                for rp in outcome.unresolved:
                    routed[min(
                        later,
                        key=lambda lane: model.predicted_cost(
                            lane, rp.features
                        ),
                    )].append(rp)
            sat_pending.extend(routed["sat"])
        sat_unresolved: List[RoutedPair] = []
        if sat_pending:
            # Shallow cones first (they UNSAT cheaply), and only a
            # bounded propagation budget: anything the budget cannot
            # settle stays in its class — the next round's merges may
            # shrink it into a cheap lane's reach.
            sat_pending.sort(key=lambda rp: rp.features.level)
            with tracer.span(
                "sched.lane.sat", category="sched", pairs=len(sat_pending),
            ):
                outcome = self.lanes["sat"].run(ctx, sat_pending, model)
            merges.update(outcome.merges)
            cex_patterns.extend(outcome.cex_patterns)
            sat_unresolved = outcome.unresolved
        self.rounds += 1
        if not merges and not cex_patterns and sat_unresolved:
            # Stalled: the cheap lanes are dry and the SAT budget settled
            # nothing.  Pay the fixed pipeline's price once — a
            # full-budget batched sweep over the survivors — under the
            # overall deadline only.
            with tracer.span(
                "sched.lane.sat_drain", category="sched",
                pairs=len(sat_unresolved),
            ):
                outcome = self._drain_lane.run(ctx, sat_unresolved, model)
            merges.update(outcome.merges)
            cex_patterns.extend(outcome.cex_patterns)
        return Round(merges, cex_patterns)
