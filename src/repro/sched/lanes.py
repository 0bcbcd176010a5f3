"""Lane adapters: one engine probe per routed candidate pair.

Each lane wraps one prover (exhaustive-simulation window, cut-based
local check, size-limited BDD, batched incremental SAT) behind the same
shape: take the pairs the dispatcher routed here, settle what it can,
and hand the rest back as ``unresolved`` — the dispatcher reroutes those
to a later lane, the SAT backstop last, so a lane is free to give up
without ever costing correctness.  Every attempted pair reports whether it was resolved back
to the :class:`~repro.sched.cost.CostModel`; no lane reads a clock.

The provers themselves have one body each, shared with the fixed
flow: the sim and cut lanes call :mod:`repro.sweep.provers` (as do the
engine's G and L phases), the BDD lane calls
:func:`~repro.bdd.sweeping.bdd_pair_verdict` and the SAT lane
:func:`~repro.sat.sweeping.query_pair`.  A lane adds only the routing:
feasibility checks, outcome feedback and the unresolved hand-back.

The SAT lane is batched and incremental: all the pairs of one round
share a single solver instance and lazily-encoded CNF; each pair is an
assumption-guarded query with its own conflict budget, proved
equivalences are asserted into the shared solver so later queries in
the batch reuse them, and the ``sat.batch.pairs`` /
``sat.batch.solves`` counters make the batching observable (pairs must
outnumber solver instances).  The round's lane stops taking pairs once
its solver has spent a propagation budget, so how much SAT a round does
is a count of solver work, not of seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aig.literals import lit
from repro.aig.network import Aig
from repro.bdd.manager import ZERO, BddLimitExceeded, BddManager
from repro.bdd.sweeping import bdd_pair_verdict
from repro.cuts.selection import CutSelector
from repro.obs import get_tracer
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus
from repro.sat.sweeping import query_pair, record_pair_verdict
from repro.sched.cost import CostModel
from repro.sched.features import PairFeatures
from repro.simulation.exhaustive import ExhaustiveSimulator
from repro.sweep.config import EngineConfig
from repro.sweep.loop import _expired
from repro.sweep.provers import cut_pass, prove_full_support


@dataclass
class RoutedPair:
    """One candidate pair en route to a lane."""

    repr_node: int
    node: int
    phase: int
    features: PairFeatures

    @property
    def lit_r(self) -> int:
        return lit(self.repr_node)

    @property
    def lit_n(self) -> int:
        return lit(self.node, self.phase)


@dataclass
class LaneOutcome:
    """What one lane settled out of its routed pairs."""

    merges: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    cex_patterns: List[List[int]] = field(default_factory=list)
    unresolved: List[RoutedPair] = field(default_factory=list)


@dataclass
class RoundContext:
    """Shared per-round resources handed to every lane."""

    miter: Aig
    simulator: ExhaustiveSimulator
    bound: Optional[object]
    deadline: Optional[float]


class SimLane:
    """Exhaustive simulation over the pair's support union (a real proof:
    the window covers every input the pair depends on, so EQUAL proves
    and MISMATCH yields a genuine counter-example)."""

    name = "sim"

    def __init__(self, config: EngineConfig) -> None:
        self.config = config

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        out = LaneOutcome()
        attempted: List[RoutedPair] = []
        for rp in pairs:
            union = rp.features.union_support
            if union is None or len(union) > self.config.k_g:
                # Only reachable under forcing: choose() never routes a
                # capped-support pair here on its own.
                model.mispredict(self.name)
                out.unresolved.append(rp)
                continue
            attempted.append(rp)
        if not attempted:
            return out
        verdicts = prove_full_support(
            ctx.miter,
            ctx.simulator,
            [
                (rp.repr_node, rp.node, rp.phase, rp.features.union_support)
                for rp in attempted
            ],
            ctx.bound,
            "SCHED",
        )
        for rp in attempted:
            if rp.node in verdicts.merges:
                out.merges[rp.node] = (rp.repr_node, rp.phase)
            elif rp.node in verdicts.cex:
                out.cex_patterns.append(verdicts.cex[rp.node])
            else:
                # Window skipped on the simulator's memory budget.
                model.record(self.name, resolved=False)
                out.unresolved.append(rp)
                continue
            model.record(self.name, resolved=True)
        return out


class CutLane:
    """One priority-cut enumeration pass over the routed pairs' cones.

    Cut-local EQUAL over a common cut proves the pair; a local mismatch
    proves nothing (it may be a satisfiability don't-care), so anything
    not proved comes back unresolved.
    """

    name = "cut"

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self._calls = 0

    def reset(self) -> None:
        """Restart the pass rotation (at the start of every check, so a
        reused sweeper sees the same passes on the same input)."""
        self._calls = 0

    def _next_pass(self) -> int:
        """Rotate through the configured Table I passes, one per
        invocation, the way the fixed engine's repeated L phases
        diversify the cuts a surviving pair sees."""
        passes = self.config.passes or (1,)
        chosen = passes[self._calls % len(passes)]
        self._calls += 1
        return chosen

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        cfg = self.config
        out = LaneOutcome()
        attempted: List[RoutedPair] = []
        for rp in pairs:
            if rp.features.node_is_and:
                attempted.append(rp)
            else:
                model.mispredict(self.name)  # PI pairs have no cuts
                out.unresolved.append(rp)
        if not attempted:
            return out
        pair_info = {rp.node: (rp.repr_node, rp.phase) for rp in attempted}
        repr_of: Dict[int, int] = {}
        for rp in attempted:
            repr_of[rp.node] = rp.repr_node
            repr_of.setdefault(rp.repr_node, rp.repr_node)
        selector = CutSelector.for_network(
            ctx.miter, self._next_pass(), cfg.similarity_selection
        )
        merges: Dict[int, Tuple[int, int]] = {}
        cut_pass(
            ctx.miter, ctx.simulator, selector, cfg, repr_of, pair_info,
            merges, ctx.bound, "SCHED",
        )
        # An unproved pair in a batch that proved something is NOT a
        # routing mistake: a local mismatch may be an SDC and the next
        # pass rotation may still prove it (the fixed engine's L phase
        # needs many rounds too).  A batch that proved nothing is one
        # for every pair in it: the whole pass was wasted work, and
        # those pairs go on to a later lane.
        for rp in attempted:
            if rp.node in merges:
                model.record(self.name, resolved=True)
                out.merges[rp.node] = merges[rp.node]
            else:
                out.unresolved.append(rp)
        if not merges:
            for _ in attempted:
                model.mispredict(self.name)
        return out


class BddLane:
    """Size-limited global BDDs (Kuehlmann-style): identical ids prove,
    a non-zero XOR disproves with a counter-example, node-budget blowout
    leaves the pair (and the rest of the batch) unresolved."""

    name = "bdd"

    def __init__(self, node_limit: int = 100_000) -> None:
        self.node_limit = node_limit

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        out = LaneOutcome()
        manager = BddManager(node_limit=self.node_limit)
        node_bdds: Dict[int, int] = {0: ZERO}
        blown = False
        for rp in pairs:
            if blown:
                # The manager saturated earlier in this batch: these
                # pairs were routed here and never got their answer, so
                # they are mispredictions too — this drives the lane
                # penalty to its cap after one blown batch, which is
                # exactly right for BDD-hostile structures (multipliers).
                model.mispredict(self.name)
                out.unresolved.append(rp)
                continue
            if _expired(ctx.deadline):
                out.unresolved.append(rp)
                continue
            try:
                pattern = bdd_pair_verdict(
                    ctx.miter, manager, node_bdds,
                    rp.repr_node, rp.node, rp.phase,
                )
            except BddLimitExceeded:
                # The shared manager is saturated: this pair failed and
                # the rest of the batch cannot build BDDs either.
                model.record(self.name, resolved=False)
                out.unresolved.append(rp)
                blown = True
                continue
            model.record(self.name, resolved=True)
            status = SolveStatus.UNSAT if pattern is None else SolveStatus.SAT
            record_pair_verdict(
                ctx.bound, rp.lit_r, rp.lit_n, status, pattern, 0.0,
                0, ctx.deadline, context="SCHED", engine="bdd",
            )
            if pattern is None:
                out.merges[rp.node] = (rp.repr_node, rp.phase)
            else:
                out.cex_patterns.append(pattern)
        return out


class SatBatchLane:
    """Batched incremental SAT: one shared solver per round.

    All routed pairs (including every other lane's rerouted leftovers)
    are assumption-guarded queries against a single lazily-encoded CNF;
    proved equivalences are asserted into the shared instance so later
    queries in the batch solve against an already-reduced search space.
    Each pair gets its own conflict budget, scaled with cone depth.

    ``round_propagations`` caps the batch's solver work: once the shared
    solver has done that many propagations, the remaining pairs come
    back unresolved without a query (``None``: no cap, for the
    full-budget drain).
    """

    name = "sat"

    def __init__(
        self,
        conflict_budget: int = 1_000,
        round_propagations: Optional[int] = None,
    ) -> None:
        self.conflict_budget = conflict_budget
        self.round_propagations = round_propagations

    def budget_for(self, f: PairFeatures) -> int:
        """Per-pair conflict budget: deeper cones earn more conflicts.

        Kept small on purpose — a pair this budget cannot settle stays
        in its class for the next refinement round, and the final PO
        proof runs at the full limit regardless, so a generous in-round
        budget only buys stalls (the CDCL solver here is interpreted
        Python: ~1k conflicts is already a noticeable pause).
        """
        return int(self.conflict_budget * (1.0 + min(f.level, 96) / 48.0))

    def run(
        self, ctx: RoundContext, pairs: List[RoutedPair], model: CostModel
    ) -> LaneOutcome:
        out = LaneOutcome()
        if not pairs:
            return out
        metrics = get_tracer().metrics
        metrics.counter_add("sat.batch.pairs", len(pairs))
        metrics.counter_add("sat.batch.solves", 1)
        solver = SatSolver()
        cnf = CnfBuilder(ctx.miter, solver)
        cap = self.round_propagations
        for rp in pairs:
            if _expired(ctx.deadline) or (
                cap is not None and solver.propagations >= cap
            ):
                out.unresolved.append(rp)
                continue
            status, pattern, _ = query_pair(
                cnf, ctx.bound, rp.lit_r, rp.lit_n,
                self.budget_for(rp.features), ctx.deadline, context="SCHED",
            )
            resolved = status is not SolveStatus.UNKNOWN
            model.record(self.name, resolved=resolved)
            if status is SolveStatus.UNSAT:
                out.merges[rp.node] = (rp.repr_node, rp.phase)
            elif status is SolveStatus.SAT:
                out.cex_patterns.append(pattern)
            else:
                out.unresolved.append(rp)
        return out
