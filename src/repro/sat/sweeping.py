"""FRAIG-style SAT sweeping equivalence checker (ABC ``&cec`` substitute).

The classic SAT sweeping loop ([8], [16] in the paper): random simulation
initialises equivalence classes, candidate pairs are checked by a CDCL
solver with a conflict limit, SAT answers yield counter-examples that
split the classes, UNSAT answers merge the pair.  When classes dry up the
remaining miter POs are proved (or refuted) by final SAT calls.

Differences from the paper's engine are the point of the comparison: the
prover here is SAT, not exhaustive simulation, and there is no cut-based
local checking — a pair either succumbs to SAT within the conflict limit
or stays unresolved.

Proved pairs are additionally asserted as equivalences inside the live
solver (``a ↔ b`` clauses), so later queries in the same round benefit
from earlier merges — the incremental behaviour that makes SAT sweeping
strong in practice.

The SAT provers live here once and are shared with the scheduler:
:func:`query_pair` (one assumption-guarded pair query plus its cache
recording) backs both this sweeper and the batched SAT lane, and
:func:`prove_pos_batched` is the final PO proof of both flows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.aig.literals import CONST0, lit
from repro.aig.miter import build_miter, miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.cache.knowledge import SweepCache
from repro.obs import get_tracer
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus
from repro.sweep.classes import SimulationState
from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.loop import Round, SweepLoop, _expired, adopt_state
from repro.sweep.report import PhaseRecord
from repro.sweep.state import SweepState


@dataclass
class SatSweepStats:
    """Solver-level counters of one checking run."""

    rounds: int = 0
    sat_calls: int = 0
    proved_pairs: int = 0
    disproved_pairs: int = 0
    unknown_pairs: int = 0


class SatSweepChecker:
    """SAT sweeping CEC baseline.

    Parameters
    ----------
    conflict_limit:
        Per-query conflict budget (the ``-C`` option of ABC ``&cec``; the
        paper uses 100000 when proving residual miters).
    num_random_words:
        Random words for class initialisation (64 patterns per word).
    seed:
        RNG seed for the random patterns.
    time_limit:
        Optional wall-clock budget in seconds; exceeded → UNDECIDED, the
        partially reduced miter is returned.  Models the timeouts of the
        paper's Table II (ABC hit a 122-day timeout on log2_10xd).
    max_rounds:
        Sweep/refine iterations before giving up on internal pairs.
    """

    def __init__(
        self,
        conflict_limit: int = 100_000,
        num_random_words: int = 32,
        seed: int = 2025,
        time_limit: Optional[float] = None,
        max_rounds: int = 16,
        pattern_strategy: str = "random",
        cache: Optional[SweepCache] = None,
    ) -> None:
        self.conflict_limit = conflict_limit
        self.num_random_words = num_random_words
        self.seed = seed
        self.time_limit = time_limit
        self.max_rounds = max_rounds
        self.pattern_strategy = pattern_strategy
        self.cache = cache
        self.stats = SatSweepStats()

    # ------------------------------------------------------------------

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(
        self,
        miter: Aig,
        state: Optional[Union[SimulationState, SweepState]] = None,
    ) -> CecResult:
        """Run SAT sweeping on a miter.

        ``state`` optionally transfers knowledge from a previous engine
        (the EC-transfer extension of §V); see
        :func:`~repro.sweep.loop.adopt_state`.  A matching
        :class:`~repro.sweep.state.SweepState` is adopted outright: its
        carried signature matrix, classes and cache fingerprints are
        consumed in place and the initial cleanup/re-simulation is
        skipped entirely.
        """
        loop = SweepLoop("SAT", miter, self.cache, self.time_limit)
        self.stats = SatSweepStats()
        sweep = adopt_state(
            miter, state, self.num_random_words, self.seed,
            self.pattern_strategy, counter="sat",
        )
        return loop.run(
            sweep, "sat.check_miter", self.max_rounds, self._prove_round,
            lambda sweep, deadline, record: prove_pos_batched(
                sweep, self.cache, self.conflict_limit, deadline, record
            ),
        )

    # ------------------------------------------------------------------

    def _prove_round(
        self, sweep: SweepState, classes, pairs, deadline: Optional[float]
    ) -> Round:
        bound = sweep.bound_cache(self.cache)
        tracer = get_tracer()
        cnf = CnfBuilder(sweep.network(), SatSolver())
        merges = {}
        cex_patterns: List[List[int]] = []
        for repr_node, node, phase in pairs:
            if _expired(deadline):
                break
            lit_r = lit(repr_node)
            lit_n = lit(node, phase)
            if bound is not None:
                known = bound.lookup_pair(
                    lit_r, lit_n, want_inconclusive=True
                )
                if known is not None:
                    if known.is_equivalent:
                        merges[node] = (repr_node, phase)
                        self.stats.proved_pairs += 1
                        # Assert the cached equivalence so later SAT
                        # queries in this round benefit from it just
                        # like from a freshly proved one.
                        cnf.assert_equal(
                            cnf.literal(lit_r), cnf.literal(lit_n)
                        )
                        continue
                    if known.is_nonequivalent:
                        cex_patterns.append(known.cex)
                        self.stats.disproved_pairs += 1
                        continue
                    if known.conflict_limit >= self.conflict_limit:
                        # A budget at least as large already failed
                        # on this pair: re-solving cannot do better.
                        self.stats.unknown_pairs += 1
                        continue
            with tracer.span("sat.pair", category="sat") as pair_span:
                status, pattern, seconds = query_pair(
                    cnf, bound, lit_r, lit_n, self.conflict_limit,
                    deadline, context="SAT",
                )
                pair_span.set("status", status.name)
            self.stats.sat_calls += 1
            tracer.metrics.counter_add("sat.pair_calls")
            tracer.metrics.observe("sat.pair_seconds", seconds)
            if status is SolveStatus.UNSAT:
                merges[node] = (repr_node, phase)
                self.stats.proved_pairs += 1
            elif status is SolveStatus.SAT:
                cex_patterns.append(pattern)
                self.stats.disproved_pairs += 1
            else:
                self.stats.unknown_pairs += 1
        self.stats.rounds += 1
        return Round(merges, cex_patterns)


def record_pair_verdict(
    bound,
    lit_a: int,
    lit_b: int,
    status: SolveStatus,
    pattern: Optional[List[int]],
    seconds: float,
    conflict_limit: int,
    deadline: Optional[float],
    context: str,
    engine: str = "sat",
) -> None:
    """Record a solver verdict on a pair in the knowledge cache.

    ``bound`` is a :class:`~repro.cache.knowledge.BoundCache` or
    ``None``.  UNSAT records an equivalence, SAT the counter-example
    ``pattern``.  Only a genuine conflict-budget defeat is memoised as
    inconclusive; a deadline abort says nothing about what the full
    budget could have proved.
    """
    if bound is None:
        return
    if status is SolveStatus.UNSAT:
        bound.record_equivalent(
            lit_a, lit_b, engine=engine, context=context, seconds=seconds
        )
    elif status is SolveStatus.SAT:
        bound.record_nonequivalent(
            lit_a, lit_b, pattern, engine=engine, context=context,
            seconds=seconds,
        )
    elif not _expired(deadline):
        bound.record_inconclusive(
            lit_a, lit_b, engine=engine, context=context,
            conflict_limit=conflict_limit, seconds=seconds,
        )


def query_pair(
    cnf: CnfBuilder,
    bound,
    lit_a: int,
    lit_b: int,
    conflict_limit: int,
    deadline: Optional[float],
    context: str,
) -> Tuple[SolveStatus, Optional[List[int]], float]:
    """One equivalence query on a shared solver, recorded in the cache.

    SAT ⇔ the pair differs on some pattern.  The query is guarded by
    its own selector, so many queries share one solver; a proved pair
    is asserted back into the solver so later queries benefit.  Returns
    ``(status, counter-example or None, seconds)``.
    """
    start = time.perf_counter()
    sel, sol_a, sol_b = cnf.open_pair_query(lit_a, lit_b)
    status = cnf.solver.solve(
        assumptions=[sel], conflict_limit=conflict_limit, deadline=deadline
    )
    cnf.retire_query(sel)
    pattern = None
    if status is SolveStatus.UNSAT:
        cnf.assert_equal(sol_a, sol_b)
    elif status is SolveStatus.SAT:
        pattern = cnf.pi_pattern_from_model()
    seconds = time.perf_counter() - start
    record_pair_verdict(
        bound, lit_a, lit_b, status, pattern, seconds, conflict_limit,
        deadline, context,
    )
    return status, pattern, seconds


def prove_pos_batched(
    sweep: SweepState,
    cache,
    conflict_limit: int,
    deadline: Optional[float],
    record: PhaseRecord,
) -> CecResult:
    """Prove (or refute) the remaining miter POs on one shared solver.

    The final PO proof of both sweeping flows.  It always runs at the
    *full* conflict limit, so an adaptive run concludes exactly when
    the fixed pipeline's final SAT stage would — lane choices affect
    speed, never the verdict.  POs share the solver the same way batch
    pairs do (``sat.batch.*`` counters included).
    """
    miter = sweep.network()
    bound = sweep.bound_cache(cache)
    tracer = get_tracer()
    solver = SatSolver()
    cnf = CnfBuilder(miter, solver)
    new_pos = list(miter.pos)
    any_unknown = False
    queried = 0
    for i, po in enumerate(miter.pos):
        if po == CONST0:
            continue
        if _expired(deadline):
            any_unknown = True
            break
        record.candidates += 1
        if bound is not None:
            known = bound.lookup_pair(po, CONST0, want_inconclusive=True)
            if known is not None:
                if known.is_equivalent:
                    new_pos[i] = CONST0
                    record.proved += 1
                    continue
                if known.is_nonequivalent:
                    return CecResult(CecStatus.NONEQUIVALENT, cex=known.cex)
                if known.conflict_limit >= conflict_limit:
                    any_unknown = True
                    continue
        po_start = time.perf_counter()
        with tracer.span("sat.po", category="sat", po_index=i):
            sol_po = cnf.literal(po)
            sel = solver.new_var() << 1
            solver.add_clause([sel ^ 1, sol_po])
            status = solver.solve(
                assumptions=[sel],
                conflict_limit=conflict_limit,
                deadline=deadline,
            )
            solver.add_clause([sel ^ 1])
        queried += 1
        po_seconds = time.perf_counter() - po_start
        tracer.metrics.observe("sat.po_seconds", po_seconds)
        pattern = (
            cnf.pi_pattern_from_model() if status is SolveStatus.SAT else None
        )
        record_pair_verdict(
            bound, po, CONST0, status, pattern, po_seconds, conflict_limit,
            deadline, context="PO",
        )
        if status is SolveStatus.SAT:
            return CecResult(CecStatus.NONEQUIVALENT, cex=pattern)
        if status is SolveStatus.UNSAT:
            new_pos[i] = CONST0
            solver.add_clause([sol_po ^ 1])
            record.proved += 1
        else:
            any_unknown = True
    if queried:
        metrics = tracer.metrics
        metrics.counter_add("sat.batch.pairs", queried)
        metrics.counter_add("sat.batch.solves", 1)
    reduced = sweep.set_pos(new_pos)
    if not any_unknown and miter_is_trivially_unsat(reduced):
        return CecResult(CecStatus.EQUIVALENT)
    return CecResult(
        CecStatus.UNDECIDED, reduced_miter=reduced, sim_state=sweep
    )
