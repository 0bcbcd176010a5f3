"""The sweeping round loop shared by the SAT, BDD and adaptive sweepers.

Every sweeper runs the same outer loop ([6], [8] in the paper): random
simulation initialises equivalence classes, a prover settles the
candidate pairs of a round, counter-examples refine the classes and
proved pairs are merged, and once a round changes nothing the remaining
miter POs go to a final proof.  Only the provers differ — SAT
(:class:`~repro.sat.sweeping.SatSweepChecker`), size-limited BDDs
(:class:`~repro.bdd.sweeping.BddSweepChecker`) or cost-model dispatch
over lanes (:class:`~repro.sched.dispatcher.AdaptiveSweeper`) — so each
sweeper composes this module and supplies two callbacks:

- ``prove_round(sweep, classes, pairs, deadline)`` returns a
  :class:`Round` with the merges and counter-examples it found;
- ``prove_outputs(sweep, deadline, record)`` returns the final verdict.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.aig.miter import miter_is_trivially_unsat
from repro.aig.network import Aig
from repro.aig.transform import cleanup
from repro.obs import get_tracer
from repro.sweep.classes import EquivalenceClasses, SimulationState
from repro.sweep.engine import (
    CecResult,
    CecStatus,
    po_disproof,
    structural_verdict,
)
from repro.sweep.report import EngineReport, PhaseRecord, PhaseTimer
from repro.sweep.state import SweepState


def _expired(deadline: Optional[float]) -> bool:
    return deadline is not None and time.perf_counter() > deadline


class Round(NamedTuple):
    """What one round's prover settled.

    ``exhausted`` reports a prover that ran out of budget mid-round: a
    round that then merged nothing ends the loop even if it found
    counter-examples.
    """

    merges: Dict[int, Tuple[int, int]]
    cex_patterns: List[List[int]]
    exhausted: bool = False


def adopt_state(
    miter: Aig,
    state: Optional[Union[SimulationState, SweepState]],
    num_random_words: int,
    seed: int,
    strategy: str = "random",
    counter: str = "sat",
) -> SweepState:
    """Build the working :class:`SweepState` of a sweeper run.

    A ``SweepState`` that matches ``miter`` is reused verbatim (no
    cleanup — its network is already compact, and cleaning would orphan
    the carried knowledge).  Otherwise a fresh state is built from the
    cleaned miter and any transferred pattern pool is adopted, so
    counter-examples found elsewhere pre-split the classes.

    Verbatim adoption is the zero-re-simulation hand-off of a portfolio
    residue (a finisher adopts the carried state another process shipped
    on the result queue); it is counted as ``<counter>.state_adopted``
    with the carried signature words under
    ``<counter>.adopted_carried_words``.
    """
    if isinstance(state, SweepState) and state.matches(miter):
        metrics = get_tracer().metrics
        metrics.counter_add(f"{counter}.state_adopted")
        metrics.counter_add(
            f"{counter}.adopted_carried_words", state.carried_words
        )
        return state
    sweep = SweepState(
        cleanup(miter),
        num_random_words=num_random_words,
        seed=seed,
        strategy=strategy,
    )
    if state is not None and state.num_pis == sweep.num_pis:
        pool = state.pool() if isinstance(state, SweepState) else state
        sweep.adopt_pool(pool)
    return sweep


ProveRound = Callable[
    [SweepState, EquivalenceClasses, list, Optional[float]], Round
]
ProveOutputs = Callable[
    [SweepState, Optional[float], PhaseRecord], CecResult
]


class SweepLoop:
    """One sweeper run: its deadline, phase record, report and rounds.

    Create it first thing in ``check_miter`` (the report's time counts
    from here), then hand the adopted state to :meth:`run`.
    """

    def __init__(
        self, kind: str, miter: Aig, cache, time_limit: Optional[float]
    ) -> None:
        self.start = time.perf_counter()
        self.report = EngineReport(initial_ands=miter.num_ands)
        self.record = PhaseRecord(kind)
        self.cache = cache
        self._snapshot = cache.snapshot() if cache is not None else None
        self.deadline = (
            self.start + time_limit if time_limit is not None else None
        )

    def run(
        self,
        sweep: SweepState,
        span: str,
        max_rounds: int,
        prove_round: ProveRound,
        prove_outputs: ProveOutputs,
    ) -> CecResult:
        """Run the round loop under a ``span`` and return the finished
        result (its report attached)."""
        with get_tracer().span(
            span,
            category=span.partition(".")[0],
            initial_ands=sweep.network().num_ands,
        ), PhaseTimer(self.record):
            result = self._rounds(
                sweep, max_rounds, prove_round, prove_outputs
            )
        return self._finish(result)

    def _rounds(
        self,
        sweep: SweepState,
        max_rounds: int,
        prove_round: ProveRound,
        prove_outputs: ProveOutputs,
    ) -> CecResult:
        record, deadline = self.record, self.deadline
        verdict = structural_verdict(sweep.network())
        if verdict is not None:
            return verdict
        for _ in range(max_rounds):
            if _expired(deadline):
                break
            disproof = po_disproof(sweep)
            if disproof is not None:
                return disproof
            classes = sweep.classes()
            pairs = list(classes.all_pairs())
            if not pairs:
                break
            record.candidates += len(pairs)
            merges, cex_patterns, exhausted = prove_round(
                sweep, classes, pairs, deadline
            )
            record.proved += len(merges)
            record.cex += len(cex_patterns)
            if cex_patterns:
                sweep.add_cex_patterns(cex_patterns)
            if merges:
                sweep.apply_merges(merges)
            if miter_is_trivially_unsat(sweep.network()):
                return CecResult(CecStatus.EQUIVALENT)
            if not merges and (exhausted or not cex_patterns):
                break
        if _expired(deadline):
            return CecResult(
                CecStatus.UNDECIDED,
                reduced_miter=sweep.network(),
                sim_state=sweep,
            )
        return prove_outputs(sweep, deadline, record)

    def _finish(self, result: CecResult) -> CecResult:
        record, report = self.record, self.report
        record.miter_ands_after = (
            result.reduced_miter.num_ands if result.reduced_miter else 0
        )
        report.final_ands = record.miter_ands_after
        report.phases.append(record)
        report.total_seconds = time.perf_counter() - self.start
        if self.cache is not None:
            self.cache.flush()
            report.cache = self.cache.counters.diff(self._snapshot)
        tracer = get_tracer()
        if tracer.enabled:
            report.metrics = tracer.metrics.as_dict()
        result.report = report
        return result
