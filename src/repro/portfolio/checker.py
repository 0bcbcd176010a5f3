"""Combined and portfolio equivalence checkers.

``CombinedChecker`` is the paper's headline configuration: run the
simulation-based engine first, then hand the reduced miter to the SAT
sweeping checker.  ``PortfolioChecker`` stands in for the commercial
multi-engine tool: try a cheap BDD engine (with a node budget) first,
fall back to SAT sweeping — "a combination of engines … early stop when
an engine finishes" (§IV-A).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.bdd.cec import BddChecker
from repro.cache.knowledge import SweepCache
from repro.obs import get_tracer
from repro.sat.sweeping import SatSweepChecker
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecResult, CecStatus, SimSweepEngine
from repro.sweep.report import (
    EngineFailure,
    EngineRunRecord,
    PortfolioReport,
)


@dataclass
class CombinedTimings:
    """Timing split of a combined run (the "Ours" columns of Table II)."""

    engine_seconds: float = 0.0
    sat_seconds: float = 0.0
    reduction_percent: float = 0.0
    engine_status: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        """End-to-end runtime."""
        return self.engine_seconds + self.sat_seconds


class CombinedChecker:
    """Simulation engine + SAT residue checker (the paper's flow).

    Parameters
    ----------
    config:
        Engine configuration for the simulation-based front end.
    sat_checker:
        Back end for residual miters; a default SAT sweeper is built if
        omitted.
    transfer_ecs:
        Enable the §V EC-transfer extension: the engine's pattern pool
        (with all its counter-examples) seeds the SAT sweeper's classes
        so disproved pairs are never re-checked.
    sched:
        ``"auto"`` (default) runs the P phase, then hands the residue to
        the adaptive per-pair scheduler (cost-model dispatch over
        sim/cut/BDD/batched-SAT lanes, see ``repro.sched``).  ``"fixed"``
        is the kill switch: the original P→G→L→SAT pipeline, byte for
        byte.  Both do the same work on the same input every time.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        sat_checker: Optional[SatSweepChecker] = None,
        transfer_ecs: bool = True,
        cache: Optional[SweepCache] = None,
        sched: str = "auto",
    ) -> None:
        if sched not in ("auto", "fixed"):
            raise ValueError(f"unknown sched mode {sched!r}")
        # One shared knowledge cache: what the engine proves, records, or
        # disproves is visible to the SAT back end within the same run.
        self.cache = (
            cache if cache is not None
            else SweepCache.from_config(config.cache if config else None)
        )
        self.engine = SimSweepEngine(config, cache=self.cache)
        self.sat_checker = sat_checker or SatSweepChecker(cache=self.cache)
        if self.sat_checker.cache is None and self.cache is not None:
            self.sat_checker.cache = self.cache
        self.transfer_ecs = transfer_ecs
        self.sched = sched
        self._sweeper = None
        self.timings = CombinedTimings()

    def _adaptive_sweeper(self):
        """The (lazily built, reused) adaptive residue scheduler."""
        if self._sweeper is None:
            from repro.sched import AdaptiveSweeper

            self._sweeper = AdaptiveSweeper(
                config=self.engine.config,
                conflict_limit=self.sat_checker.conflict_limit,
                time_limit=self.sat_checker.time_limit,
                cache=self.cache,
            )
        return self._sweeper

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig, state=None) -> CecResult:
        """Engine first; SAT sweeping on whatever is left.

        ``state`` is an optional carried
        :class:`~repro.sweep.state.SweepState` for ``miter`` — the shape
        the parallel portfolio's finisher hand-off delivers with a
        residue shipped on the result queue.  A state
        that owns the miter means the simulation phases already ran on
        it upstream, so the front-end engine is skipped and the SAT
        sweeper adopts the carried signatures directly (zero
        re-simulation).
        """
        self.timings = CombinedTimings()
        from repro.sweep.state import SweepState

        if isinstance(state, SweepState) and state.matches(miter):
            cache_snapshot = (
                self.cache.snapshot() if self.cache is not None else None
            )
            self.timings.engine_status = "adopted"
            start = time.perf_counter()
            with get_tracer().span(
                "combined.sat_residue",
                category="sat",
                residue_ands=miter.num_ands,
            ):
                sat_result = self.sat_checker.check_miter(miter, state=state)
            self.timings.sat_seconds = time.perf_counter() - start
            if self.cache is not None:
                if sat_result.report is not None:
                    sat_result.report.cache = self.cache.counters.diff(
                        cache_snapshot
                    )
            return sat_result
        cache_snapshot = (
            self.cache.snapshot() if self.cache is not None else None
        )
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("combined.engine", category="engine"):
            # Under adaptive scheduling the front end stops after the
            # one-shot P phase: everything P cannot settle outright goes
            # to the per-pair dispatcher instead of the fixed G→L→SAT
            # tail.  "fixed" runs the full original pipeline.
            engine_result = self.engine.check_miter(
                miter, stop_after="P" if self.sched == "auto" else None
            )
        self.timings.engine_seconds = time.perf_counter() - start
        self.timings.reduction_percent = (
            engine_result.report.reduction_percent
        )
        self.timings.engine_status = engine_result.status.value
        if engine_result.status is not CecStatus.UNDECIDED:
            return engine_result
        residue = engine_result.reduced_miter
        assert residue is not None
        state = engine_result.sim_state if self.transfer_ecs else None
        start = time.perf_counter()
        if self.sched == "auto":
            with tracer.span(
                "combined.sched_residue",
                category="sched",
                residue_ands=residue.num_ands,
            ):
                sat_result = self._adaptive_sweeper().check_miter(
                    residue, state=state
                )
            self.timings.sat_seconds = time.perf_counter() - start
            # Keep the engine phases and append the scheduler's record.
            if sat_result.report is not None:
                engine_result.report.phases.extend(sat_result.report.phases)
                engine_result.report.final_ands = (
                    sat_result.report.final_ands
                )
                engine_result.report.metrics = sat_result.report.metrics
                engine_result.report.total_seconds += (
                    sat_result.report.total_seconds
                )
            sat_result.report = engine_result.report
            if self.cache is not None:
                sat_result.report.cache = self.cache.counters.diff(
                    cache_snapshot
                )
            return sat_result
        with tracer.span(
            "combined.sat_residue", category="sat", residue_ands=residue.num_ands
        ):
            sat_result = self.sat_checker.check_miter(residue, state=state)
        self.timings.sat_seconds = time.perf_counter() - start
        if sat_result.report is not None:
            engine_result.report.total_seconds += (
                sat_result.report.total_seconds
            )
        sat_result.report = engine_result.report  # keep the engine phases
        if self.cache is not None:
            # Replace the engine-only delta with the combined one.
            sat_result.report.cache = self.cache.counters.diff(cache_snapshot)
        return sat_result


class PortfolioChecker:
    """Staged multi-engine checker (commercial-tool substitute).

    Engines run in order with individual budgets; the first conclusive
    answer wins.  The default staging is BDD (cheap on control logic and
    majority-style circuits, hopeless on multipliers — the node budget
    makes it give up fast there) followed by SAT sweeping.
    """

    def __init__(
        self,
        bdd_node_limit: int = 300_000,
        bdd_time_limit: Optional[float] = 30.0,
        sat_checker: Optional[SatSweepChecker] = None,
        cache: Optional[SweepCache] = None,
    ) -> None:
        self.bdd_checker = BddChecker(
            node_limit=bdd_node_limit, time_limit=bdd_time_limit
        )
        self.cache = cache
        self.sat_checker = sat_checker or SatSweepChecker(cache=cache)
        #: Per-engine seconds of the last run.
        self.engine_seconds: Dict[str, float] = {}
        #: Full report of the last run (also on ``CecResult.report``).
        self.report: Optional[PortfolioReport] = None

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Run the engine cascade with early stop.

        A stage that crashes is recorded as an
        :class:`~repro.sweep.report.EngineFailure` and the cascade moves
        on; :class:`~repro.portfolio.parallel.PortfolioError` is raised
        only when every stage fails.
        """
        from repro.portfolio.parallel import PortfolioError

        self.engine_seconds = {}
        report = PortfolioReport(start_method="inline")
        self.report = report
        cache_snapshot = (
            self.cache.snapshot() if self.cache is not None else None
        )
        best_undecided: Optional[CecResult] = None
        tracer = get_tracer()
        stages = [("bdd", self.bdd_checker), ("sat", self.sat_checker)]
        for name, checker in stages:
            record = EngineRunRecord(name=name, status="running")
            report.engines.append(record)
            start = time.perf_counter()
            try:
                with tracer.span(
                    f"stage:{name}", category="portfolio", engine=name
                ):
                    result = checker.check_miter(miter)
            except Exception as error:
                record.seconds = time.perf_counter() - start
                record.status = "failed"
                record.failure = EngineFailure(
                    engine=name,
                    message=repr(error),
                    traceback=traceback.format_exc(),
                )
                report.total_seconds += record.seconds
                continue
            record.seconds = time.perf_counter() - start
            report.total_seconds += record.seconds
            self.engine_seconds[name] = record.seconds
            record.status = result.status.value
            record.report = result.report
            if result.status is not CecStatus.UNDECIDED:
                report.winner = name
                if self.cache is not None:
                    report.cache = self.cache.counters.diff(cache_snapshot)
                if tracer.enabled:
                    report.metrics = tracer.metrics.as_dict()
                result.report = report
                return result
            if result.reduced_miter is not None:
                record.residue_ands = result.reduced_miter.num_ands
            if best_undecided is None or (
                result.reduced_miter is not None
                and best_undecided.reduced_miter is not None
                and result.reduced_miter.num_ands
                < best_undecided.reduced_miter.num_ands
            ):
                best_undecided = result
        if best_undecided is None:
            raise PortfolioError(report.failures, report)
        if self.cache is not None:
            report.cache = self.cache.counters.diff(cache_snapshot)
        if tracer.enabled:
            report.metrics = tracer.metrics.as_dict()
        best_undecided.report = report
        return best_undecided
