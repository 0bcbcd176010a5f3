"""Fault-tolerant concurrent multi-engine checking.

The paper describes commercial checkers as running "different engines
simultaneously and early stop when an engine finishes" (§IV-A) on up to
16 CPU threads.  :class:`ParallelPortfolioChecker` reproduces that
architecture with one OS process per engine, racing to the first
conclusive answer.

The process/queue machinery — spawn-safe start-method resolution,
staged SIGTERM → SIGKILL budgets, late-message spill drains — lives in
:mod:`repro.exec`; this module is the *policy*: which engines to race,
how to score their messages into a
:class:`~repro.sweep.report.PortfolioReport`, when to cancel the rest,
and the residue hand-off to a finisher engine after a global timeout.
Crash surfacing is structural: a worker exception or abnormal exit
becomes an :class:`~repro.sweep.report.EngineFailure` on the report
(with the kill reason, "timeout" or "cancelled", as the runtime's stop
recorded it), and the run raises
:class:`PortfolioError` only when *every* engine fails.

Engines are named specs so they pickle cleanly:

- ``("sim", {...EngineConfig kwargs...})`` — the simulation engine;
- ``("combined", {...})`` — simulation engine + SAT residue;
- ``("sat", {"conflict_limit": ..., ...})`` — SAT sweeping;
- ``("bdd", {"node_limit": ...})`` — monolithic BDD;
- ``("bddsweep", {"node_limit": ...})`` — BDD sweeping;
- ``("sleep", {"seconds": ...})`` / ``("crash", {...})`` — fault
  injection (see :mod:`repro.portfolio.faults`).

A spec may carry an optional third element, a per-engine wall-clock
budget in seconds: ``("sat", {}, 10.0)``.
"""

from __future__ import annotations

import inspect
import time
import traceback
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.aig.miter import build_miter
from repro.aig.network import Aig
from repro.cache.config import CacheConfig
from repro.cache.counters import CacheCounters
from repro.cache.knowledge import SweepCache
from repro.exec import (
    REASON_CANCELLED,
    REASON_TIMEOUT,
    ExecRuntime,
    WorkerHandle,
)
from repro.exec import (  # noqa: F401  (re-exported compat surface)
    START_METHOD_ENV,
    resolve_start_method,
    stop_process_staged,
)
from repro.exec.transport import pack_residue
from repro.obs import get_tracer
from repro.sweep.engine import CecResult, CecStatus
from repro.sweep.report import (
    EngineFailure,
    EngineReport,
    EngineRunRecord,
    PortfolioReport,
)
from repro.sweep.state import SweepState

EngineSpec = Union[Tuple[str, Dict], Tuple[str, Dict, float]]

#: The default engine line-up: one of each prover family.
DEFAULT_ENGINES: List[EngineSpec] = [
    ("combined", {}),
    ("sat", {}),
    ("bdd", {"node_limit": 500_000}),
]

#: Default finisher: a conflict-limited SAT sweep over the best residue.
DEFAULT_FINISHER: EngineSpec = ("sat", {"conflict_limit": 20_000})


class PortfolioError(RuntimeError):
    """Raised when every engine of a portfolio run failed.

    Carries the structured failures and the full
    :class:`~repro.sweep.report.PortfolioReport` of the run.
    """

    def __init__(
        self, failures: Sequence[EngineFailure], report: PortfolioReport
    ) -> None:
        self.failures = list(failures)
        self.report = report
        details = "; ".join(str(f) for f in self.failures)
        super().__init__(
            f"all {len(self.failures)} portfolio engines failed: {details}"
        )


#: The engine specs a serve job may name.  :func:`build_checker` also
#: builds the fault injectors (``sleep``, ``crash``), which only tests
#: may reach.
SERVED_ENGINES = ("combined", "sim", "sat", "bdd")


def served_engine_kwargs(engine: str) -> FrozenSet[str]:
    """The ``engine_kwargs`` keys a serve job may pass to ``engine``.

    Read off the checker's own configuration: the :class:`EngineConfig`
    fields for ``sim`` (plus ``sched`` for ``combined``), the constructor
    parameters for ``sat`` and ``bdd``.  ``cache`` is never a client's to
    choose: the serve worker injects the tenant's knowledge cache.
    """
    if engine in ("sim", "combined"):
        from repro.sweep.config import EngineConfig

        keys = {f.name for f in fields(EngineConfig)}
        if engine == "combined":
            keys.add("sched")
    elif engine == "sat":
        from repro.sat.sweeping import SatSweepChecker

        keys = set(inspect.signature(SatSweepChecker).parameters)
    elif engine == "bdd":
        from repro.bdd.cec import BddChecker

        keys = set(inspect.signature(BddChecker).parameters)
    else:
        raise ValueError(f"{engine!r} is not a served engine")
    return frozenset(keys - {"cache"})


def build_checker(
    spec: EngineSpec,
    cache_dir: Optional[str] = None,
    cache_readonly: bool = False,
    cache: Optional[SweepCache] = None,
):
    """Instantiate a checker from a picklable spec.

    The optional third spec element (the per-engine budget) is consumed
    by the orchestrator, not the checker, and is ignored here.
    ``cache_dir`` attaches a functional-knowledge cache to the engines
    that support one; ``cache_readonly`` loads it as a snapshot whose
    deltas are never written back (portfolio workers — the parent merges
    their deltas on join instead).  ``cache`` injects an already-loaded
    cache object instead (serve workers keep theirs resident across
    jobs); it wins over ``cache_dir``.
    """
    kind, kwargs = spec[0], spec[1]

    def knowledge_cache() -> Optional[SweepCache]:
        if cache is not None:
            return cache
        if cache_dir is None:
            return None
        return SweepCache(
            CacheConfig(directory=cache_dir, readonly=cache_readonly)
        )

    if kind == "sim":
        from repro.sweep.config import EngineConfig
        from repro.sweep.engine import SimSweepEngine

        return SimSweepEngine(EngineConfig(**kwargs), cache=knowledge_cache())
    if kind == "combined":
        from repro.portfolio.checker import CombinedChecker
        from repro.sweep.config import EngineConfig

        kwargs = dict(kwargs)
        sched = kwargs.pop("sched", "auto")
        config = EngineConfig(**kwargs) if kwargs else None
        return CombinedChecker(
            config=config,
            cache=knowledge_cache(),
            sched=sched,
        )
    if kind == "sat":
        from repro.sat.sweeping import SatSweepChecker

        return SatSweepChecker(**kwargs, cache=knowledge_cache())
    if kind == "bdd":
        from repro.bdd.cec import BddChecker

        return BddChecker(**kwargs)
    if kind == "bddsweep":
        from repro.bdd.sweeping import BddSweepChecker

        return BddSweepChecker(**kwargs)
    if kind == "sleep":
        from repro.portfolio.faults import SleepingChecker

        return SleepingChecker(**kwargs)
    if kind == "crash":
        from repro.portfolio.faults import CrashingChecker

        return CrashingChecker(**kwargs)
    raise ValueError(f"unknown engine spec {kind!r}")


def run_engine_job(payload: Dict, ctx) -> Dict:
    """One-shot job handler: run one engine on the miter, report once.

    Runs inside an :func:`repro.exec.worker.exec_worker_main` child.
    The checker gets a *read-only* snapshot of the knowledge cache (no
    mid-run disk contention) and ships the verdicts it accumulated back
    on the result message, so the parent can merge and persist them.
    UNDECIDED residues ride back with the carried sweep state, when it
    still owns them (:func:`~repro.exec.transport.pack_residue`).
    """
    spec = payload["spec"]
    miter = payload["miter"]
    checker = build_checker(
        spec, cache_dir=payload.get("cache_dir"), cache_readonly=True
    )
    with get_tracer().span(
        f"engine:{spec[0]}", category="engine", engine=spec[0]
    ):
        result = checker.check_miter(miter)
    message: Dict = {"status": result.status.value, "cex": result.cex}
    if isinstance(result.report, EngineReport):
        message["report"] = result.report.as_dict()
    cache = getattr(checker, "cache", None)
    if cache is not None:
        message["cache"] = cache.counters.as_dict()
        message["cache_delta"] = list(cache.store.pending)
    pack_residue(message, result)
    return message


@dataclass
class _WorkerState(WorkerHandle):
    """Parent-side bookkeeping for one engine worker."""

    record: Optional[EngineRunRecord] = None
    budget: Optional[float] = None
    deadline: Optional[float] = None
    done: bool = False
    #: Monotonic time the process was first observed dead without having
    #: posted a result (grace period for in-flight queue messages).
    dead_since: Optional[float] = None
    #: Carried :class:`SweepState` shipped alongside an UNDECIDED
    #: residue.
    sim_state: Optional[SweepState] = None


class ParallelPortfolioChecker:
    """Race engines in separate processes; first conclusive answer wins.

    Parameters
    ----------
    engines:
        Engine specs (see module docstring); defaults to one checker per
        prover family.  A spec may carry a third element — its
        wall-clock budget in seconds.
    time_limit:
        Overall wall-clock budget; on expiry all engines are terminated
        and the best residue seen so far (if any) is handed to the
        finisher, then returned UNDECIDED.
    engine_time_limit:
        Default per-engine budget for specs without their own.
    start_method:
        Multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); see :func:`repro.exec.resolve_start_method`
        for the default resolution.
    finisher:
        Engine spec run in-process on the smallest residue after a
        global timeout.  Defaults to a conflict-limited SAT sweep;
        pass ``None`` to disable the hand-off.
    finisher_time_limit:
        Wall-clock budget injected into the default finisher.
    terminate_grace:
        Seconds to wait between SIGTERM and SIGKILL when stopping a
        worker.
    cache_dir:
        Directory of the functional-knowledge cache.  Workers are
        pre-seeded with a read-only snapshot; their verdict deltas ride
        back on the result messages and the parent merges and persists
        them — concurrent workers never write the store directly.

    Raises
    ------
    PortfolioError
        When every engine fails (crash or abnormal exit) — a portfolio
        with no surviving engine has no verdict to report.
    """

    _POLL_INTERVAL = 0.05
    _DEAD_GRACE = 1.0

    def __init__(
        self,
        engines: Optional[Sequence[EngineSpec]] = None,
        time_limit: Optional[float] = None,
        engine_time_limit: Optional[float] = None,
        start_method: Optional[str] = None,
        finisher: Union[EngineSpec, None, str] = "default",
        finisher_time_limit: float = 5.0,
        terminate_grace: float = 1.0,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.engines = list(engines) if engines is not None else list(
            DEFAULT_ENGINES
        )
        if not self.engines:
            raise ValueError("need at least one engine spec")
        self.time_limit = time_limit
        self.engine_time_limit = engine_time_limit
        self.start_method = start_method
        if finisher == "default":
            kind, kwargs = DEFAULT_FINISHER[0], dict(DEFAULT_FINISHER[1])
            kwargs.setdefault("time_limit", finisher_time_limit)
            self.finisher: Optional[EngineSpec] = (kind, kwargs)
        else:
            self.finisher = finisher
        self.terminate_grace = terminate_grace
        self.cache_dir = cache_dir
        #: Parent-side knowledge cache: loads the snapshot the workers
        #: are pre-seeded with, absorbs their deltas on join, and is the
        #: only writer of the store during a parallel run.
        self.cache: Optional[SweepCache] = (
            SweepCache(CacheConfig(directory=cache_dir))
            if cache_dir is not None
            else None
        )
        #: Engine that produced the winning verdict in the last run.
        self.winner: Optional[str] = None
        #: Full report of the last run (also on ``CecResult.report``).
        self.report: Optional[PortfolioReport] = None
        #: Residue left by the last finisher run (smaller than the input
        #: when the finisher made partial progress).
        self._finisher_residue: Optional[Aig] = None
        #: Live job runtime of the current run.
        self._runtime: Optional[ExecRuntime] = None

    def check(self, aig_a: Aig, aig_b: Aig) -> CecResult:
        """Check two networks for equivalence (builds the miter)."""
        return self.check_miter(build_miter(aig_a, aig_b))

    def check_miter(self, miter: Aig) -> CecResult:
        """Race the configured engines on a miter."""
        tracer = get_tracer()
        trace = tracer.enabled
        runtime = ExecRuntime(
            start_method=self.start_method,
            trace=trace,
            terminate_grace=self.terminate_grace,
            spill=True,
        ).open()
        self._runtime = runtime
        started_at = time.monotonic()
        report = PortfolioReport(start_method=runtime.start_method)
        self.report = report
        self.winner = None

        workers: List[_WorkerState] = []
        for index, spec in enumerate(self.engines):
            record = EngineRunRecord(name=spec[0], status="running")
            report.engines.append(record)
            state = _WorkerState(
                index=index,
                name=spec[0],
                record=record,
                budget=spec[2] if len(spec) > 2 else self.engine_time_limit,
            )
            runtime.spawn(
                state,
                run_engine_job,
                payload={
                    "spec": spec,
                    "miter": miter,
                    "cache_dir": self.cache_dir,
                },
                trace_name=f"worker:{spec[0]}",
                start=False,
            )
            workers.append(state)

        best_residue: Optional[Aig] = None
        best_state: Optional[SweepState] = None
        verdict: Optional[CecResult] = None
        timed_out = False
        run_span = tracer.span(
            "portfolio.run",
            category="portfolio",
            engines=len(self.engines),
            start_method=runtime.start_method,
        )
        run_span.__enter__()
        sampler = None
        try:
            for state in workers:
                state.process.start()
                state.started = time.monotonic()
                if state.budget is not None:
                    state.deadline = state.started + state.budget
            if trace:
                # Per-worker RSS/CPU histograms for the merged dump —
                # only worth a thread when someone will read the trace.
                from repro.obs.telemetry import ResourceSampler

                sampler = ResourceSampler(
                    lambda: [w.pid for w in workers],
                    tracer.metrics,
                    prefix="portfolio.worker",
                    interval=0.25,
                )
                sampler.start()
            global_deadline = (
                started_at + self.time_limit
                if self.time_limit is not None
                else None
            )

            while any(not w.done for w in workers):
                now = time.monotonic()
                if global_deadline is not None and now >= global_deadline:
                    timed_out = True
                    break
                message = runtime.poll(
                    self._poll_timeout(workers, now, global_deadline)
                )
                if message is not None:
                    residue = self._record_message(
                        workers[message["index"]], message
                    )
                    if isinstance(residue, CecResult):
                        verdict = residue
                        break
                    if residue is not None and (
                        best_residue is None
                        or residue.num_ands < best_residue.num_ands
                    ):
                        best_residue = residue
                        best_state = workers[message["index"]].sim_state
                self._reap_workers(workers)

            if verdict is not None:
                self._cancel_remaining(workers, REASON_CANCELLED)
                report.winner = self.winner
                report.total_seconds = time.monotonic() - started_at
                verdict.report = report
                return verdict

            self._cancel_remaining(
                workers, REASON_TIMEOUT if timed_out else REASON_CANCELLED
            )

            failures = [
                w.record.failure
                for w in workers
                if w.record.failure is not None
            ]
            if len(failures) == len(workers):
                report.total_seconds = time.monotonic() - started_at
                raise PortfolioError(failures, report)

            if timed_out and best_residue is not None:
                finished = self._run_finisher(
                    best_residue, report, state=best_state
                )
                if finished is not None:
                    report.total_seconds = time.monotonic() - started_at
                    finished.report = report
                    return finished
                if (
                    self._finisher_residue is not None
                    and self._finisher_residue.num_ands
                    < best_residue.num_ands
                ):
                    best_residue = self._finisher_residue
                    best_state = None

            report.total_seconds = time.monotonic() - started_at
            return CecResult(
                CecStatus.UNDECIDED,
                reduced_miter=(
                    best_residue if best_residue is not None else miter
                ),
                report=report,
                sim_state=best_state,
            )
        finally:
            if sampler is not None:
                sampler.stop()
            for state in workers:
                if state.process is not None:
                    stop_process_staged(
                        state.process, self.terminate_grace, engine=state.name
                    )
            # Cancelled losers post their traces and cache deltas during
            # the terminate-grace window; drain the queue to exhaustion
            # (and collect any spill files) *before* closing it —
            # cancel_join_thread after close would discard whatever the
            # feeder threads still had in flight.
            runtime.drain_late(
                lambda message: self._record_message(
                    workers[message["index"]], message
                ),
                max_wait=2.0 if trace else 0.5,
            )
            if trace:
                run_span.set("winner", self.winner or "")
            run_span.__exit__(None, None, None)
            if trace:
                report.metrics = tracer.metrics.as_dict()
            if self.cache is not None:
                self.cache.flush()
            runtime.close()
            self._runtime = None

    # ------------------------------------------------------------------
    # Orchestration internals
    # ------------------------------------------------------------------

    def _poll_timeout(
        self,
        workers: List[_WorkerState],
        now: float,
        global_deadline: Optional[float],
    ) -> float:
        """Bound one queue wait by the poll interval and the nearest
        deadline (global or per-engine), so budget enforcement and dead
        worker detection stay responsive."""
        timeout = self._POLL_INTERVAL
        deadlines = [
            w.deadline for w in workers if not w.done and w.deadline is not None
        ]
        if global_deadline is not None:
            deadlines.append(global_deadline)
        if deadlines:
            timeout = min(timeout, max(0.0, min(deadlines) - now))
        return timeout

    def _record_message(
        self, state: _WorkerState, message: Dict
    ) -> Union[CecResult, Aig, None]:
        """Fold one worker message into its record.

        Returns a :class:`CecResult` for a conclusive verdict, the
        residue network for an UNDECIDED report, ``None`` otherwise.
        """
        runtime = self._runtime
        if runtime is not None:
            runtime.merge_trace(message)
        # A worker posts at most one message, so trace and cache deltas
        # are safe to fold in even when the record is already settled
        # (late post from a worker the parent timed out or cancelled).
        if state.done or message["status"] == "terminated":
            self._merge_worker_cache(message)
            record = state.record
            if (
                message["status"] == "error"
                and record is not None
                and record.failure is None
                and state.stop_reason
            ):
                # A late error is the engine's own crash: a cancelled
                # worker either dies of the SIGTERM or posts
                # "terminated".  The record reads failed whichever
                # message arrived first; the kill reason stays on the
                # failure.
                record.status = "failed"
                record.failure = EngineFailure(
                    engine=state.name,
                    message=message.get("message", ""),
                    traceback=message.get("traceback", ""),
                    reason=state.stop_reason,
                )
            return None
        state.done = True
        record = state.record
        record.seconds = message["seconds"]
        self._merge_worker_cache(message)
        report_payload = message.get("report")
        if report_payload:
            record.report = EngineReport.from_dict(report_payload)
        status = message["status"]
        if status == "error":
            record.status = "failed"
            record.failure = EngineFailure(
                engine=state.name,
                message=message["message"],
                traceback=message.get("traceback", ""),
                reason=state.stop_reason,
            )
            return None
        if status == "undecided":
            record.status = "undecided"
            residue = message.get("residue")
            if residue is not None:
                record.residue_ands = residue.num_ands
                state.sim_state = message.get("sim_state")
            return residue
        record.status = status
        self.winner = state.name
        if status == "equivalent":
            return CecResult(CecStatus.EQUIVALENT)
        return CecResult(CecStatus.NONEQUIVALENT, cex=message.get("cex"))

    def _merge_worker_cache(self, message: Dict) -> None:
        """Fold a worker's knowledge delta and counters into the run."""
        if self.report is not None and "cache" in message:
            if self.report.cache is None:
                self.report.cache = CacheCounters()
            self.report.cache.add(CacheCounters.from_dict(message["cache"]))
        if self.cache is None:
            return
        for key, verdict in message.get("cache_delta", ()):
            if self.cache.store.put(key, verdict):
                self.cache.counters.stores += 1

    def _reap_workers(self, workers: List[_WorkerState]) -> None:
        """Enforce per-engine budgets and detect abnormal exits."""
        now = time.monotonic()
        for state in workers:
            if state.done:
                continue
            if state.deadline is not None and now >= state.deadline:
                reason = self._runtime.stop(state, REASON_TIMEOUT)
                state.done = True
                state.record.status = reason
                state.record.seconds = now - state.started
                continue
            if not state.alive:
                if state.dead_since is None:
                    # Allow in-flight queue messages to drain before
                    # declaring the exit abnormal.
                    state.dead_since = now
                elif now - state.dead_since >= self._DEAD_GRACE:
                    state.done = True
                    state.record.status = "failed"
                    state.record.seconds = now - state.started
                    state.record.failure = EngineFailure(
                        engine=state.name,
                        message="worker exited without reporting a result",
                        exit_code=state.process.exitcode,
                        reason=state.stop_reason,
                    )

    def _cancel_remaining(
        self, workers: List[_WorkerState], status: str
    ) -> None:
        """Stop every still-running worker and record the reason why.

        A worker keeps the first reason it was stopped for, so records
        (and any :class:`EngineFailure` attached to a late crash) always
        read exactly "timeout" or "cancelled".
        """
        now = time.monotonic()
        for state in workers:
            if state.done:
                continue
            reason = self._runtime.stop(state, status)
            state.done = True
            state.record.status = reason
            state.record.seconds = now - state.started

    def _run_finisher(
        self,
        residue: Aig,
        report: PortfolioReport,
        state: Optional[SweepState] = None,
    ) -> Optional[CecResult]:
        """Re-check the best residue in-process after a global timeout.

        Returns a conclusive :class:`CecResult` when the finisher proves
        or disproves the residue, ``None`` otherwise.  Finisher crashes
        are recorded on the report, never raised — the portfolio still
        has its UNDECIDED answer to return.

        ``state`` is the carried :class:`SweepState` that rode the result
        queue with the residue; a finisher whose ``check_miter`` accepts
        a ``state`` argument (the SAT sweeper does) picks up its carried
        signatures and pattern pool directly instead of re-simulating
        the residue from scratch.
        """
        self._finisher_residue: Optional[Aig] = None
        if self.finisher is None:
            return None
        record = EngineRunRecord(
            name=f"finisher:{self.finisher[0]}", status="running"
        )
        report.finisher = record
        start = time.perf_counter()
        try:
            if self.cache is not None:
                # Persist the merged worker deltas so the finisher's own
                # cache loads them as part of its snapshot.
                self.cache.flush()
            checker = build_checker(self.finisher, cache_dir=self.cache_dir)
            result = self._dispatch_finisher(checker, residue, state)
        except Exception as error:
            record.seconds = time.perf_counter() - start
            record.status = "failed"
            record.failure = EngineFailure(
                engine=record.name,
                message=repr(error),
                traceback=traceback.format_exc(),
            )
            return None
        record.seconds = time.perf_counter() - start
        record.status = result.status.value
        finisher_cache = getattr(checker, "cache", None)
        if finisher_cache is not None:
            if report.cache is None:
                report.cache = CacheCounters()
            report.cache.add(finisher_cache.counters)
        if result.status is CecStatus.UNDECIDED:
            if result.reduced_miter is not None:
                record.residue_ands = result.reduced_miter.num_ands
                self._finisher_residue = result.reduced_miter
            return None
        self.winner = record.name
        report.winner = record.name
        return result

    @staticmethod
    def _dispatch_finisher(
        checker, residue: Aig, state: Optional[SweepState]
    ) -> CecResult:
        """Invoke the finisher, handing over the carried state if it can.

        Checkers advertise state adoption by accepting a ``state``
        keyword on ``check_miter``; anything else gets the plain call.
        """
        if state is not None:
            try:
                params = inspect.signature(checker.check_miter).parameters
            except (TypeError, ValueError):
                params = {}
            if "state" in params:
                return checker.check_miter(residue, state=state)
        return checker.check_miter(residue)
