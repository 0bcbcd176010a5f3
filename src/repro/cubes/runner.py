"""The distributed cube race: cofactor jobs, first conclusive one wins.

:class:`CubeRunner` turns one hard SAT query — "is any PO of this cone
satisfiable?" — into a family of sibling jobs on a warm
:class:`~repro.exec.runtime.ExecRuntime` worker pool: the monolithic
query plus one cofactor job per cube.  The race settles the moment any
sibling is conclusive for the whole query:

- any job (cube or monolith) finds a model → **SAT**, with the cube's
  assignments patched back into the counter-example;
- the monolith proves UNSAT → **UNSAT**;
- *every* cube proves UNSAT → **UNSAT** (the cubes are exhaustive).

Once the race is settled the rest are dropped: losers still queued in
the race's backlog are discarded, losers already running are
staged-killed (SIGTERM → SIGKILL) and their workers respawned lazily
before the next race.  ``cubes.split`` counts fanned-out cube jobs,
``cubes.cancelled`` counts dropped losers — the pair of counters
``tools/check_trace.py --require-cubes`` gates CI on.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.aig.literals import CONST0, lit_is_const
from repro.aig.network import Aig
from repro.obs import get_tracer
from repro.sat.cnf import CnfBuilder
from repro.sat.solver import SatSolver, SolveStatus

from repro.cubes.split import Cube, cofactor, patch_pattern
from repro.exec import (
    REASON_TIMEOUT,
    START_METHOD_ENV,
    ExecRuntime,
    WorkerHandle,
)

#: Job label of the unsplit sibling in stats.
MONOLITH = "monolith"


def _solver_deadline(deadline_epoch: Optional[float]) -> Optional[float]:
    """Convert a wall-clock (epoch) deadline to this process's
    ``perf_counter`` timebase (what :meth:`SatSolver.solve` expects)."""
    if deadline_epoch is None:
        return None
    return time.perf_counter() + (deadline_epoch - time.time())


def run_cube_job(message: Dict, ctx) -> Dict:
    """Loop-mode job handler: solve one cofactor of the shipped cone.

    The cone arrives in the job's payload (``"aig"``).  The cofactor
    under the job's cube is built locally — constant propagation through
    :func:`~repro.cubes.split.cofactor` is exactly what makes the
    sub-problem cheaper than the monolith — and the query "some PO is 1"
    is solved under the job's conflict/deadline budgets.  A model is
    patched back into original-input space before it is returned.

    ``"delay"`` (seconds) is a test-only knob that parks the job before
    solving, giving the staged-kill tests a deterministic slow loser.
    """
    delay = float(message.get("delay") or 0.0)
    if delay > 0.0:
        time.sleep(delay)
    cube = Cube.from_list(message.get("cube") or [])
    with get_tracer().span("cubes.job", category="cubes", cube=str(cube)):
        cof = cofactor(message["aig"], cube)
        reply = _solve_cofactor(
            cof,
            cube,
            conflict_limit=message.get("conflict_limit"),
            deadline=_solver_deadline(message.get("deadline_epoch")),
        )
    reply["cube"] = cube.as_list()
    reply["ands"] = cof.num_ands
    return reply


def _solve_cofactor(
    cof: Aig,
    cube: Cube,
    conflict_limit: Optional[int],
    deadline: Optional[float],
) -> Dict:
    """SAT-solve "some PO of ``cof`` is 1"; constants short-circuit."""
    live_pos = [po for po in cof.pos if po != CONST0]
    if not live_pos:
        return {"status": "unsat", "conflicts": 0}
    if any(lit_is_const(po) for po in live_pos):
        # A PO collapsed to constant-true under the cube: any pattern
        # extending the cube is a counter-example.
        pattern = patch_pattern([0] * cof.num_pis, cof, cube)
        return {"status": "sat", "cex": pattern, "conflicts": 0}
    solver = SatSolver()
    cnf = CnfBuilder(cof, solver)
    solver.add_clause([cnf.literal(po) for po in live_pos])
    status = solver.solve(
        conflict_limit=conflict_limit, deadline=deadline
    )
    if status is SolveStatus.SAT:
        pattern = patch_pattern(cnf.pi_pattern_from_model(), cof, cube)
        return {
            "status": "sat", "cex": pattern, "conflicts": solver.conflicts
        }
    if status is SolveStatus.UNSAT:
        return {"status": "unsat", "conflicts": solver.conflicts}
    return {"status": "unknown", "conflicts": solver.conflicts}


@dataclass
class CubeOutcome:
    """Aggregate verdict of one cube race.

    ``status`` is ``"equivalent"`` (the query is UNSAT — no difference
    exists), ``"nonequivalent"`` (a model was found, ``cex`` holds the
    patched pattern) or ``"unknown"`` (budgets ran out first).
    """

    status: str
    cex: Optional[List[int]] = None
    stats: Dict = field(default_factory=dict)

    @property
    def conclusive(self) -> bool:
        return self.status in ("equivalent", "nonequivalent")


class CubeRunner:
    """A warm pool of cube workers racing cofactor jobs to first winner.

    The runner keeps its :class:`ExecRuntime` and loop-mode workers
    alive across :meth:`solve` calls (consecutive POs of one miter
    reuse the warm pool); :meth:`close` tears everything down
    leak-free.  Usable as a context manager.

    Workers start with ``forkserver`` where the platform has it and
    ``spawn`` otherwise, never by forking the caller: a race is often
    started from a process with live threads (a test runner, the bench
    harness), and a forked child can inherit a lock one of those threads
    held and block on it forever.  ``REPRO_MP_START_METHOD`` still wins.
    """

    def __init__(
        self,
        num_workers: int = 3,
        trace: bool = False,
        terminate_grace: float = 1.0,
    ) -> None:
        self.num_workers = max(1, num_workers)
        self._start_method: Optional[str] = None
        if not os.environ.get(START_METHOD_ENV):
            self._start_method = (
                "forkserver"
                if "forkserver" in mp.get_all_start_methods()
                else "spawn"
            )
        self._trace = trace
        self._terminate_grace = terminate_grace
        self._runtime: Optional[ExecRuntime] = None
        self._workers: List[WorkerHandle] = []
        self._next_job_id = 0
        self.races = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "CubeRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_workers(self) -> ExecRuntime:
        """Open the runtime on first use; revive workers killed as
        losers of an earlier race."""
        if self._runtime is None:
            self._runtime = ExecRuntime(
                start_method=self._start_method,
                trace=self._trace,
                terminate_grace=self._terminate_grace,
            ).open()
            self._workers = [
                WorkerHandle(index=i, name=f"cube-w{i}")
                for i in range(self.num_workers)
            ]
            for worker in self._workers:
                self._runtime.spawn(
                    worker,
                    run_cube_job,
                    mode="loop",
                    trace_name=f"worker:cube{worker.index}",
                )
        else:
            for worker in self._workers:
                if not worker.alive:
                    self._runtime.respawn(
                        worker,
                        run_cube_job,
                        trace_name=f"worker:cube{worker.index}",
                    )
        return self._runtime

    def close(self) -> None:
        """Stop every worker (sentinel first, staged kill after) and
        tear the runtime down (idempotent)."""
        runtime = self._runtime
        if runtime is None:
            return
        for worker in self._workers:
            if worker.inbox is not None:
                try:
                    worker.inbox.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + max(0.5, self._terminate_grace)
        while time.monotonic() < deadline and any(
            w.alive for w in self._workers
        ):
            runtime.poll(0.05)
        for worker in self._workers:
            runtime.stop(worker)
            if worker.inbox is not None:
                worker.inbox.close()
                worker.inbox.cancel_join_thread()
                worker.inbox = None
        runtime.close()
        self._runtime = None
        self._workers = []

    # ------------------------------------------------------------------
    # The race
    # ------------------------------------------------------------------

    def solve(
        self,
        aig: Aig,
        cubes: Sequence[Cube],
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
        include_monolith: bool = True,
        cube_delay: float = 0.0,
    ) -> CubeOutcome:
        """Race the cubes (plus the monolith) on the warm pool.

        ``deadline`` is absolute ``time.perf_counter()`` seconds, the
        convention of every solver budget in the repo.  ``cube_delay``
        parks each *cube* job before it solves — the deterministic slow
        loser the staged-kill tests rely on; production callers leave
        it 0.
        """
        runtime = self._ensure_workers()
        tracer = get_tracer()
        metrics = tracer.metrics
        cubes = [c for c in cubes if not c.is_monolith]
        metrics.counter_add("cubes.split", len(cubes))
        metrics.counter_add("cubes.races")
        metrics.counter_add("cubes.cancelled", 0)
        self.races += 1
        deadline_epoch = (
            time.time() + (deadline - time.perf_counter())
            if deadline is not None
            else None
        )
        base: Dict = {"aig": aig}
        if conflict_limit is not None:
            base["conflict_limit"] = conflict_limit
        if deadline_epoch is not None:
            base["deadline_epoch"] = deadline_epoch

        jobs: Dict[int, Dict] = {}

        def _queue(label: str, payload: Dict) -> None:
            # Ids never repeat across this runner's races, so a result a
            # stopped loser posted before its kill cannot settle a job
            # of a later race.
            job_id = self._next_job_id
            self._next_job_id += 1
            payload["job"] = job_id
            jobs[job_id] = {"label": label, "payload": payload, "status": ""}

        if include_monolith or not cubes:
            _queue(MONOLITH, dict(base))
        for cube in cubes:
            payload = dict(base)
            payload["cube"] = cube.as_list()
            if cube_delay > 0.0:
                payload["delay"] = cube_delay
            _queue(str(cube), payload)

        stats: Dict = {
            "cubes": len(cubes),
            "jobs": len(jobs),
            "unsat_cubes": 0,
            "cancelled": 0,
            "killed": 0,
            "winner": None,
        }
        start = time.perf_counter()
        outcome: Optional[CubeOutcome] = None
        with tracer.span(
            "cubes.race", category="cubes",
            cubes=len(cubes), jobs=len(jobs),
        ) as span:
            try:
                outcome = self._race(runtime, jobs, stats, deadline)
            finally:
                stats["seconds"] = time.perf_counter() - start
                span.set("winner", stats["winner"] or "-")
                span.set("status", outcome.status if outcome else "unknown")
        outcome.stats = stats
        return outcome

    # ------------------------------------------------------------------

    def _race(
        self,
        runtime: ExecRuntime,
        jobs: Dict[int, Dict],
        stats: Dict,
        deadline: Optional[float],
    ) -> CubeOutcome:
        """Dispatch, absorb, settle; first conclusive sibling wins."""
        metrics = get_tracer().metrics
        num_cubes = stats["cubes"]
        monolith_queued = any(
            entry["label"] == MONOLITH for entry in jobs.values()
        )
        pending = set(jobs)
        # Job ids not yet handed to a worker, oldest first.
        backlog: Deque[int] = deque(jobs)
        winner: Optional[CubeOutcome] = None
        unknown_seen = False

        def dispatch() -> None:
            for worker in self._workers:
                if worker.assigned or not worker.alive:
                    continue
                try:
                    job_id = backlog.popleft()
                except IndexError:
                    return
                worker.assigned.append(job_id)
                try:
                    worker.inbox.put(jobs[job_id]["payload"])
                except (OSError, ValueError):
                    worker.assigned.clear()
                    backlog.appendleft(job_id)

        def drop_losers(winner_id: int) -> None:
            """Discard the queued siblings and stop the running ones."""
            stats["cancelled"] += len(backlog)
            pending.difference_update(backlog)
            backlog.clear()
            for worker in self._workers:
                head = worker.assigned[0] if worker.assigned else None
                if head is None or head == winner_id or head not in pending:
                    continue
                runtime.stop(worker)
                worker.assigned.clear()
                pending.discard(head)
                stats["cancelled"] += 1
                stats["killed"] += 1
            metrics.counter_add("cubes.cancelled", stats["cancelled"])

        dispatch()
        while pending:
            if deadline is not None and time.perf_counter() > deadline:
                for worker in self._workers:
                    if worker.assigned:
                        runtime.stop(worker, REASON_TIMEOUT)
                        worker.assigned.clear()
                stats["winner"] = None
                stats["timeout"] = True
                return CubeOutcome("unknown")
            message = runtime.poll(0.05)
            if message is None:
                # A worker that died mid-job (loser kill races with a
                # crash) would stall the race; treat its job as unknown.
                for worker in self._workers:
                    if worker.assigned and not worker.alive:
                        job_id = worker.assigned[0]
                        worker.assigned.clear()
                        if job_id in pending:
                            pending.discard(job_id)
                            unknown_seen = True
                dispatch()
                continue
            if message.get("kind") == "bye":
                runtime.merge_trace(message)
                continue
            job_id = message.get("job")
            index = message.get("index")
            for worker in self._workers:
                if worker.index == index and worker.assigned:
                    if worker.assigned[0] == job_id:
                        worker.assigned.clear()
                        worker.jobs_done += 1
            if job_id not in pending:
                dispatch()
                continue
            pending.discard(job_id)
            entry = jobs[job_id]
            status = message.get("status")
            entry["status"] = status
            if status == "sat":
                stats["winner"] = entry["label"]
                winner = CubeOutcome("nonequivalent", cex=message.get("cex"))
                drop_losers(job_id)
                break
            if status == "unsat":
                if entry["label"] == MONOLITH:
                    stats["winner"] = MONOLITH
                    winner = CubeOutcome("equivalent")
                    drop_losers(job_id)
                    break
                stats["unsat_cubes"] += 1
                if stats["unsat_cubes"] == num_cubes and num_cubes > 0:
                    stats["winner"] = "all-cubes"
                    winner = CubeOutcome("equivalent")
                    drop_losers(job_id)
                    break
            else:
                # unknown / error: this sibling is dry, the race goes on.
                unknown_seen = True
                if entry["label"] == MONOLITH:
                    monolith_queued = False
            dispatch()
        if winner is not None:
            return winner
        if not unknown_seen and num_cubes == 0 and not monolith_queued:
            return CubeOutcome("unknown")
        if stats["unsat_cubes"] == num_cubes and num_cubes > 0:
            stats["winner"] = "all-cubes"
            return CubeOutcome("equivalent")
        return CubeOutcome("unknown")
