"""The persistent warm worker pool behind the serve daemon.

One-shot portfolio runs pay fork/spawn, module import and cache load on
*every* query.  The pool amortises all three: worker processes are
spawned once (loop mode of :func:`repro.exec.worker.exec_worker_main`)
and stay resident, keeping per-tenant knowledge caches hot across
queries.  Miters travel to workers pickled on their inbox queues, and
verdict deltas travel back on the result queue for the parent to merge
into the tenant caches and persist — exactly the parent-merges
ownership model of the parallel portfolio.

Process lifecycle, flight rings and queue plumbing live in
:mod:`repro.exec`; this module is the serving *policy*.  Jobs wait in
one parent-side FIFO backlog and commit to a worker's inbox only when
it goes idle: the first idle worker, in index order, takes the oldest
job, and a queued job whose deadline expires settles without a kill.  A
worker that crashes or blows its per-job deadline is stopped with the
staged SIGTERM → SIGKILL machinery and respawned; the respawn starts
*warm* because it reloads the merged tenant caches from disk.  The
in-flight job is reported as an error — the daemon never hangs on a
wedged engine.

:class:`WorkerPool` is deliberately synchronous (blocking queue I/O,
explicit :meth:`poll`); the asyncio front end in
:mod:`repro.serve.server` drives it from an executor thread.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.aig.network import Aig
from repro.cache.config import CacheConfig
from repro.cache.knowledge import SweepCache
from repro.exec import (
    REASON_CANCELLED,
    REASON_TIMEOUT,
    ExecRuntime,
    WorkerHandle,
)
from repro.obs import MetricsRegistry, ResourceSampler, get_tracer
from repro.portfolio.parallel import build_checker
from repro.serve.tenants import DEFAULT_TENANT, TenantManager

__all__ = ["ServeJob", "ServeResult", "WorkerPool"]


@dataclass
class ServeJob:
    """One miter to check, with its tenancy and engine choice."""

    miter: Aig
    tenant: str = DEFAULT_TENANT
    engine: str = "combined"
    engine_kwargs: Dict = field(default_factory=dict)
    #: Per-job wall-clock deadline in seconds (None → pool default).
    deadline: Optional[float] = None
    name: str = ""


@dataclass
class ServeResult:
    """Outcome of one served job."""

    job_id: int
    name: str
    tenant: str
    status: str
    cex: Optional[List[int]] = None
    #: Worker-side check seconds (engine time only).
    seconds: float = 0.0
    #: Parent-stamped submit→result seconds (queueing included) — the
    #: number the bench harness turns into latency percentiles.
    latency: float = 0.0
    worker: int = -1
    error: str = ""
    cache_hits: int = 0
    cache_lookups: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("equivalent", "nonequivalent", "undecided")

    def as_dict(self) -> Dict[str, object]:
        return {
            "job": self.job_id,
            "name": self.name,
            "tenant": self.tenant,
            "status": self.status,
            "cex": self.cex,
            "seconds": round(self.seconds, 6),
            "latency": round(self.latency, 6),
            "worker": self.worker,
            "error": self.error,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
        }


# ----------------------------------------------------------------------
# Worker-side policy (runs inside repro.exec loop workers)
# ----------------------------------------------------------------------


def _load_worker_cache(
    caches: Dict[str, SweepCache], directory: Optional[str]
) -> Optional[SweepCache]:
    """The worker-resident readonly cache for one tenant (lazy-loaded)."""
    if directory is None:
        return None
    cached = caches.get(directory)
    if cached is None:
        cached = SweepCache(CacheConfig(directory=directory, readonly=True))
        caches[directory] = cached
    return cached


def run_serve_job(message: Dict, ctx) -> Dict:
    """Loop-mode job handler: check, report, stay warm.

    Runs inside an :func:`repro.exec.worker.exec_worker_main` loop
    worker.  Resident state (the per-tenant caches) lives in
    ``ctx.resident`` and survives across jobs — that is what makes a
    warm worker warm.  Nothing else carries over: each job builds its
    own checker, so the tenant's cache is the only thing an earlier job
    can change about a later one's work.  Per-job failures raise; the
    worker main reports and survives them: one malformed miter must not
    cost the pool a warm worker.
    """
    resident = ctx.resident
    caches: Dict[str, SweepCache] = resident.setdefault("caches", {})
    miter = message["miter"]
    spec = tuple(message["spec"])
    cache = _load_worker_cache(caches, message.get("cache"))
    snapshot = cache.snapshot() if cache is not None else None
    checker = build_checker(spec, cache=cache)
    with get_tracer().span(
        "serve.job",
        category="serve",
        job=message.get("job"),
        engine=spec[0],
    ):
        result = checker.check_miter(miter)
    reply: Dict[str, object] = {
        "status": result.status.value,
        "cex": result.cex,
    }
    if cache is not None:
        delta = cache.counters.diff(snapshot)
        reply["hits"] = delta.hits
        reply["lookups"] = delta.lookups
        reply["cache_delta"] = list(cache.store.pending)
        # The delta now belongs to the parent; keep only the
        # in-memory entries (they are what makes us warm).
        cache.store.clear_pending()
    return reply


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


@dataclass
class _Inflight:
    """One submitted-but-unresolved job."""

    job: ServeJob
    #: Worker index once dispatched (-1 while queued).
    worker: int
    submitted: float
    deadline_at: Optional[float]


class WorkerPool:
    """A fixed-size pool of persistent warm CEC workers.

    Parameters
    ----------
    workers:
        Number of worker processes.
    tenants:
        The daemon's :class:`~repro.serve.tenants.TenantManager`; a
        persistence-less manager is built when omitted.
    job_deadline:
        Default per-job wall-clock deadline in seconds (None → no
        deadline).  A worker past it is reaped and respawned warm.
    terminate_grace:
        SIGTERM → SIGKILL escalation grace, as in the portfolio.
    start_method / trace:
        As for :class:`~repro.portfolio.parallel.ParallelPortfolioChecker`.
    slo:
        Optional :class:`~repro.serve.telemetry.SloRegistry`; when set,
        every completion/failure/deadline-kill/respawn is scored against
        the configured per-tenant objectives.
    postmortem_dir:
        Directory for flight-recorder postmortem JSON artifacts, written
        whenever a worker is staged-killed for a crash or deadline.
        ``None`` disables the dumps (the in-memory rings still run).
    """

    _POLL_INTERVAL = 0.05
    #: Seconds between resource-sampler ticks (worker RSS/CPU histograms).
    _SAMPLE_INTERVAL = 0.5
    #: How many recent postmortem paths `stats()` reports.
    _POSTMORTEM_STATS = 8

    def __init__(
        self,
        workers: int = 2,
        tenants: Optional[TenantManager] = None,
        job_deadline: Optional[float] = None,
        terminate_grace: float = 1.0,
        start_method: Optional[str] = None,
        trace: bool = False,
        slo: Optional[Any] = None,
        postmortem_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.num_workers = workers
        self.tenants = tenants if tenants is not None else TenantManager(None)
        self.job_deadline = job_deadline
        self.terminate_grace = terminate_grace
        self.start_method = start_method
        self.trace = trace
        # With tracing on, pool counters land in the ambient tracer's
        # registry (one merged timeline+metrics dump).  Without it the
        # ambient registry is the no-op NULL_METRICS — the pool then
        # keeps its own, so the telemetry plane works untraced.
        tracer = get_tracer()
        self.metrics: MetricsRegistry = (
            tracer.metrics if tracer.enabled else MetricsRegistry()
        )
        self.slo = slo
        self.postmortem_dir = postmortem_dir
        self._runtime: Optional[ExecRuntime] = None
        #: ``(job id, payload)`` waiting for an idle worker, oldest
        #: first.  ``submit`` appends on the server's event loop while
        #: ``poll`` dispatches on its pump thread, so it is only ever
        #: appended to and popped from (both atomic), never checked and
        #: then popped.
        self._backlog: Deque[Tuple[int, Dict]] = deque()
        self._workers: List[WorkerHandle] = []
        self._inflight: Dict[int, _Inflight] = {}
        self._results: Dict[int, ServeResult] = {}
        self._next_job_id = 0
        self._sampler: Optional[ResourceSampler] = None
        #: Paths of postmortem artifacts written this run.
        self.postmortems: List[str] = []
        self.started = False
        #: Set while ``shutdown`` runs: workers exiting on the bye
        #: sentinel are orderly, not crashes to respawn and postmortem.
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self._runtime = ExecRuntime(
            start_method=self.start_method,
            trace=self.trace,
            terminate_grace=self.terminate_grace,
            flight=True,
        ).open()
        for index in range(self.num_workers):
            handle = WorkerHandle(index=index, name=f"serve-w{index}")
            self._runtime.spawn(
                handle,
                run_serve_job,
                mode="loop",
                trace_name=f"worker:serve{index}",
            )
            self._workers.append(handle)
        self._sampler = ResourceSampler(
            self._worker_pids,
            self.metrics,
            prefix="serve.worker",
            interval=self._SAMPLE_INTERVAL,
        )
        self._sampler.start()
        self._draining = False
        self.started = True

    def _worker_pids(self) -> List[Optional[int]]:
        return [w.pid for w in self._workers]

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool: optionally drain, then stop every worker.

        With ``drain`` the pool first waits (up to ``timeout``) for
        in-flight jobs; workers then get the sentinel and a join grace
        before the staged SIGTERM → SIGKILL path runs.
        """
        if not self.started:
            return
        self._draining = True
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        deadline = time.monotonic() + timeout
        if drain:
            while self._inflight and time.monotonic() < deadline:
                self.poll(self._POLL_INTERVAL)
        for worker in self._workers:
            try:
                worker.inbox.put(None)
            except BaseException:
                pass
        join_grace = max(0.5, min(5.0, deadline - time.monotonic()))
        for worker in self._workers:
            worker.process.join(join_grace)
        # Collect the byes (worker trace payloads ride on them).
        self.poll(0.2)
        for worker in self._workers:
            self._runtime.stop(worker)
            worker.inbox.close()
            worker.inbox.cancel_join_thread()
        self._runtime.close()
        self._runtime = None
        self.tenants.flush()
        self._workers.clear()
        self.started = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: ServeJob) -> int:
        """Queue one job; returns its id.

        The job is dispatched at once when a worker is idle; otherwise
        it waits in the backlog for the next worker to go idle.
        """
        if not self.started:
            self.start()
        job_id = self._next_job_id
        self._next_job_id += 1
        payload: Dict[str, object] = {
            "job": job_id,
            "miter": job.miter,
            "spec": (job.engine, dict(job.engine_kwargs)),
            "cache": self.tenants.worker_config(job.tenant),
            "meta": {"tenant": job.tenant, "engine": job.engine},
        }
        deadline = job.deadline if job.deadline is not None else self.job_deadline
        self._inflight[job_id] = _Inflight(
            job=job,
            worker=-1,
            submitted=time.monotonic(),
            deadline_at=(
                time.monotonic() + deadline if deadline is not None else None
            ),
        )
        self._backlog.append((job_id, payload))
        self.metrics.counter_add("serve.jobs_submitted")
        self._dispatch()
        return job_id

    def _dispatch(self) -> None:
        """Hand the oldest queued jobs to idle workers, in index order."""
        for worker in self._workers:
            self._dispatch_worker(worker)

    def _dispatch_worker(self, worker: WorkerHandle) -> None:
        if worker.assigned or not worker.alive or worker.inbox is None:
            return
        while True:
            try:
                job_id, payload = self._backlog.popleft()
            except IndexError:
                return
            entry = self._inflight.get(job_id)
            if entry is None:
                continue  # settled while queued (its deadline expired)
            entry.worker = worker.index
            worker.assigned.append(job_id)
            self._runtime.flight_ring(worker.index).record(
                "job",
                "dispatched",
                job=job_id,
                tenant=entry.job.tenant,
                engine=entry.job.engine,
                name=entry.job.name or None,
            )
            try:
                worker.inbox.put(payload)
            except BaseException:
                pass  # dying worker: the dead-worker reap settles it
            return

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def poll(self, timeout: float = 0.1) -> List[ServeResult]:
        """Advance the pool: absorb results, enforce deadlines, respawn.

        Returns the results that completed during this call.  Safe to
        call from exactly one thread (the server's executor pump).
        """
        completed: List[ServeResult] = []
        if not self.started:
            return completed
        deadline = time.monotonic() + max(timeout, 0.0)
        first = True
        while True:
            wait = deadline - time.monotonic() if first else 0.0
            message = self._runtime.poll(wait)
            if message is None:
                break
            first = False
            result = self._absorb_message(message)
            if result is not None:
                completed.append(result)
        completed.extend(self._enforce_deadlines())
        completed.extend(self._reap_dead_workers())
        self._dispatch()
        return completed

    def _absorb_message(self, message: Dict) -> Optional[ServeResult]:
        kind = message.get("kind")
        self._runtime.fold_flight(message)
        if kind == "bye":
            self._runtime.merge_trace(message)
            return None
        if kind != "result":
            return None
        job_id = message.get("job")
        entry = self._inflight.pop(job_id, None)
        if entry is None:
            return None  # job already settled (deadline kill raced it)
        worker = self._workers[entry.worker]
        if job_id in worker.assigned:
            worker.assigned.remove(job_id)
        worker.jobs_done += 1
        delta = message.get("cache_delta")
        if delta:
            self.tenants.merge_delta(entry.job.tenant, delta)
        result = ServeResult(
            job_id=job_id,
            name=entry.job.name,
            tenant=entry.job.tenant,
            status=str(message.get("status", "error")),
            cex=message.get("cex"),
            seconds=float(message.get("seconds", 0.0)),
            latency=time.monotonic() - entry.submitted,
            worker=entry.worker,
            error=str(message.get("error", "")),
            cache_hits=int(message.get("hits", 0)),
            cache_lookups=int(message.get("lookups", 0)),
        )
        self.metrics.counter_add("serve.jobs_completed")
        self.metrics.counter_add("cache.hits", result.cache_hits)
        self.metrics.counter_add("cache.lookups", result.cache_lookups)
        self.metrics.observe("serve.job.latency_seconds", result.latency)
        if self.slo is not None:
            self.slo.record_job(
                result.tenant, result.latency, failed=not result.ok
            )
        self._results[job_id] = result
        self._dispatch_worker(worker)
        return result

    def _settle_error(
        self,
        job_id: int,
        entry: _Inflight,
        reason: str,
        worker_index: int,
        deadline_miss: bool = False,
    ) -> ServeResult:
        """Resolve one job as an error result (kill, crash, expiry)."""
        result = ServeResult(
            job_id=job_id,
            name=entry.job.name,
            tenant=entry.job.tenant,
            status="error",
            latency=time.monotonic() - entry.submitted,
            worker=worker_index,
            error=reason,
        )
        if self.slo is not None:
            if deadline_miss:
                self.slo.record_deadline_miss(result.tenant)
            else:
                self.slo.record_job(
                    result.tenant, result.latency, failed=True
                )
        self._results[job_id] = result
        return result

    def _fail_worker_jobs(
        self, worker: WorkerHandle, reason: str, deadline_job: int = -1
    ) -> List[ServeResult]:
        """Settle every job dispatched to a dead worker as an error.

        ``deadline_job`` marks the job whose deadline triggered the kill
        — its tenant is charged a deadline miss in the SLO ledger; the
        rest of the dispatched jobs are collateral hard failures.
        """
        failed: List[ServeResult] = []
        for job_id in list(worker.assigned):
            entry = self._inflight.pop(job_id, None)
            if entry is None:
                continue
            failed.append(
                self._settle_error(
                    job_id,
                    entry,
                    reason,
                    worker.index,
                    deadline_miss=(job_id == deadline_job),
                )
            )
        worker.assigned.clear()
        return failed

    def _write_postmortem(
        self,
        worker: WorkerHandle,
        reason: str,
        failed: List[ServeResult],
    ) -> Optional[str]:
        """Dump the worker's flight ring as a postmortem JSON artifact."""
        ring = self._runtime.flight_ring(worker.index)
        ring.record(
            "kill",
            reason,
            worker=worker.index,
            pid=worker.pid,
            exitcode=worker.process.exitcode,
            failed_jobs=[r.job_id for r in failed],
        )
        if self.postmortem_dir is None:
            return None
        try:
            os.makedirs(self.postmortem_dir, exist_ok=True)
            payload = {
                "worker": worker.index,
                "pid": worker.pid,
                "reason": reason,
                "exitcode": worker.process.exitcode,
                "respawns": worker.respawns,
                "ts": round(time.time(), 6),
                "failed_jobs": [r.as_dict() for r in failed],
                "events": ring.to_json(),
            }
            name = (
                f"postmortem_w{worker.index}_"
                f"{int(time.time() * 1000)}_{len(self.postmortems)}.json"
            )
            path = os.path.join(self.postmortem_dir, name)
            fd, tmp = tempfile.mkstemp(
                dir=self.postmortem_dir, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=1, sort_keys=True)
                os.replace(tmp, path)  # atomic: readers never see a torso
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.postmortems.append(path)
            self.metrics.counter_add("serve.postmortems_written")
            return path
        except Exception:
            # Telemetry failure must never stop the respawn.
            return None

    def _respawn(
        self,
        worker: WorkerHandle,
        reason: str = "crash",
        failed: Optional[List[ServeResult]] = None,
    ) -> None:
        """Replace a dead worker in place (same index, fresh process)."""
        self._write_postmortem(worker, reason, failed or [])
        self._runtime.stop(
            worker,
            REASON_TIMEOUT if reason == "deadline" else REASON_CANCELLED,
        )
        # Persist merged knowledge first so the replacement loads it and
        # comes up warm, not cold.  (The runtime respawn gives it a
        # fresh inbox, process and flight ring — the old ring is in the
        # postmortem, or gone with nothing to tell.)
        self.tenants.flush()
        self._runtime.respawn(
            worker,
            run_serve_job,
            trace_name=f"worker:serve{worker.index}",
        )
        self.metrics.counter_add("serve.workers_respawned")
        if self.slo is not None:
            self.slo.record_respawn()
        self._dispatch_worker(worker)

    def _enforce_deadlines(self) -> List[ServeResult]:
        now = time.monotonic()
        completed: List[ServeResult] = []
        for worker in list(self._workers):
            if not worker.assigned:
                continue
            head = worker.assigned[0]
            entry = self._inflight.get(head)
            if (
                entry is None
                or entry.deadline_at is None
                or now < entry.deadline_at
            ):
                continue
            self.metrics.counter_add("serve.deadline_kills")
            failed = self._fail_worker_jobs(
                worker, "job deadline exceeded", deadline_job=head
            )
            completed.extend(failed)
            self._respawn(worker, reason="deadline", failed=failed)
        # Jobs whose deadline expired while still queued settle without
        # a kill: no worker has them, and dispatch skips settled ids.
        for job_id, entry in list(self._inflight.items()):
            if (
                entry.worker >= 0
                or entry.deadline_at is None
                or now < entry.deadline_at
            ):
                continue
            del self._inflight[job_id]
            completed.append(
                self._settle_error(
                    job_id,
                    entry,
                    "job deadline exceeded",
                    -1,
                    deadline_miss=True,
                )
            )
        return completed

    def _reap_dead_workers(self) -> List[ServeResult]:
        completed: List[ServeResult] = []
        for worker in list(self._workers):
            if worker.alive:
                continue
            failed: List[ServeResult] = []
            if worker.assigned:
                failed = self._fail_worker_jobs(
                    worker,
                    "worker died "
                    f"(exit code {worker.process.exitcode})",
                )
                completed.extend(failed)
            if self._draining:
                # Workers exit on the bye sentinel during shutdown;
                # that is orderly, not a crash to postmortem and
                # respawn (a replacement would outlive the pool).
                continue
            self._respawn(worker, reason="crash", failed=failed)
        return completed

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run_batch(
        self, jobs: List[ServeJob], timeout: Optional[float] = None
    ) -> List[ServeResult]:
        """Submit a batch and wait for every result (submission order)."""
        ids = [self.submit(job) for job in jobs]
        wanted = set(ids)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while wanted - set(self._results):
            if deadline is not None and time.monotonic() >= deadline:
                break
            self.poll(self._POLL_INTERVAL)
        self.tenants.flush()
        results = []
        for job_id in ids:
            result = self._results.pop(job_id, None)
            if result is None:
                result = ServeResult(
                    job_id=job_id,
                    name="",
                    tenant="",
                    status="error",
                    error="batch timeout",
                )
            results.append(result)
        return results

    def take_result(self, job_id: int) -> Optional[ServeResult]:
        """Pop a completed result by id (server-side future resolution)."""
        return self._results.pop(job_id, None)

    def stats(self) -> Dict[str, object]:
        sampled_rss = self._sampler.last_rss if self._sampler else {}
        runtime = self._runtime
        return {
            "workers": self.num_workers,
            "inflight": len(self._inflight),
            "queued": len(self._backlog),
            "jobs_done": sum(w.jobs_done for w in self._workers),
            "respawns": sum(w.respawns for w in self._workers),
            "jobs_submitted": int(
                self.metrics.counter_value("serve.jobs_submitted")
            ),
            "jobs_completed": int(
                self.metrics.counter_value("serve.jobs_completed")
            ),
            "deadline_kills": int(
                self.metrics.counter_value("serve.deadline_kills")
            ),
            "postmortems": self.postmortems[-self._POSTMORTEM_STATS:],
            "per_worker": [
                {
                    "index": w.index,
                    "pid": w.pid,
                    "alive": w.alive,
                    "assigned": len(w.assigned),
                    "jobs_done": w.jobs_done,
                    "respawns": w.respawns,
                    "rss_bytes": sampled_rss.get(w.pid),
                    "flight_events": (
                        len(runtime.flight_ring(w.index))
                        if runtime is not None
                        else 0
                    ),
                }
                for w in self._workers
            ],
        }
