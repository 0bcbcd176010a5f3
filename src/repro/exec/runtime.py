"""The parent side of the job runtime: spawn, stop, poll, drain.

:class:`ExecRuntime` owns everything both pools used to duplicate:

- resolution of the multiprocessing start method
  (:func:`resolve_start_method`);
- worker spawn in one-shot or loop mode, staged SIGTERM → SIGKILL
  stops (:func:`stop_process_staged`) that record why a worker was
  stopped, and warm respawn;
- the result queue with bounded polling, worker-trace re-basing,
  per-worker flight rings, and the late-message / spill-file drain;
- leak-free teardown: queue close, spill-dir removal.

Policies hold :class:`WorkerHandle` records (or subclasses carrying
their own bookkeeping) and decide *what* to spawn and *when* to stop
it; the runtime is the only code that touches processes and queues.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs import FlightRecorder, get_tracer

from repro.exec.transport import collect_spilled_messages
from repro.exec.worker import exec_worker_main

#: Environment variable overriding the multiprocessing start method
#: (used by CI to run the suite under ``spawn``).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Stop reason: a sibling produced the answer first.
REASON_CANCELLED = "cancelled"
#: Stop reason: a wall-clock budget (per-engine or global) expired.
REASON_TIMEOUT = "timeout"

#: Events kept per parent-side flight ring (a worker's own ring keeps
#: :data:`~repro.exec.worker.WORKER_FLIGHT_CAPACITY`).
FLIGHT_CAPACITY = 256


def resolve_start_method(requested: Optional[str] = None) -> str:
    """Pick the multiprocessing start method for a pool.

    Resolution order: explicit ``requested`` argument, then the
    ``REPRO_MP_START_METHOD`` environment variable, then a per-platform
    default — ``spawn`` on platforms where ``fork`` is unsafe or absent
    (macOS, Windows), the interpreter's default elsewhere.  ``fork`` is
    therefore never forced: it remains an opt-in.
    """
    if requested is not None:
        method = requested
    else:
        method = os.environ.get(START_METHOD_ENV) or ""
        if not method:
            if sys.platform in ("win32", "darwin"):
                method = "spawn"
            else:
                method = mp.get_start_method()
    if method not in mp.get_all_start_methods():
        raise ValueError(
            f"start method {method!r} is not available on this platform "
            f"(choices: {mp.get_all_start_methods()})"
        )
    return method


def stop_process_staged(
    process: "mp.process.BaseProcess", grace: float, engine: str = ""
) -> None:
    """Staged termination: SIGTERM, join grace, then SIGKILL.

    The one stop path for every orchestrator — the portfolio racer, the
    serve daemon's worker reaper and the cube fan-out all funnel through
    here, so the escalation policy (and its ``portfolio.terminate``
    span) stays uniform.
    """
    if process is None or not process.is_alive():
        return
    with get_tracer().span(
        "portfolio.terminate", category="portfolio", engine=engine
    ) as span:
        process.terminate()
        process.join(grace)
        if process.is_alive():
            span.set("escalated", "SIGKILL")
            process.kill()
            process.join(grace)


@dataclass
class WorkerHandle:
    """Parent-side bookkeeping for one worker process.

    Policies subclass this with their own fields (engine record, budget,
    assignment list, …); the runtime only reads/writes the ones below.
    """

    index: int
    name: str = ""
    process: Optional["mp.process.BaseProcess"] = None
    #: Loop-mode job inbox (``None`` for one-shot workers).
    inbox: Optional["mp.Queue"] = None
    #: Why the current process was stopped (:data:`REASON_TIMEOUT` or
    #: :data:`REASON_CANCELLED`); "" while it has not been.
    stop_reason: str = ""
    spill_path: Optional[str] = None
    mode: str = "oneshot"
    #: Monotonic spawn time.
    started: float = 0.0
    jobs_done: int = 0
    respawns: int = 0
    #: Job ids queued on this worker, oldest first (the head is the one
    #: the worker is executing) — loop-mode policies only.
    assigned: List[int] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class ExecRuntime:
    """One run's (or one daemon's) process and queue plane.

    Parameters
    ----------
    start_method:
        See :func:`resolve_start_method`.
    trace:
        Workers record their own span timelines and ship them for the
        parent tracer to re-base.
    terminate_grace:
        SIGTERM → SIGKILL escalation grace in seconds.
    spill:
        Give each one-shot worker a spill file for results that can no
        longer reach the queue (parent torn down mid-grace).
    flight:
        Run per-worker flight recorders: a ring in each worker process
        (shipped incrementally on results) plus a parent-side ring per
        worker index that folds worker events in with parent milestones.
    """

    def __init__(
        self,
        start_method: Optional[str] = None,
        trace: bool = False,
        terminate_grace: float = 1.0,
        spill: bool = False,
        flight: bool = False,
    ) -> None:
        self.context = mp.get_context(resolve_start_method(start_method))
        self.start_method = resolve_start_method(start_method)
        self.trace = trace
        self.terminate_grace = terminate_grace
        self.spill = spill
        self.flight = flight
        self.result_queue: Optional["mp.Queue"] = None
        self.spill_dir: Optional[str] = None
        self._flight: Dict[int, FlightRecorder] = {}
        self._opened = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> "ExecRuntime":
        """Open the plane: result queue and spill dir."""
        if self._opened:
            return self
        self.result_queue = self.context.Queue()
        if self.spill:
            try:
                self.spill_dir = tempfile.mkdtemp(prefix="repro-ipc-")
            except OSError:
                self.spill_dir = None
        self._opened = True
        return self

    def close(self) -> None:
        """Tear the plane down leak-free (idempotent)."""
        if self.result_queue is not None:
            self.result_queue.close()
            self.result_queue.cancel_join_thread()
            self.result_queue = None
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            self.spill_dir = None
        self._opened = False

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker_cfg(self, handle: WorkerHandle, trace_name: str) -> Dict:
        return {
            "trace": self.trace,
            "trace_name": trace_name,
            "spill_path": handle.spill_path,
            "flight": self.flight,
        }

    def spawn(
        self,
        handle: WorkerHandle,
        handler: Callable,
        payload: Optional[Dict] = None,
        mode: str = "oneshot",
        trace_name: str = "",
        start: bool = True,
    ) -> WorkerHandle:
        """Spawn a worker onto ``handle`` (one-shot job or warm loop).

        ``handler`` must be a module-level callable
        ``(payload, ctx) -> message`` (picklable under ``spawn``).  In
        one-shot mode ``payload`` is the single job; in loop mode the
        worker reads jobs from a fresh ``handle.inbox`` queue until the
        ``None`` sentinel.  Every spawn clears ``handle.stop_reason``.
        """
        handle.mode = mode
        handle.stop_reason = ""
        if self.spill_dir is not None:
            handle.spill_path = os.path.join(
                self.spill_dir, f"worker{handle.index}.msg"
            )
        if mode == "oneshot":
            inbox = payload
        else:
            handle.inbox = self.context.Queue()
            inbox = handle.inbox
        process = self.context.Process(
            target=exec_worker_main,
            args=(
                handle.index,
                mode,
                handler,
                inbox,
                self.result_queue,
                self._worker_cfg(
                    handle, trace_name or f"worker:{handle.name}"
                ),
            ),
            daemon=False,
        )
        handle.process = process
        if start:
            process.start()
            handle.started = time.monotonic()
        return handle

    def stop(self, handle: WorkerHandle, reason: str = REASON_CANCELLED) -> str:
        """Record why a worker is stopped and staged-stop its process.

        ``reason`` is :data:`REASON_TIMEOUT` or :data:`REASON_CANCELLED`.
        The first reason since the last spawn sticks: a worker killed
        for a timeout and then swept up by a winner still reads
        "timeout".  Returns the recorded reason — the string policies
        surface on run records and
        :class:`~repro.sweep.report.EngineFailure.reason`.
        """
        if reason not in (REASON_TIMEOUT, REASON_CANCELLED):
            raise ValueError(f"unknown stop reason {reason!r}")
        if not handle.stop_reason:
            handle.stop_reason = reason
        if handle.process is not None:
            stop_process_staged(
                handle.process,
                self.terminate_grace,
                engine=handle.name or f"w{handle.index}",
            )
        return handle.stop_reason

    def respawn(
        self,
        handle: WorkerHandle,
        handler: Callable,
        trace_name: str = "",
    ) -> WorkerHandle:
        """Stop a loop worker and restart it fresh on the same handle.

        The respawn starts warm at the policy layer (it reloads merged
        caches from disk); here it just gets a fresh inbox, process and
        parent-side flight ring.
        """
        self.stop(handle)
        if handle.inbox is not None:
            handle.inbox.close()
            handle.inbox.cancel_join_thread()
            handle.inbox = None
        self._flight.pop(handle.index, None)
        respawns = handle.respawns + 1
        self.spawn(handle, handler, mode="loop", trace_name=trace_name)
        handle.respawns = respawns
        return handle

    # ------------------------------------------------------------------
    # Result absorption
    # ------------------------------------------------------------------

    def poll(self, timeout: float) -> Optional[Dict]:
        """One bounded wait on the result queue (raw message or None)."""
        if self.result_queue is None:
            return None
        try:
            return self.result_queue.get(timeout=max(timeout, 0.0))
        except (queue_module.Empty, OSError, ValueError):
            return None

    def merge_trace(self, message: Dict) -> None:
        """Re-base a worker's span timeline onto the parent tracer."""
        payload = message.get("trace")
        if payload is None:
            return
        tracer = get_tracer()
        if tracer.enabled:
            tracer.merge_child(payload)

    def flight_ring(self, index: int) -> FlightRecorder:
        """The parent-side flight ring for one worker index."""
        ring = self._flight.get(index)
        if ring is None:
            ring = FlightRecorder(capacity=FLIGHT_CAPACITY)
            self._flight[index] = ring
        return ring

    def fold_flight(self, message: Dict) -> None:
        """Fold a message's shipped worker flight events into the ring."""
        events = message.get("flight")
        index = message.get("index")
        if events and index is not None:
            self.flight_ring(int(index)).extend(events)

    def drain_late(
        self, callback: Callable[[Dict], None], max_wait: float = 2.0
    ) -> None:
        """Absorb messages still in flight after all workers stopped.

        Runs on teardown, before the queue is closed: cancelled workers
        post partial traces (and cache deltas) from the SIGTERM handler
        after the main loop has stopped reading, and a late loser's
        cache delta matters even without tracing.  Messages a worker had
        to spill to disk (queue already torn down on its side) are
        collected afterwards from the spill dir.  ``callback`` receives
        each raw message and must tolerate malformed ones.
        """
        deadline = time.monotonic() + max_wait
        while time.monotonic() < deadline:
            message = self.poll(0.05)
            if message is None:
                break
            try:
                callback(message)
            except (KeyError, IndexError, TypeError):
                continue  # malformed late payload: drop it, keep draining
        for message in collect_spilled_messages(self.spill_dir):
            try:
                callback(message)
            except (KeyError, IndexError, TypeError):
                continue
