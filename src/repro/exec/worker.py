"""The generic child-process entrypoint for every pool.

:func:`exec_worker_main` is the one ``Process(target=...)`` the runtime
spawns, in two modes:

- ``"oneshot"`` — run a single job handler and exit (the racing
  portfolio engine).  A SIGTERM from the parent's staged termination is
  converted into :class:`WorkerTerminated` (traced runs only), so even a
  cancelled loser posts its partial span timeline during the
  terminate-grace window.  SIGTERM is held from the child's first line
  until the job's ``worker.job`` span is open, so a loser cancelled
  while still setting up ships that span too.  Every exit path posts
  exactly one message.
- ``"loop"`` — stay resident, pulling jobs off an inbox queue until the
  ``None`` sentinel (warm serve and cube workers).  Per-job failures are
  reported and survived; a flight recorder ships job milestones
  incrementally on every result so the parent's ring stays current even
  if the process is SIGKILLed next.

The *policy* lives in the handler the parent passes in: a callable
``handler(payload, ctx) -> message`` that runs the domain work on its
payload and returns the reply dict, which reaches the parent pickled on
the result queue.  The handler must be a module-level function so it
pickles under the ``spawn`` start method.
"""

from __future__ import annotations

import signal
import time
import traceback
from typing import Callable, Dict, Optional

from repro.obs import (
    FlightRecorder,
    FlightRecorderHandler,
    Tracer,
    get_logger,
    get_tracer,
    set_tracer,
)

from repro.exec.transport import post_message

#: Events kept in a loop worker's own flight ring (shipped to the
#: parent's ring on every result).
WORKER_FLIGHT_CAPACITY = 128


class WorkerTerminated(BaseException):
    """Raised inside a worker when the parent's SIGTERM lands.

    Derives from ``BaseException`` so engine code cannot swallow it with
    a broad ``except Exception``.
    """


def _raise_worker_terminated(signum, frame) -> None:
    raise WorkerTerminated()


def _hold_sigterm(hold: bool) -> None:
    """Block (or release) SIGTERM in this thread; a SIGTERM that lands
    while blocked stays pending and is delivered on release."""
    if hasattr(signal, "pthread_sigmask"):
        how = signal.SIG_BLOCK if hold else signal.SIG_UNBLOCK
        signal.pthread_sigmask(how, {signal.SIGTERM})


class WorkerContext:
    """What a job handler sees of the runtime inside the child process.

    ``resident`` is the handler's scratch dict surviving across jobs of
    a loop-mode worker — the serve policy keeps per-tenant caches in
    it, which is the whole point of a warm worker.
    """

    __slots__ = ("index", "tracer", "recorder", "resident")

    def __init__(
        self,
        index: int,
        tracer: Optional[Tracer] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.index = index
        self.tracer = tracer
        self.recorder = recorder
        self.resident: Dict = {}


def exec_worker_main(
    index: int,
    mode: str,
    handler: Callable[[Dict, WorkerContext], Dict],
    inbox,
    result_queue,
    cfg: Dict,
) -> None:
    """Child-process body shared by all pools (see module docstring).

    ``inbox`` is the job payload itself in one-shot mode and an
    ``mp.Queue`` of payloads in loop mode.  ``cfg`` keys: ``trace``
    (record a span timeline), ``trace_name`` (tracer process name,
    defaults to ``worker:{index}``), ``spill_path`` (where a one-shot result
    goes if the queue is already torn down), ``flight`` (loop mode:
    per-worker flight recorder).
    """
    tracer: Optional[Tracer] = None
    if mode == "oneshot" and cfg.get("trace"):
        _hold_sigterm(True)  # released by _run_oneshot inside its span
    if cfg.get("trace"):
        tracer = Tracer(
            process_name=cfg.get("trace_name") or f"worker:{index}"
        )
        set_tracer(tracer)
    ctx = WorkerContext(index, tracer=tracer)
    try:
        if mode == "oneshot":
            _run_oneshot(handler, inbox, result_queue, ctx, cfg)
        else:
            _run_loop(handler, inbox, result_queue, ctx, cfg)
    finally:
        try:
            # The result is out: a SIGTERM landing while the interpreter
            # flushes queue feeder threads at exit must not re-raise
            # WorkerTerminated inside the finalizers.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            _hold_sigterm(False)
        except (ValueError, OSError):
            pass


def _run_oneshot(
    handler, payload: Dict, queue, ctx: WorkerContext, cfg: Dict
) -> None:
    """Run one job and post exactly one message on every exit path."""
    start = time.perf_counter()
    spill_path = cfg.get("spill_path")
    if ctx.tracer is not None:
        try:
            signal.signal(signal.SIGTERM, _raise_worker_terminated)
        except (ValueError, OSError):
            pass  # non-main thread or unsupported platform: spans on
            # normal completion still ship, cancelled ones are lost
    try:
        with get_tracer().span("worker.job", category="worker"):
            _hold_sigterm(False)
            message = handler(payload, ctx)
    except WorkerTerminated:
        message = {"status": "terminated"}
    except BaseException as error:  # surface crashes as structured data
        message = {
            "status": "error",
            "message": repr(error),
            "traceback": traceback.format_exc(),
        }
    message["index"] = ctx.index
    message.setdefault("seconds", time.perf_counter() - start)
    if ctx.tracer is not None:
        message["trace"] = ctx.tracer.export_payload()
    post_message(queue, message, spill_path)


def _run_loop(
    handler, inbox, result_queue, ctx: WorkerContext, cfg: Dict
) -> None:
    """Serve jobs until the ``None`` sentinel; survive per-job failures."""
    recorder: Optional[FlightRecorder] = None
    flight_handler = None
    if cfg.get("flight"):
        recorder = FlightRecorder(capacity=WORKER_FLIGHT_CAPACITY)
        ctx.recorder = recorder
        flight_handler = FlightRecorderHandler(recorder)
        get_logger().addHandler(flight_handler)
    jobs_done = 0
    try:
        while True:
            message = inbox.get()
            if message is None:
                break
            job_id = message.get("job")
            started = time.perf_counter()
            if recorder is not None:
                recorder.record(
                    "job", "start", job=job_id, **(message.get("meta") or {})
                )
            try:
                reply = handler(message, ctx)
                reply["kind"] = "result"
                reply["job"] = job_id
                reply["index"] = ctx.index
                reply.setdefault(
                    "seconds", time.perf_counter() - started
                )
                if recorder is not None:
                    recorder.record(
                        "job",
                        "done",
                        job=job_id,
                        status=reply.get("status"),
                        seconds=round(reply["seconds"], 6),
                    )
                    reply["flight"] = recorder.take_new()
                result_queue.put(reply)
                jobs_done += 1
            except Exception as error:
                if recorder is not None:
                    recorder.record(
                        "job", "error", job=job_id, error=repr(error)
                    )
                reply = {
                    "kind": "result",
                    "job": job_id,
                    "index": ctx.index,
                    "status": "error",
                    "error": repr(error),
                    "seconds": time.perf_counter() - started,
                }
                if recorder is not None:
                    reply["flight"] = recorder.take_new()
                result_queue.put(reply)
    finally:
        bye = {"kind": "bye", "index": ctx.index, "jobs_done": jobs_done}
        if recorder is not None:
            bye["flight"] = recorder.take_new()
        if ctx.tracer is not None:
            bye["trace"] = ctx.tracer.export_payload()
        if flight_handler is not None:
            get_logger().removeHandler(flight_handler)
        try:
            result_queue.put(bye)
        except BaseException:
            pass
