"""The generic job runtime under every process pool (``repro.exec``).

Before this layer existed, the parallel portfolio and the serve daemon
had independently re-grown the same worker-lifecycle machinery: spawn,
staged SIGTERM → SIGKILL termination, warm respawn, trace/flight-ring
merging, late-message spill drains.  The
cube-and-conquer fan-out (ROADMAP item 3) would have forced a third
copy.  ``repro.exec`` is the one implementation all three ride on:

- :mod:`repro.exec.transport` — the pickled job/result transport:
  residues with their carried sweep state, queue-teardown spill files;
- :mod:`repro.exec.worker` — the child-process entrypoint, in one-shot
  (racing portfolio engine) and loop-forever (warm serve/cube worker)
  modes, with SIGTERM→exception conversion and flight recording;
- :mod:`repro.exec.runtime` — the parent side: spawn/stop/respawn
  (each stop records why: "timeout" or "cancelled"), bounded polling,
  trace merging and the late-message drain.

Policies (:class:`~repro.portfolio.parallel.ParallelPortfolioChecker`,
:class:`~repro.serve.pool.WorkerPool`,
:class:`~repro.cubes.runner.CubeRunner`) own *what* to run and how to
score it; this layer owns *how* processes live and die.
"""

from repro.exec.runtime import (
    REASON_CANCELLED,
    REASON_TIMEOUT,
    START_METHOD_ENV,
    ExecRuntime,
    WorkerHandle,
    resolve_start_method,
    stop_process_staged,
)
from repro.exec.transport import (
    collect_spilled_messages,
    pack_residue,
    post_message,
)
from repro.exec.worker import WorkerContext, WorkerTerminated, exec_worker_main

__all__ = [
    "ExecRuntime",
    "REASON_CANCELLED",
    "REASON_TIMEOUT",
    "START_METHOD_ENV",
    "WorkerContext",
    "WorkerHandle",
    "WorkerTerminated",
    "collect_spilled_messages",
    "exec_worker_main",
    "pack_residue",
    "post_message",
    "resolve_start_method",
    "stop_process_staged",
]
