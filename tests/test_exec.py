"""Tests for the generic job runtime (``repro.exec``).

Covers the pieces the pools build their policies on: the stop reason
:meth:`ExecRuntime.stop` records on a worker handle and the
queue-teardown spill files of the transport — plus the regression test
for the kill-reason strings the parallel portfolio surfaces on its run
records.
"""

import os
import pickle

import pytest

from repro.bench.generators import voter
from repro.exec import (
    REASON_CANCELLED,
    REASON_TIMEOUT,
    ExecRuntime,
    WorkerHandle,
)
from repro.exec.transport import post_message
from repro.portfolio.parallel import ParallelPortfolioChecker
from repro.sweep.engine import CecStatus
from repro.synth.resyn import compress2


# ----------------------------------------------------------------------
# Stop reasons
# ----------------------------------------------------------------------


def test_stop_reason_first_stop_wins():
    runtime = ExecRuntime()
    handle = WorkerHandle(index=0, name="w0")
    assert handle.stop_reason == ""
    assert runtime.stop(handle, REASON_TIMEOUT) == REASON_TIMEOUT
    # A later winner-cancellation sweep must not overwrite the original
    # timeout: the record should still say why the worker really died.
    assert runtime.stop(handle, REASON_CANCELLED) == REASON_TIMEOUT
    assert handle.stop_reason == REASON_TIMEOUT
    # A fresh process on the handle has not been stopped yet.
    runtime.spawn(handle, print, payload={}, start=False)
    assert handle.stop_reason == ""
    with pytest.raises(ValueError):
        runtime.stop(WorkerHandle(index=1), "deadline exceeded")


# ----------------------------------------------------------------------
# Kill reasons surfaced on portfolio run records (regression)
# ----------------------------------------------------------------------


def test_parallel_losers_report_canonical_cancelled():
    """Engines outrun by the winner read exactly "cancelled".

    Regression: the old pool spelled the loser status differently on
    different paths ("terminated", "killed", "cancelled"), so report
    consumers had to pattern-match.  The runtime's stop records one of
    two canonical reasons, and both the record status and any attached
    ``EngineFailure.reason`` must use them.
    """
    original = voter(13)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[("combined", {}), ("sleep", {"seconds": 60.0})],
        time_limit=120.0,
        finisher=None,
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    report = result.report
    assert report.record("sleep").status == REASON_CANCELLED
    for record in report.engines:
        assert record.status in (
            "equivalent", REASON_CANCELLED, REASON_TIMEOUT
        )
        if record.failure is not None:
            assert record.failure.reason in (
                "", REASON_CANCELLED, REASON_TIMEOUT
            )


def test_parallel_budget_kill_reports_canonical_timeout():
    """A per-engine budget kill reads exactly "timeout", even though the
    orchestrator's internal stop path phrases the reason differently."""
    original = voter(13)
    optimized = compress2(original)
    # The only other engine cannot conclude (zero SAT time budget), so
    # the sleep engine is stopped by its own 0.3 s budget, never by a
    # winner-cancellation sweep.
    checker = ParallelPortfolioChecker(
        engines=[("sleep", {}, 0.3), ("sat", {"time_limit": 0.0})],
        time_limit=60.0,
        finisher=None,
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.UNDECIDED
    record = result.report.record("sleep")
    assert record.status == REASON_TIMEOUT
    if record.failure is not None:
        assert record.failure.reason == REASON_TIMEOUT


# ----------------------------------------------------------------------
# IPC spill path
# ----------------------------------------------------------------------


class _TornDownQueue:
    def put(self, message):
        raise ValueError("queue is closed")


def test_post_message_spills_when_queue_is_gone(tmp_path):
    spill = str(tmp_path / "worker0.msg")
    message = {"index": 0, "status": "undecided", "seconds": 1.0}
    post_message(_TornDownQueue(), message, spill)
    with open(spill, "rb") as handle:
        assert pickle.load(handle) == message
    assert not os.path.exists(spill + ".tmp")


def test_post_message_without_spill_path_drops_quietly():
    post_message(_TornDownQueue(), {"index": 0}, None)


def test_collect_spilled_messages():
    """A message a worker spilled to disk reaches its record through the
    runtime's late drain, as at the end of a portfolio run."""
    from repro.portfolio.parallel import _WorkerState
    from repro.sweep.report import EngineRunRecord

    checker = ParallelPortfolioChecker(engines=[("sim", {})])
    record = EngineRunRecord(name="sim", status="running")
    worker = _WorkerState(
        index=0, name="sim", process=None, record=record, budget=None
    )
    workers = [worker]
    runtime = ExecRuntime(spill=True).open()
    try:
        spill_dir = runtime.spill_dir
        message = {"index": 0, "status": "undecided", "seconds": 0.5}
        with open(os.path.join(spill_dir, "worker0.msg"), "wb") as handle:
            pickle.dump(message, handle)
        with open(os.path.join(spill_dir, "junk.txt"), "w") as handle:
            handle.write("not a message")
        runtime.drain_late(
            lambda message: checker._record_message(
                workers[message["index"]], message
            ),
            max_wait=0.1,
        )
    finally:
        runtime.close()
    assert record.status == "undecided"
    assert record.seconds == 0.5
