"""Tests for the generic job runtime (``repro.exec``).

Covers the pieces the pools build their policies on: reason
normalisation and cancellation tokens (``cancel``), first-winner
groups, the work-stealing :class:`~repro.exec.board.JobBoard` and the
queue-teardown spill files of the transport — plus the regression test
for the kill-reason strings the parallel portfolio surfaces on its run
records.
"""

import os
import pickle

import pytest

from repro.bench.generators import voter
from repro.exec.board import JobBoard
from repro.exec.cancel import (
    REASON_CANCELLED,
    REASON_TIMEOUT,
    CancelGroup,
    CancelToken,
    normalize_reason,
)
from repro.exec.transport import post_message
from repro.portfolio.parallel import ParallelPortfolioChecker
from repro.sweep.engine import CecStatus
from repro.synth.resyn import compress2


# ----------------------------------------------------------------------
# normalize_reason
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("timeout", REASON_TIMEOUT),
        ("timed out", REASON_TIMEOUT),
        ("timed-out", REASON_TIMEOUT),
        ("deadline exceeded", REASON_TIMEOUT),
        ("job deadline exceeded", REASON_TIMEOUT),
        ("per-engine budget", REASON_TIMEOUT),
        ("OVERTIME", REASON_TIMEOUT),
        ("cancelled", REASON_CANCELLED),
        ("canceled", REASON_CANCELLED),
        ("winner_cancelled", REASON_CANCELLED),
        ("lost the race", REASON_CANCELLED),
        ("", REASON_CANCELLED),
        (None, REASON_CANCELLED),
        ("segfault", REASON_CANCELLED),
    ],
)
def test_normalize_reason_table(raw, expected):
    assert normalize_reason(raw) == expected


def test_normalize_reason_default_is_configurable():
    assert normalize_reason("gibberish", default=REASON_TIMEOUT) == (
        REASON_TIMEOUT
    )
    # Recognised strings win over the default.
    assert normalize_reason("cancelled", default=REASON_TIMEOUT) == (
        REASON_CANCELLED
    )


# ----------------------------------------------------------------------
# CancelToken / CancelGroup
# ----------------------------------------------------------------------


def test_cancel_token_first_cancel_wins():
    token = CancelToken("w0")
    assert not token.cancelled
    assert token.reason == ""
    assert token.cancel("deadline exceeded") == REASON_TIMEOUT
    assert token.cancelled
    # A later winner-cancellation sweep must not overwrite the original
    # timeout: the record should still say why the worker really died.
    assert token.cancel("cancelled") == REASON_TIMEOUT
    assert token.reason == REASON_TIMEOUT


def test_cancel_group_first_winner_cancels_the_rest():
    group = CancelGroup()
    tokens = [group.new_token(f"cube{i}") for i in range(4)]
    winner = tokens[1]
    losers = group.cancel_rest(winner, REASON_CANCELLED)
    assert group.winner is winner
    assert not winner.cancelled
    assert sorted(t.name for t in losers) == ["cube0", "cube2", "cube3"]
    assert all(t.reason == REASON_CANCELLED for t in losers)
    assert group.cancelled_count == 3
    # Idempotent: a second sweep finds nothing new to cancel.
    assert group.cancel_rest(winner) == []


def test_cancel_group_does_not_recount_cancelled_tokens():
    group = CancelGroup()
    a = group.new_token("a")
    b = group.new_token("b")
    a.cancel("timeout")
    losers = group.cancel_rest(b)
    assert losers == []
    assert a.reason == REASON_TIMEOUT  # untouched by the sweep
    assert group.cancelled_count == 1


# ----------------------------------------------------------------------
# JobBoard
# ----------------------------------------------------------------------


def test_board_affinity_then_shared_order():
    board = JobBoard()
    board.add(1, {"n": 1}, affinity=0)
    board.add(2, {"n": 2}, affinity=0)
    board.add(3, {"n": 3})  # shared
    assert len(board) == 3
    assert board.queued_for(0) == 2
    taken = [board.take(0).job_id for _ in range(3)]
    assert taken == [1, 2, 3]
    assert board.take(0) is None


def test_board_steals_from_tail_of_longest_sibling():
    board = JobBoard()
    for job_id in (1, 2, 3):
        board.add(job_id, {}, affinity=0)
    board.add(4, {}, affinity=1)
    # Worker 2 has nothing of its own and the shared queue is empty, so
    # it steals from worker 0 (the longest backlog) — from the *tail*,
    # leaving the victim's next job (its head) in place.
    stolen = board.take(2)
    assert stolen.job_id == 3
    assert board.take(0).job_id == 1


def test_board_take_discards_cancelled_jobs():
    board = JobBoard()
    token = CancelToken()
    board.add(1, {}, token=token, affinity=0)
    board.add(2, {}, affinity=0)
    token.cancel()
    job = board.take(0)
    assert job.job_id == 2


def test_board_revoke_cancelled_sweeps_all_queues():
    board = JobBoard()
    group = CancelGroup()
    keep = board.add(1, {}, token=group.new_token("keep"), affinity=0)
    board.add(2, {}, token=group.new_token("lose-a"), affinity=0)
    board.add(3, {}, token=group.new_token("lose-b"))
    group.cancel_rest(keep.token)
    revoked = board.revoke_cancelled()
    assert sorted(job.job_id for job in revoked) == [2, 3]
    assert len(board) == 1
    assert board.take(0) is keep


# ----------------------------------------------------------------------
# Kill reasons surfaced on portfolio run records (regression)
# ----------------------------------------------------------------------


def test_parallel_losers_report_canonical_cancelled():
    """Engines outrun by the winner read exactly "cancelled".

    Regression: the old pool spelled the loser status differently on
    different paths ("terminated", "killed", "cancelled"), so report
    consumers had to pattern-match.  The runtime's cancellation tokens
    normalise every kill, and both the record status and any attached
    ``EngineFailure.reason`` must use the canonical strings.
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
    from repro.exec import ExecRuntime
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
