"""Tests for the multiprocessing portfolio checker."""

import glob
import multiprocessing as mp
import os
import pickle

import pytest

from repro.aig.miter import build_miter
from repro.aig.network import negate_outputs
from repro.bench.generators import multiplier, voter
from repro.obs import Tracer, use_tracer
from repro.portfolio.parallel import (
    ParallelPortfolioChecker,
    PortfolioError,
    build_checker,
    resolve_start_method,
)
from repro.sweep.engine import CecStatus
from repro.sweep.report import PortfolioReport
from repro.synth.resyn import compress2

from conftest import random_aig

SHM_DIR = "/dev/shm"


def _run_segments():
    if not os.path.isdir(SHM_DIR):
        return []
    return sorted(glob.glob(os.path.join(SHM_DIR, "rs*")))


@pytest.fixture(autouse=True)
def _no_leftover_segments():
    """Every portfolio run must leave /dev/shm as clean as it found it."""
    before = _run_segments()
    yield
    assert _run_segments() == before


def test_aig_pickling_round_trip():
    aig = random_aig(num_pis=5, num_nodes=40, num_pos=3, seed=151)
    clone = pickle.loads(pickle.dumps(aig))
    assert clone.num_ands == aig.num_ands
    pattern = [1, 0, 1, 0, 1]
    assert clone.evaluate(pattern) == aig.evaluate(pattern)


@pytest.mark.parametrize(
    "kind", ["sim", "combined", "sat", "bdd", "bddsweep", "sleep", "crash"]
)
def test_build_checker_specs(kind):
    checker = build_checker((kind, {}))
    assert hasattr(checker, "check_miter")


def test_build_checker_ignores_budget_element():
    checker = build_checker(("sat", {"conflict_limit": 10}, 5.0))
    assert checker.conflict_limit == 10


def test_build_checker_rejects_unknown():
    with pytest.raises(ValueError):
        build_checker(("quantum", {}))


def test_parallel_equivalent():
    original = voter(15)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(time_limit=120.0)
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    assert checker.winner is not None


def test_parallel_nonequivalent_with_cex():
    original = multiplier(4)
    buggy = negate_outputs(compress2(original), [2])
    checker = ParallelPortfolioChecker(time_limit=120.0)
    result = checker.check(original, buggy)
    assert result.status is CecStatus.NONEQUIVALENT
    assert original.evaluate(result.cex) != buggy.evaluate(result.cex)


def test_parallel_time_limit_returns_undecided():
    original = multiplier(5)
    optimized = compress2(original)
    # Engines that cannot finish: SAT with a hopeless conflict budget
    # under a zero overall time limit.
    checker = ParallelPortfolioChecker(
        engines=[("sat", {"time_limit": 0.0})], time_limit=0.5
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.UNDECIDED


def test_parallel_crashing_engine_does_not_poison_run():
    """A mis-configured engine errors out; the others still answer."""
    original = voter(15)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[
            ("bdd", {"node_limit": -1}),  # invalid: crashes in the child
            ("combined", {}),
        ],
        time_limit=120.0,
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT


def test_requires_engines():
    with pytest.raises(ValueError):
        ParallelPortfolioChecker(engines=[])


def test_crash_recorded_on_report():
    """A worker that raises becomes a structured EngineFailure."""
    # voter(63) keeps ``combined`` busy for over a second after start-up,
    # well past the crash worker's import even under ``spawn``: a winner
    # that finished first would stop the crash worker before it raised,
    # and its record would rightly read ``cancelled``.
    original = voter(63)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[("crash", {"message": "boom"}), ("combined", {})],
        time_limit=120.0,
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    report = result.report
    assert isinstance(report, PortfolioReport)
    assert report.winner == "combined"
    crashed = report.record("crash")
    assert crashed.status == "failed"
    assert crashed.failure is not None
    assert "boom" in crashed.failure.message
    assert "RuntimeError" in crashed.failure.traceback


def test_late_crash_of_a_cancelled_worker_reads_failed():
    """A crash read after the winner cancelled its worker still reads
    ``failed``: a cancelled worker dies of the SIGTERM or posts
    ``terminated``, so a late ``error`` is the engine's own crash."""
    from repro.portfolio.parallel import _WorkerState
    from repro.sweep.report import EngineRunRecord

    checker = ParallelPortfolioChecker(engines=[("crash", {})])
    record = EngineRunRecord(name="crash", status="cancelled")
    state = _WorkerState(
        index=0, name="crash", record=record, stop_reason="cancelled",
        done=True,
    )
    checker._record_message(state, {
        "index": 0,
        "status": "error",
        "message": "boom",
        "traceback": "RuntimeError: boom",
        "seconds": 0.01,
    })
    assert record.status == "failed"
    assert record.failure is not None
    assert "boom" in record.failure.message
    assert record.failure.reason == "cancelled"


def test_all_engines_fail_raises_descriptive_error():
    original = voter(9)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[
            ("crash", {"message": "first"}),
            ("crash", {"message": "second"}),
        ],
        time_limit=60.0,
    )
    with pytest.raises(PortfolioError) as excinfo:
        checker.check(original, optimized)
    error = excinfo.value
    assert len(error.failures) == 2
    assert "first" in str(error) and "second" in str(error)
    assert all(rec.status == "failed" for rec in error.report.engines)


def test_per_engine_budget_stops_hung_worker():
    """A hung engine is terminated on its own budget; the run goes on."""
    original = voter(15)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[("sleep", {}, 0.5), ("sat", {"time_limit": 0.0})],
        time_limit=60.0,
        finisher=None,
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.UNDECIDED
    report = result.report
    assert report.record("sleep").status == "timeout"
    assert report.record("sleep").seconds < 30.0
    assert report.record("sat").status == "undecided"


def test_global_timeout_returns_best_residue():
    """On timeout the smallest residue collected so far comes back."""
    original = multiplier(5)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[("sat", {"time_limit": 0.0}), ("sleep", {})],
        time_limit=1.0,
        finisher=None,
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.UNDECIDED
    assert result.reduced_miter is not None
    report = result.report
    sat_record = report.record("sat")
    assert sat_record.status == "undecided"
    assert sat_record.residue_ands == result.reduced_miter.num_ands
    assert report.record("sleep").status == "timeout"


def test_timeout_finisher_proves_residue():
    """The finisher re-checks the best residue after a global timeout."""
    original = voter(13)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[("sat", {"time_limit": 0.0}), ("sleep", {})],
        time_limit=1.0,
        finisher=("sat", {"time_limit": 60.0}),
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    assert checker.winner == "finisher:sat"
    assert result.report.finisher.status == "equivalent"


def test_start_method_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_MP_START_METHOD", raising=False)
    assert resolve_start_method("spawn") == "spawn"
    assert resolve_start_method() in mp.get_all_start_methods()
    monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
    assert resolve_start_method() == "spawn"
    with pytest.raises(ValueError):
        resolve_start_method("not-a-method")


def test_explicit_spawn_run():
    """The orchestrator works under the spawn start method."""
    original = voter(11)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(
        engines=[("combined", {})],
        time_limit=120.0,
        start_method="spawn",
    )
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    assert result.report.start_method == "spawn"


# ---------------------------------------------------------------------------
# Teardown hygiene and the residue hand-off
# ---------------------------------------------------------------------------


def test_parallel_run_leaves_no_segments():
    original = voter(13)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(time_limit=120.0)
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT


def test_parallel_repeated_runs_do_not_leak(tmp_path):
    aig = random_aig(num_pis=6, num_nodes=50, num_pos=3, seed=42)
    miter = build_miter(aig, aig)
    checker = ParallelPortfolioChecker(
        engines=[("sim", {})], time_limit=60.0, finisher=None
    )
    for _ in range(50):
        result = checker.check_miter(miter)
        assert result.status is CecStatus.EQUIVALENT
        assert _run_segments() == []


def test_sigkilled_sleeper_is_reaped():
    """A worker that ignores SIGTERM is SIGKILLed once ``combined`` wins:
    the staged stop escalates, and the run still returns its verdict."""
    # voter(63) keeps ``combined`` busy for over a second, well past the
    # sleeper's start-up even under ``spawn``: a winner that finished
    # first would stop the sleeper before it could ignore SIGTERM.
    original = voter(63)
    optimized = compress2(original)
    tracer = Tracer("test")
    with use_tracer(tracer):
        checker = ParallelPortfolioChecker(
            engines=[
                ("sleep", {"seconds": 60.0, "ignore_sigterm": True}),
                ("combined", {}),
            ],
            time_limit=120.0,
            terminate_grace=0.2,
        )
        result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    assert result.report.record("sleep").status == "cancelled"
    escalations = [
        attrs.get("escalated")
        for name, _, _, _, attrs in tracer.spans()
        if name == "portfolio.terminate" and attrs.get("engine") == "sleep"
    ]
    assert escalations == ["SIGKILL"]


def test_finisher_adopts_carried_state():
    """The SAT finisher must adopt the residue's SweepState as shipped on
    the result queue — sat.state_adopted counts, zero re-simulation."""
    original = multiplier(5)
    optimized = compress2(original)
    tracer = Tracer("test")
    with use_tracer(tracer):
        checker = ParallelPortfolioChecker(
            engines=[("sim", {
                "k_P": 6, "k_p": 4, "k_g": 4, "k_l": 4, "C": 4,
                "num_random_words": 4, "max_local_phases": 1,
                "max_global_iterations": 1,
            }), ("sleep", {})],
            time_limit=2.0,
            finisher=("sat", {}),
        )
        result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    counters = tracer.metrics.counters
    assert counters.get("sat.state_adopted", 0) >= 1
    assert counters.get("sat.adopted_carried_words", 0) > 0
