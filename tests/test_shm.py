"""Tests for the shared-memory data plane (repro.shm)."""

import glob
import os
import pickle
import warnings

import numpy as np
import pytest

from repro.aig.miter import build_miter
from repro.bench.generators import multiplier, voter
from repro.obs import Tracer, use_tracer
from repro.portfolio.parallel import (
    ParallelPortfolioChecker,
    _post_message,
    resolve_use_shm,
)
from repro.shm import (
    Segment,
    SegmentRegistry,
    adopt_aig,
    aig_shm_arrays,
    build_layout,
    detach_aig,
    shm_available,
)
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine
from repro.sweep.state import SweepState
from repro.synth.resyn import compress2

from conftest import random_aig

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

SHM_DIR = "/dev/shm"


def _run_segments():
    if not os.path.isdir(SHM_DIR):
        return []
    return sorted(glob.glob(os.path.join(SHM_DIR, "rs*")))


@pytest.fixture(autouse=True)
def _no_leftover_segments():
    """Every test must leave /dev/shm as clean as it found it."""
    before = _run_segments()
    yield
    assert _run_segments() == before


# ---------------------------------------------------------------------------
# Segment lifecycle
# ---------------------------------------------------------------------------


def test_segment_round_trip_bit_identical():
    arrays = {
        "a": np.arange(1000, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 333),
        "c": np.frombuffer(os.urandom(4096), dtype=np.uint8),
    }
    specs, total = build_layout(arrays)
    segment = Segment.create("rstestseg0", total)
    try:
        segment.write_arrays(arrays, specs)
        segment.publish()

        peer = Segment.attach("rstestseg0")
        views = peer.view_arrays(specs)
        for name, source in arrays.items():
            assert views[name].dtype == source.dtype
            assert np.array_equal(views[name], source)
            assert not views[name].flags.writeable
        del views
        peer.close()
    finally:
        segment.unlink()
        segment.close()


def test_segment_payload_is_64_byte_aligned():
    arrays = {"x": np.ones(3, dtype=np.uint8), "y": np.ones(5, dtype=np.int64)}
    specs, total = build_layout(arrays)
    for spec in specs:
        assert spec.offset % 64 == 0
    assert total >= specs[-1].offset + specs[-1].nbytes


def test_segment_refcount_is_advisory_bookkeeping():
    specs, total = build_layout({"x": np.zeros(4)})
    segment = Segment.create("rstestref0", total)
    try:
        segment.publish()
        assert segment.refcount == 1
        assert segment.incref() == 2
        assert segment.decref() == 1
        assert segment.decref() == 0
        assert segment.decref() == 0  # floors at zero
    finally:
        segment.unlink()
        segment.close()


def test_attach_rejects_unpublished_and_foreign_blocks():
    specs, total = build_layout({"x": np.zeros(4)})
    segment = Segment.create("rstestraw0", total)
    try:
        with pytest.raises(ValueError):
            Segment.attach("rstestraw0")  # created, never published
    finally:
        segment.unlink()
        segment.close()


# ---------------------------------------------------------------------------
# Registry: ownership protocol and reaping
# ---------------------------------------------------------------------------


def test_registry_publish_adopt_release_reap():
    tracer = Tracer("test")
    with use_tracer(tracer):
        parent = SegmentRegistry()
        worker = SegmentRegistry(token=parent.token, suffix="w0")
        payload = {"sig": np.arange(512, dtype=np.uint64)}
        descriptor = worker.publish(payload, meta={"kind": "test"})
        assert descriptor.segment.startswith(parent.prefix)

        adoption = parent.adopt(descriptor)
        assert np.array_equal(adoption.arrays["sig"], payload["sig"])
        assert adoption.meta["kind"] == "test"
        parent.release(adoption)

        worker.close()  # workers never unlink
        assert _run_segments()  # the block is still there for the reaper
        leaked = parent.reap()
    assert leaked == 0
    counters = tracer.metrics.counters
    assert counters["shm.segments_created"] == 1
    assert counters["shm.segments_adopted"] == 1
    assert counters["shm.segments_released"] == 1
    assert "shm.segments_leaked" not in counters


def test_registry_blob_round_trip():
    registry = SegmentRegistry()
    blob = pickle.dumps({"report": list(range(100))})
    descriptor = registry.publish(blob=blob)
    adoption = registry.adopt(descriptor)
    assert pickle.loads(adoption.blob.tobytes()) == {
        "report": list(range(100))
    }
    registry.release(adoption)
    assert registry.reap() == 0


def test_registry_reap_counts_unannounced_segments_as_leaked():
    tracer = Tracer("test")
    with use_tracer(tracer):
        parent = SegmentRegistry()
        # A worker publishes and then dies before its descriptor reaches
        # the parent: nobody announced the block.
        worker = SegmentRegistry(token=parent.token, suffix="w0")
        worker.publish({"junk": np.zeros(64)})
        worker.close()
        leaked = parent.reap()
    assert leaked == 1
    assert tracer.metrics.counters["shm.segments_leaked"] == 1


# ---------------------------------------------------------------------------
# Payload codecs: AIG and SweepState
# ---------------------------------------------------------------------------


def test_aig_descriptor_round_trip():
    aig = random_aig(num_pis=6, num_nodes=60, num_pos=3, seed=7)
    registry = SegmentRegistry()
    arrays, meta = aig_shm_arrays(aig)
    descriptor = registry.publish(arrays, meta=meta)
    adopted = adopt_aig(registry.adopt(descriptor))
    assert adopted.num_pis == aig.num_pis
    assert adopted.num_ands == aig.num_ands
    pattern = [1, 0, 1, 1, 0, 1]
    assert adopted.evaluate(pattern) == aig.evaluate(pattern)
    detached = detach_aig(adopted)
    registry.reap()
    # The detached copy must survive the reap.
    assert detached.evaluate(pattern) == aig.evaluate(pattern)


def _undecided_state(miter):
    """A real carried SweepState, produced by a crippled sim run."""
    config = EngineConfig(
        k_P=6, k_p=4, k_g=4, k_l=4, C=4, num_random_words=4,
        max_local_phases=1, max_global_iterations=1,
    )
    result = SimSweepEngine(config).check_miter(miter)
    assert result.status is CecStatus.UNDECIDED
    assert result.sim_state is not None
    return result


def test_sweep_state_shm_round_trip():
    miter = build_miter(multiplier(4), compress2(multiplier(4)))
    result = _undecided_state(miter)
    state = result.sim_state
    arrays, meta = state.to_shm_arrays()
    registry = SegmentRegistry()
    descriptor = registry.publish(arrays, meta=meta)
    adoption = registry.adopt(descriptor)
    clone = SweepState.attach(adoption.arrays, descriptor.meta)
    assert clone.matches(clone.network())
    assert clone.carried_words == state.carried_words
    clone.detach()
    registry.reap()
    # Detached state owns every array: usable after the reap.
    assert clone.carried_words == state.carried_words
    assert clone.network().num_ands == result.reduced_miter.num_ands


# ---------------------------------------------------------------------------
# Portfolio integration
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


def test_sigkilled_leaker_is_reaped():
    """A worker that ignores SIGTERM and hoards segments gets SIGKILLed;
    the parent's prefix sweep recovers its blocks."""
    original = voter(13)
    optimized = compress2(original)
    tracer = Tracer("test")
    with use_tracer(tracer):
        checker = ParallelPortfolioChecker(
            engines=[
                ("leak", {"seconds": 60.0, "segments": 2,
                          "ignore_sigterm": True}),
                ("combined", {}),
            ],
            time_limit=120.0,
            terminate_grace=0.2,
        )
        result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT
    assert tracer.metrics.counters.get("shm.segments_leaked", 0) >= 1


def test_finisher_adopts_carried_state():
    """The SAT finisher must adopt the residue's SweepState by mapping —
    sat.state_adopted counts, zero re-simulation."""
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
    assert counters.get("shm.segments_leaked", 0) == 0
    # The whole point: bulk data crossed as segments, not pickles.
    assert counters["shm.bytes_shared"] > counters["ipc.bytes_pickled"]


def test_shm_env_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_SHM", "0")
    assert resolve_use_shm(None) is False
    checker = ParallelPortfolioChecker(engines=[("sim", {})])
    assert checker.use_shm is False
    monkeypatch.setenv("REPRO_SHM", "1")
    assert resolve_use_shm(None) is True
    assert resolve_use_shm(False) is False


def test_parallel_runs_without_shm():
    original = voter(13)
    optimized = compress2(original)
    checker = ParallelPortfolioChecker(time_limit=120.0, use_shm=False)
    result = checker.check(original, optimized)
    assert result.status is CecStatus.EQUIVALENT


# ---------------------------------------------------------------------------
# IPC spill path
# ---------------------------------------------------------------------------


class _TornDownQueue:
    def put(self, message):
        raise ValueError("queue is closed")


def test_post_message_spills_when_queue_is_gone(tmp_path):
    spill = str(tmp_path / "worker0.msg")
    message = {"index": 0, "status": "undecided", "seconds": 1.0}
    _post_message(_TornDownQueue(), message, spill)
    with open(spill, "rb") as handle:
        assert pickle.load(handle) == message
    assert not os.path.exists(spill + ".tmp")


def test_post_message_without_spill_path_drops_quietly():
    _post_message(_TornDownQueue(), {"index": 0}, None)


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
    runtime = ExecRuntime(use_shm=False, spill=True).open()
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


# ---------------------------------------------------------------------------
# Cache file-lock fixes
# ---------------------------------------------------------------------------


def test_filelock_closes_fd_when_flock_raises(tmp_path, monkeypatch):
    from repro.cache import store as store_module

    class _RaisingFcntl:
        LOCK_EX = 2
        LOCK_UN = 8

        @staticmethod
        def flock(fd, op):
            raise OSError("contrived flock failure")

    monkeypatch.setattr(store_module, "fcntl", _RaisingFcntl)
    open_fds = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with pytest.raises(OSError):
            store_module._FileLock(str(tmp_path)).__enter__()
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_filelock_fallback_without_fcntl(tmp_path, monkeypatch):
    from repro.cache import store as store_module

    monkeypatch.setattr(store_module, "fcntl", None)
    monkeypatch.setattr(store_module._FileLock, "_warned_no_fcntl", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with store_module._FileLock(str(tmp_path)):
            excl = os.path.join(str(tmp_path), ".lock.excl")
            assert os.path.exists(excl)
        assert not os.path.exists(excl)
        # Reacquirable after release, and the warning fires exactly once.
        with store_module._FileLock(str(tmp_path)):
            pass
    assert (
        sum(issubclass(w.category, RuntimeWarning) for w in caught) == 1
    )


def test_filelock_fallback_breaks_stale_claims(tmp_path, monkeypatch):
    from repro.cache import store as store_module

    monkeypatch.setattr(store_module, "fcntl", None)
    monkeypatch.setattr(store_module._FileLock, "_warned_no_fcntl", True)
    excl = os.path.join(str(tmp_path), ".lock.excl")
    with open(excl, "w") as handle:
        handle.write("99999")
    stale = os.stat(excl).st_mtime - 120.0
    os.utime(excl, (stale, stale))
    with store_module._FileLock(str(tmp_path)):
        pass  # the dead holder's claim was broken, not spun on forever
    assert not os.path.exists(excl)


# ---------------------------------------------------------------------------
# Pid-safe orphan reaping (two daemons sharing a machine)
# ---------------------------------------------------------------------------


def test_reap_orphans_spares_segments_of_live_owners():
    """A second daemon's sweep must not collect a live run's segments."""
    from repro.shm import peek_header, reap_orphans

    registry = SegmentRegistry()  # owner_pid defaults to this process
    descriptor = registry.publish(
        arrays={"x": np.arange(16, dtype=np.uint64)}
    )
    path = os.path.join(SHM_DIR, descriptor.segment)
    header = peek_header(path)
    assert header is not None and header.valid
    assert header.owner_pid == os.getpid()
    # Another daemon's startup sweep: we are alive, so nothing to reap.
    assert reap_orphans(max_age=0.0) == 0
    assert os.path.exists(path)
    registry.reap()


def test_reap_orphans_collects_segments_of_dead_owners(tmp_path):
    """A crashed daemon's segments are collected by the next sweep."""
    import multiprocessing as mp

    from repro.shm import reap_orphans

    context = mp.get_context("fork")
    name_file = str(tmp_path / "segment-name")

    def _leak(path):
        leaker = SegmentRegistry(owner_pid=os.getpid())
        descriptor = leaker.publish(
            arrays={"x": np.arange(8, dtype=np.uint64)}
        )
        with open(path, "w", encoding="ascii") as handle:
            handle.write(descriptor.segment)
            handle.flush()
            os.fsync(handle.fileno())
        os._exit(0)  # die without cleanup, like a SIGKILLed daemon

    process = context.Process(target=_leak, args=(name_file,))
    process.start()
    process.join(timeout=10)
    with open(name_file, encoding="ascii") as handle:
        name = handle.read().strip()
    path = os.path.join(SHM_DIR, name)
    assert os.path.exists(path)
    assert reap_orphans(max_age=0.0) >= 1
    assert not os.path.exists(path)


def test_reap_orphans_uses_age_for_headerless_files():
    """Files without a valid header fall back to the mtime age bound."""
    from repro.shm import reap_orphans
    from repro.shm.registry import NAME_PREFIX

    path = os.path.join(SHM_DIR, NAME_PREFIX + "headerless-test")
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 32)
    try:
        # Young and headerless: left alone.
        reap_orphans(max_age=3600.0)
        assert os.path.exists(path)
        stale = os.stat(path).st_mtime - 7200.0
        os.utime(path, (stale, stale))
        reap_orphans(max_age=3600.0)
        assert not os.path.exists(path)
    finally:
        if os.path.exists(path):
            os.unlink(path)


def test_worker_segments_carry_the_run_owner_pid():
    """Worker-created segments are stamped with the *run's* pid, not the
    worker's — a worker death must not expose the run to foreign sweeps."""
    from repro.shm import peek_header

    run_pid = os.getpid()
    worker_view = SegmentRegistry(
        token="cafecafe", suffix="w0", owner_pid=run_pid
    )
    descriptor = worker_view.publish(
        arrays={"x": np.arange(4, dtype=np.uint64)}
    )
    header = peek_header(os.path.join(SHM_DIR, descriptor.segment))
    assert header is not None and header.owner_pid == run_pid
    worker_view.reap()


def test_registry_unpublish_releases_one_segment():
    """``unpublish`` drops a single owned segment without a full reap."""
    registry = SegmentRegistry()
    keep = registry.publish(arrays={"x": np.arange(4, dtype=np.uint64)})
    drop = registry.publish(arrays={"y": np.arange(4, dtype=np.uint64)})
    registry.unpublish(drop)
    assert not os.path.exists(os.path.join(SHM_DIR, drop.segment))
    assert os.path.exists(os.path.join(SHM_DIR, keep.segment))
    registry.reap()
