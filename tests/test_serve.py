"""Tests for the CEC-as-a-service daemon (:mod:`repro.serve`)."""

import asyncio
import glob
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.aig.miter import build_miter
from repro.bench.generators import multiplier, voter
from repro.aig.network import negate_outputs
from repro.cache.store import Verdict
from repro.serve import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
    CecServer,
    ProtocolError,
    ServeClient,
    ServeError,
    TenantError,
    TenantManager,
    aig_from_wire,
    aig_to_wire,
    validate_tenant,
)
from repro.serve.pool import ServeJob, WorkerPool
from repro.serve.protocol import (
    pack_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.sweep.config import EngineConfig
from repro.sweep.engine import CecStatus, SimSweepEngine
from repro.synth.resyn import compress2

from conftest import random_aig

SHM_DIR = "/dev/shm"


def _run_segments():
    if not os.path.isdir(SHM_DIR):
        return []
    return sorted(glob.glob(os.path.join(SHM_DIR, "rs*")))


@pytest.fixture(autouse=True)
def _no_leftover_segments():
    """Every serve test must leave /dev/shm as clean as it found it."""
    before = _run_segments()
    yield
    assert _run_segments() == before


def _equivalent_miter(width=9):
    original = voter(width)
    return build_miter(original, compress2(original))


def _nonequivalent_miter(width=3):
    original = multiplier(width)
    return build_miter(original, negate_outputs(compress2(original), [1]))


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        payload = {"op": "ping", "nested": {"x": [1, 2, 3]}}
        write_frame_sync(left, payload)
        assert read_frame_sync(right) == payload
        left.close()
        assert read_frame_sync(right) is None  # clean EOF
    finally:
        right.close()


def test_frame_rejects_non_object_payloads():
    left, right = socket.socketpair()
    try:
        left.sendall(pack_frame({"ok": True})[:4] + b"[1,2,3]"[:4])
        left.close()
        with pytest.raises(ProtocolError):
            read_frame_sync(right)
    finally:
        right.close()


def test_pack_frame_rejects_oversized_payloads(monkeypatch):
    import repro.serve.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME", 64)
    with pytest.raises(ProtocolError):
        protocol.pack_frame({"blob": "x" * 128})


def test_aig_wire_round_trip():
    aig = random_aig(num_pis=5, num_nodes=30, num_pos=2, seed=77)
    clone = aig_from_wire(aig_to_wire(aig))
    assert clone.num_pis == aig.num_pis
    assert clone.num_ands == aig.num_ands
    pattern = [1, 0, 1, 1, 0]
    assert clone.evaluate(pattern) == aig.evaluate(pattern)


def test_aig_from_wire_rejects_malformed():
    with pytest.raises(ProtocolError):
        aig_from_wire({"num_pis": 2})
    with pytest.raises(ProtocolError):
        aig_from_wire("not an object")


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_admission_bounds_and_backpressure():
    admission = AdmissionController(max_pending=4, max_batch=2)
    admission.try_admit(2)
    admission.try_admit(2)
    with pytest.raises(AdmissionError) as busy:
        admission.try_admit(1)
    assert busy.value.code == "busy"
    admission.release(2)
    admission.try_admit(1)  # budget freed
    with pytest.raises(AdmissionError) as batch:
        admission.try_admit(3)
    assert batch.value.code == "batch"
    assert admission.rejected >= 4


def test_admission_tenant_quota_rejects_noisy_tenant():
    admission = AdmissionController(
        max_pending=16, max_batch=8, tenant_quota=2
    )
    admission.try_admit(2, tenants={"noisy": 2})
    # The noisy tenant is full; a third job is rejected with 'quota'.
    with pytest.raises(AdmissionError) as quota:
        admission.try_admit(1, tenants={"noisy": 1})
    assert quota.value.code == "quota"
    # Other tenants are unaffected by the noisy one's rejection.
    admission.try_admit(2, tenants={"quiet": 2})
    # A mixed batch is all-or-nothing: nothing is admitted when one
    # tenant in it would blow its quota.
    pending_before = admission.pending
    with pytest.raises(AdmissionError) as mixed:
        admission.try_admit(2, tenants={"noisy": 1, "quiet": 1})
    assert mixed.value.code == "quota"
    assert admission.pending == pending_before
    assert admission.tenant_pending == {"noisy": 2, "quiet": 2}
    # Completions free the tenant's slots again.
    admission.release(tenant="noisy")
    admission.try_admit(1, tenants={"noisy": 1})
    stats = admission.as_dict()
    assert stats["tenant_quota"] == 2
    assert stats["tenant_pending"]["noisy"] == 2


def test_admission_without_quota_ignores_tenants():
    admission = AdmissionController(max_pending=4, max_batch=4)
    admission.try_admit(4, tenants={"one": 4})  # no quota → no cap
    assert admission.tenant_pending == {}
    assert "tenant_quota" not in admission.as_dict()
    admission.release(4, tenant="one")  # harmless without accounting


def test_admission_drain_and_stop_lifecycle():
    admission = AdmissionController()
    admission.try_admit(1)
    admission.begin_drain()
    with pytest.raises(AdmissionError) as draining:
        admission.try_admit(1)
    assert draining.value.code == "draining"
    assert not admission.idle
    admission.release()
    assert admission.idle
    admission.stop()
    with pytest.raises(AdmissionError) as stopped:
        admission.try_admit(1)
    assert stopped.value.code == "stopped"


# ---------------------------------------------------------------------------
# Tenants
# ---------------------------------------------------------------------------


def test_tenant_name_validation():
    validate_tenant("team-a.prod_2")
    for bad in ("", "../escape", ".hidden", "a/b", "x" * 65, 42):
        with pytest.raises(TenantError):
            validate_tenant(bad)


def test_tenant_isolation_and_merge(tmp_path):
    manager = TenantManager(str(tmp_path))
    taken = manager.merge_delta(
        "team-a", [("key1", Verdict(status="equivalent"))]
    )
    assert taken == 1
    manager.merge_delta("team-b", [("key2", Verdict(status="equivalent"))])
    assert manager.flush() == 2
    assert manager.tenants == ("team-a", "team-b")
    # Knowledge stays in its namespace.
    assert manager.cache("team-a").store.get("key2") is None
    assert manager.cache("team-b").store.get("key2") is not None
    assert manager.worker_config("team-a") == str(tmp_path / "team-a")
    # A fresh manager on the same root reads what was flushed.
    reopened = TenantManager(str(tmp_path))
    assert reopened.cache("team-a").store.get("key1") is not None
    assert reopened.cache("team-b").store.get("key2") is not None
    assert reopened.cache("team-a").store.get("key2") is None


def test_tenant_manager_without_root_is_memory_only():
    manager = TenantManager(None)
    assert manager.worker_config("default") is None
    manager.merge_delta("default", [("k", Verdict(status="equivalent"))])
    assert manager.flush() == 0  # nothing persisted


# ---------------------------------------------------------------------------
# Worker pool: warm serving, crash recovery, deadlines
# ---------------------------------------------------------------------------


def test_pool_warm_submission_hits_resident_cache(tmp_path):
    """The second identical submission must hit the worker-resident
    cache: ``cache.hits`` increases and wall-clock drops."""
    miter = _equivalent_miter(9)
    pool = WorkerPool(workers=1, tenants=TenantManager(str(tmp_path)))
    try:
        cold = pool.run_batch([ServeJob(miter=miter)], timeout=60)[0]
        warm = pool.run_batch([ServeJob(miter=miter)], timeout=60)[0]
    finally:
        pool.shutdown()
    assert cold.status == "equivalent"
    assert warm.status == "equivalent"
    assert cold.cache_hits == 0
    assert warm.cache_hits > 0
    assert warm.seconds < cold.seconds
    # Same persistent process served both: no respawn, no re-import.
    assert cold.worker == warm.worker
    assert pool.stats()["respawns"] == 0


def test_pool_reports_counterexamples(tmp_path):
    result = WorkerPool(workers=1)
    try:
        record = result.run_batch(
            [ServeJob(miter=_nonequivalent_miter())], timeout=60
        )[0]
    finally:
        result.shutdown()
    assert record.status == "nonequivalent"
    assert record.cex is not None


def test_pool_killed_worker_respawns_and_serves(tmp_path):
    """A SIGKILLed worker is detected, respawned, and the pool keeps
    serving — with the respawn warm from the flushed tenant cache."""
    miter = _equivalent_miter(9)
    pool = WorkerPool(workers=1, tenants=TenantManager(str(tmp_path)))
    try:
        first = pool.run_batch([ServeJob(miter=miter)], timeout=60)[0]
        assert first.status == "equivalent"
        victim = pool._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        pool.poll(0.2)  # detect the death, respawn in place
        assert pool.stats()["respawns"] == 1
        again = pool.run_batch([ServeJob(miter=miter)], timeout=60)[0]
    finally:
        pool.shutdown()
    assert again.status == "equivalent"
    # The respawn reloaded the flushed tenant cache: still warm.
    assert again.cache_hits > 0


def test_pool_job_lost_to_crash_is_reported_as_error():
    """A job in flight when its worker dies resolves as an error result
    instead of hanging the batch."""
    pool = WorkerPool(workers=1)
    try:
        job_id = pool.submit(
            ServeJob(miter=_equivalent_miter(9), engine="sleep",
                     engine_kwargs={"seconds": 30.0})
        )
        deadline = time.monotonic() + 10
        while pool._workers[0].process.pid is None:
            time.sleep(0.01)
        time.sleep(0.3)  # let the worker pick the job up
        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        result = None
        while result is None and time.monotonic() < deadline:
            for done in pool.poll(0.2):
                if done.job_id == job_id:
                    result = done
    finally:
        pool.shutdown()
    assert result is not None
    assert result.status == "error"
    assert "died" in result.error


def test_pool_deadline_kill_respawns_warm(tmp_path):
    """An over-deadline worker is staged-killed and respawned."""
    pool = WorkerPool(
        workers=1,
        tenants=TenantManager(str(tmp_path)),
        terminate_grace=0.2,
    )
    try:
        stuck = pool.run_batch(
            [
                ServeJob(
                    miter=_equivalent_miter(9),
                    engine="sleep",
                    engine_kwargs={"seconds": 60.0},
                    deadline=0.5,
                )
            ],
            timeout=30,
        )[0]
        assert stuck.status == "error"
        assert "deadline" in stuck.error
        assert pool.stats()["respawns"] == 1
        healthy = pool.run_batch(
            [ServeJob(miter=_equivalent_miter(9))], timeout=60
        )[0]
    finally:
        pool.shutdown()
    assert healthy.status == "equivalent"


def _sleep_job(seconds, **fields):
    return ServeJob(
        miter=_equivalent_miter(5),
        engine="sleep",
        engine_kwargs={"seconds": seconds},
        **fields,
    )


def test_pool_queued_job_past_deadline_settles_without_a_kill():
    """A job whose deadline expires while it waits behind a busy worker
    settles as a deadline error without reaching, or killing, a worker."""
    pool = WorkerPool(workers=1)
    try:
        busy = pool.submit(_sleep_job(0.5))
        queued = pool.submit(_sleep_job(0.0, deadline=0.1))
        results = {}
        deadline = time.monotonic() + 30
        while busy not in results and time.monotonic() < deadline:
            for done in pool.poll(0.05):
                results[done.job_id] = done
        stats = pool.stats()
    finally:
        pool.shutdown()
    expired = results[queued]
    assert expired.status == "error"
    assert expired.error == "job deadline exceeded"
    assert expired.worker == -1
    # Settled while the worker still ran the first job.
    assert expired.latency < results[busy].latency
    assert results[busy].status == "undecided"
    assert results[busy].worker == 0
    assert stats["deadline_kills"] == 0
    assert stats["respawns"] == 0
    # The worker never received the expired job: once its first job
    # finished it had nothing assigned.
    assert stats["per_worker"][0]["assigned"] == 0
    assert stats["per_worker"][0]["jobs_done"] == 1


def test_pool_backlog_is_dispatched_oldest_first():
    """Jobs queued behind busy workers go out in submission order, to
    whichever worker goes idle first."""
    pool = WorkerPool(workers=2)
    try:
        pool.submit(_sleep_job(0.2))  # worker 0, goes idle first
        pool.submit(_sleep_job(60.0))  # worker 1, busy throughout
        backlog = [pool.submit(_sleep_job(0.0)) for _ in range(4)]
        served = []
        deadline = time.monotonic() + 30
        while len(served) < len(backlog) and time.monotonic() < deadline:
            served.extend(
                (done.job_id, done.worker)
                for done in pool.poll(0.05)
                if done.job_id in backlog
            )
    finally:
        pool.shutdown(drain=False, timeout=0.5)
    assert served == [(job_id, 0) for job_id in backlog]


def test_pool_shutdown_leaves_no_segments(tmp_path):
    pool = WorkerPool(workers=2, tenants=TenantManager(str(tmp_path)))
    pool.start()
    miter = _equivalent_miter(9)
    pool.run_batch([ServeJob(miter=miter), ServeJob(miter=miter)], timeout=60)
    pool.shutdown()
    assert _run_segments() == []


# ---------------------------------------------------------------------------
# End-to-end daemon
# ---------------------------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    """A real CecServer on a Unix socket, torn down via the protocol."""
    sock = str(tmp_path / "cec.sock")
    server = CecServer(
        sock,
        workers=1,
        cache_root=str(tmp_path / "cache"),
        max_pending=8,
        max_batch=4,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    yield sock, server
    if thread.is_alive():
        try:
            with ServeClient(sock, connect_retries=5) as client:
                client.shutdown()
        except (ConnectionError, ServeError, OSError):
            server.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()


def test_server_round_trip_matches_oneshot(daemon):
    """The daemon's verdicts match a one-shot check of the same pairs,
    and the second batch is served warm (hits > 0, no respawn)."""
    sock, server = daemon
    eq = _equivalent_miter(9)
    neq = _nonequivalent_miter()
    with ServeClient(sock, connect_retries=50) as client:
        assert client.ping() == os.getpid()
        cold = client.submit_batch([eq, neq], names=["eq", "neq"])
        warm = client.submit_batch([eq, neq], names=["eq", "neq"])
        stats = client.stats()
    assert [r["status"] for r in cold] == ["equivalent", "nonequivalent"]
    assert [r["status"] for r in warm] == ["equivalent", "nonequivalent"]
    # One-shot ground truth.
    oneshot = SimSweepEngine(EngineConfig())
    assert oneshot.check_miter(eq).status is CecStatus.EQUIVALENT
    assert oneshot.check_miter(neq).status is CecStatus.NONEQUIVALENT
    # Warm serving: resident-cache hits, same persistent worker.
    assert warm[0]["cache_hits"] > 0
    assert stats["pool"]["respawns"] == 0
    assert stats["admission"]["admitted"] == 4
    assert stats["tenants"]["default"]["entries"] > 0


def test_server_tenant_quota_rejects_before_pool(tmp_path):
    """A quota rejection happens at the front door: structured 'quota'
    error, nothing submitted to the worker pool."""
    server = CecServer(
        str(tmp_path / "quota.sock"),
        workers=1,
        tenant_quota=1,
    )
    entry = {"miter": aig_to_wire(_equivalent_miter(9))}

    async def run():
        server._loop = asyncio.get_running_loop()
        return await server._handle_submit(
            {"op": "submit", "jobs": [entry, entry], "tenant": "noisy"}
        )

    reply = asyncio.run(run())
    assert reply["ok"] is False
    assert reply["error"] == "quota"
    assert "noisy" in reply["detail"]
    assert not server.pool.started  # rejected before any worker spawned
    assert server.admission.pending == 0


def test_server_rejects_oversized_batches(daemon):
    sock, _ = daemon
    miter = _equivalent_miter(9)
    with ServeClient(sock, connect_retries=50) as client:
        with pytest.raises(ServeError) as error:
            client.submit_batch([miter] * 5)  # max_batch is 4
    assert error.value.code == "batch"


def test_server_rejects_bad_tenants_and_jobs(daemon):
    sock, _ = daemon
    with ServeClient(sock, connect_retries=50) as client:
        with pytest.raises(ServeError):
            client.submit_batch([_equivalent_miter(9)], tenant="../escape")
        with pytest.raises(ServeError):
            client._request({"op": "submit", "jobs": "nope"})
        with pytest.raises(ServeError):
            client._request({"op": "no-such-op"})
        # Only the served engines reach a worker: fault injectors,
        # "cubes" and unknown names are refused before anything queues.
        for engine in ("leak", "sleep", "cubes", "no-such-engine"):
            with pytest.raises(ServeError) as excinfo:
                client.submit_batch([_equivalent_miter(9)], engine=engine)
            assert excinfo.value.code == "job"
        # So do only the engine_kwargs keys the served engine takes.
        with pytest.raises(ServeError) as excinfo:
            client.submit_batch(
                [_equivalent_miter(9)], engine="sat",
                engine_kwargs={"bogus": 1},
            )
        assert excinfo.value.code == "job"
        assert client.stats()["pool"]["jobs_submitted"] == 0
        records = client.submit_batch(
            [_equivalent_miter(9)], engine="combined",
            engine_kwargs={"num_random_words": 16},
        )
        assert records[0]["status"] == "equivalent"


def test_server_shutdown_drains_and_unlinks_socket(daemon):
    sock, server = daemon
    with ServeClient(sock, connect_retries=50) as client:
        record = client.submit_pair(voter(9), compress2(voter(9)))
        assert record["status"] == "equivalent"
        client.shutdown()
    deadline = time.monotonic() + 15
    while os.path.exists(sock) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not os.path.exists(sock)
    assert _run_segments() == []


# ---------------------------------------------------------------------------
# Telemetry plane: flight recorder postmortems, SLOs, scrape endpoints
# ---------------------------------------------------------------------------


def test_pool_untraced_metrics_and_flight_ring(tmp_path):
    """Telemetry works without a tracer: the pool keeps its own registry
    and worker flight events arrive on every result."""
    from repro.obs import encode_prometheus

    pool = WorkerPool(workers=1, tenants=TenantManager(str(tmp_path)))
    try:
        record = pool.run_batch(
            [ServeJob(miter=_equivalent_miter(9))], timeout=60
        )[0]
        stats = pool.stats()
    finally:
        pool.shutdown()
    assert record.status == "equivalent"
    assert stats["jobs_submitted"] == 1
    assert stats["jobs_completed"] == 1
    assert stats["deadline_kills"] == 0
    assert stats["postmortems"] == []
    # The worker shipped its job/start + job/done milestones parent-side.
    assert stats["per_worker"][0]["flight_events"] >= 3
    text = encode_prometheus(pool.metrics)
    assert "repro_serve_jobs_submitted_total 1" in text
    assert "repro_serve_job_latency_seconds_bucket" in text


def test_pool_deadline_kill_writes_postmortem(tmp_path):
    """A deadline-killed worker leaves a flight-recorder postmortem and
    consumes SLO error budget as a deadline miss."""
    from repro.serve import SloRegistry, parse_slo_spec

    pm_dir = tmp_path / "postmortems"
    slo = SloRegistry([parse_slo_spec("p99=1s")])
    pool = WorkerPool(
        workers=1,
        tenants=TenantManager(str(tmp_path / "cache")),
        terminate_grace=0.2,
        slo=slo,
        postmortem_dir=str(pm_dir),
    )
    try:
        stuck = pool.run_batch(
            [
                ServeJob(
                    miter=_equivalent_miter(9),
                    engine="sleep",
                    engine_kwargs={"seconds": 60.0},
                    deadline=0.5,
                    name="wedged",
                )
            ],
            timeout=30,
        )[0]
        stats = pool.stats()
    finally:
        pool.shutdown()
    assert stuck.status == "error"
    artifacts = sorted(glob.glob(str(pm_dir / "postmortem_w0_*.json")))
    assert len(artifacts) == 1
    with open(artifacts[0], "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["worker"] == 0
    assert payload["reason"] == "deadline"
    assert [job["name"] for job in payload["failed_jobs"]] == ["wedged"]
    assert payload["failed_jobs"][0]["error"] == "job deadline exceeded"
    kinds = {event["kind"] for event in payload["events"]}
    assert "job" in kinds and "kill" in kinds
    assert stats["postmortems"] == artifacts
    assert stats["deadline_kills"] == 1
    # The miss consumed SLO budget for the default tenant.
    tenant = slo.snapshot()["tenants"][DEFAULT_TENANT]
    assert tenant["deadline_misses"] == 1
    assert tenant["objectives"]["p99"]["bad_events"] == 1


def test_server_metrics_op_http_scrape_and_slo_stats(tmp_path):
    """The daemon exposes one coherent scrape over both transports, and
    stats carries uptime, parent RSS, and the SLO snapshot."""
    import urllib.request

    sock = str(tmp_path / "cec.sock")
    server = CecServer(
        sock,
        workers=1,
        cache_root=str(tmp_path / "cache"),
        metrics_port=0,
        slo=["p99=5s"],
        postmortem_dir=str(tmp_path / "pm"),
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    try:
        with ServeClient(sock, connect_retries=50) as client:
            client.submit_batch(
                [_equivalent_miter(9)], tenant="acme", names=["eq"]
            )
            stats = client.stats()
            text = client.metrics()
            port = stats["metrics_port"]
            assert port == server.metrics_port and port > 0
            url = f"http://127.0.0.1:{port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                scraped = response.read().decode("utf-8")
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    for body in (text, scraped):
        assert "# TYPE repro_serve_jobs_submitted_total counter" in body
        assert "repro_serve_job_latency_seconds_bucket" in body
        assert "repro_serve_uptime_seconds" in body
        assert 'repro_serve_tenant_admitted{tenant="acme"} 1' in body
        assert (
            'repro_slo_burn_rate{objective="p99",tenant="acme"' in body
        )
    assert stats["uptime_seconds"] > 0
    assert stats["rss_bytes"] and stats["rss_bytes"] > 1024 * 1024
    assert stats["slo"]["objectives"] == ["p99=5s"]
    assert stats["slo"]["tenants"]["acme"]["jobs"] == 1
    assert stats["admission"]["per_tenant"]["acme"]["admitted"] == 1


def test_client_timeout_surfaces_structured_error(tmp_path):
    """A wedged daemon yields ServeError('timeout'), not a raw socket
    exception, and the connection is dropped for reuse safety."""
    path = str(tmp_path / "wedged.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    release = threading.Event()

    def hold():
        conn, _ = listener.accept()
        release.wait(5.0)
        conn.close()

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    try:
        client = ServeClient(path, timeout=0.3, connect_timeout=5.0)
        assert client.connect_timeout == 5.0
        with pytest.raises(ServeError) as error:
            client.ping()
        assert error.value.code == "timeout"
        assert "0.3" in str(error.value)
        assert client._sock is None  # dropped: frame stream is mid-message
    finally:
        release.set()
        holder.join(5.0)
        listener.close()
