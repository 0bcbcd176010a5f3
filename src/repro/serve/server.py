"""The asyncio front end of the CEC-as-a-service daemon.

:class:`CecServer` listens on a local Unix socket, speaks the
length-prefixed JSON protocol of :mod:`repro.serve.protocol`, and feeds
admitted jobs to a :class:`~repro.serve.pool.WorkerPool` of persistent
warm workers.  The event loop owns all connection state; the only other
thread is the *pump*, which blocks on the pool's result queue in an
executor and resolves per-job futures back on the loop.

Request ops
-----------

``ping``
    Liveness probe; echoes the server pid.
``submit``
    A batch of miter jobs.  Admission control (``busy``/``batch``/
    ``draining`` rejections) happens before any work is queued; the
    response carries one result record per job, in submission order.
``stats``
    The ``/metrics``-style snapshot: admission state, pool and worker
    health, per-tenant cache sizes, and the full
    :class:`~repro.obs.metrics.MetricsRegistry` counter dump.
``shutdown``
    Graceful drain: stop admitting, finish in-flight jobs, stop the
    pool, close the listener.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Optional, Sequence

from repro.obs import Tracer, encode_prometheus, get_tracer, read_rss_bytes, set_tracer
from repro.portfolio.parallel import SERVED_ENGINES, served_engine_kwargs
from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.pool import ServeJob, WorkerPool
from repro.serve.protocol import (
    ProtocolError,
    aig_from_wire,
    read_frame,
    write_frame,
)
from repro.serve.telemetry import (
    MetricsHttpServer,
    SloRegistry,
    parse_slo_spec,
)
from repro.serve.tenants import (
    DEFAULT_TENANT,
    TenantError,
    TenantManager,
    validate_tenant,
)

__all__ = ["CecServer"]


class CecServer:
    """A warm-pool CEC daemon on a Unix socket.

    Parameters
    ----------
    socket_path:
        Filesystem path of the Unix socket to listen on.
    workers:
        Size of the persistent worker pool.
    cache_root:
        Root directory for per-tenant knowledge caches (None → no
        knowledge cache: workers check every job cold).
    max_pending / max_batch:
        Admission bounds (see :class:`AdmissionController`).
    job_deadline:
        Default per-job wall-clock deadline in seconds.
    trace:
        Enable tracing in the daemon and its workers; retrieve via the
        ``stats`` op or :meth:`write_trace`.
    metrics_port:
        When not ``None``, serve Prometheus text on
        ``http://127.0.0.1:<port>/metrics`` from a stdlib HTTP thread
        (``0`` binds an ephemeral port — read :attr:`metrics_port`
        after :meth:`start`).  The same text is always available via
        the socket ``metrics`` op.
    slo:
        Latency-objective specs (``["p99=5s", …]``) or a prebuilt
        :class:`~repro.serve.telemetry.SloRegistry`; enables per-tenant
        SLO accounting in ``stats``, the scrape output, and ``cec top``.
    postmortem_dir:
        Directory for flight-recorder postmortem artifacts written when
        a worker is staged-killed (see :class:`WorkerPool`).
    """

    def __init__(
        self,
        socket_path: str,
        workers: int = 2,
        cache_root: Optional[str] = None,
        max_pending: int = 64,
        max_batch: int = 16,
        tenant_quota: Optional[int] = None,
        job_deadline: Optional[float] = None,
        trace: bool = False,
        start_method: Optional[str] = None,
        metrics_port: Optional[int] = None,
        slo: Optional[Sequence[str]] = None,
        postmortem_dir: Optional[str] = None,
    ) -> None:
        self.socket_path = socket_path
        self.trace = trace
        if trace and not get_tracer().enabled:
            set_tracer(Tracer(process_name="cec-serve"))
        self.tenants = TenantManager(cache_root)
        self.admission = AdmissionController(
            max_pending=max_pending,
            max_batch=max_batch,
            tenant_quota=tenant_quota,
        )
        if isinstance(slo, SloRegistry):
            self.slo: Optional[SloRegistry] = slo
        elif slo:
            self.slo = SloRegistry([parse_slo_spec(spec) for spec in slo])
        else:
            self.slo = None
        self.pool = WorkerPool(
            workers=workers,
            tenants=self.tenants,
            job_deadline=job_deadline,
            start_method=start_method,
            trace=trace,
            slo=self.slo,
            postmortem_dir=postmortem_dir,
        )
        self._metrics_port_requested = metrics_port
        self._metrics_http: Optional[MetricsHttpServer] = None
        self._started_at = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._futures: Dict[int, asyncio.Future] = {}
        #: job id → tenant, so completions release the right quota slot.
        self._job_tenants: Dict[int, str] = {}
        self._stopping = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound HTTP scrape port (None when not serving HTTP)."""
        return self._metrics_http.port if self._metrics_http else None

    async def start(self) -> None:
        """Spawn the pool, bind the socket, start the result pump."""
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        self.pool.start()
        if self._metrics_port_requested is not None:
            self._metrics_http = MetricsHttpServer(
                self.prometheus_text, port=self._metrics_port_requested
            ).start()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        parent = os.path.dirname(self.socket_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )
        self._pump_task = asyncio.ensure_future(self._pump())

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self._shutdown_sequence()

    def stop(self) -> None:
        """Request shutdown from outside a connection (signal handler)."""
        self.admission.begin_drain()
        self._stopping.set()

    async def _shutdown_sequence(self) -> None:
        self.admission.begin_drain()
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Let in-flight jobs resolve through the pump before the pool
        # goes down.
        while not self.admission.idle:
            await asyncio.sleep(0.05)
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.shutdown)
        self.admission.stop()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    def write_trace(self, path: str) -> None:
        """Dump the merged daemon+worker trace (after shutdown)."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.write(path)

    # ------------------------------------------------------------------
    # Result pump
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """Move pool results onto their asyncio futures, forever.

        ``WorkerPool.poll`` blocks up to its timeout in an executor
        thread — the event loop stays free to accept connections while
        the pump waits on the result queue.
        """
        loop = asyncio.get_running_loop()
        while True:
            results = await loop.run_in_executor(None, self.pool.poll, 0.2)
            for result in results:
                self.admission.release(
                    tenant=self._job_tenants.pop(result.job_id, None)
                )
                future = self._futures.pop(result.job_id, None)
                if future is not None and not future.done():
                    future.set_result(result)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    await write_frame(
                        writer,
                        {"ok": False, "error": "protocol", "detail": str(error)},
                    )
                    break
                if request is None:
                    break
                try:
                    response = await self._dispatch(request)
                except Exception as error:  # a bug must not kill the daemon
                    response = {
                        "ok": False,
                        "error": "internal",
                        "detail": repr(error),
                    }
                await write_frame(writer, response)
                if request.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Dict) -> Dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "pid": os.getpid()}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats()}
        if op == "metrics":
            return {
                "ok": True,
                "op": "metrics",
                "text": self.prometheus_text(),
            }
        if op == "submit":
            return await self._handle_submit(request)
        if op == "shutdown":
            self.admission.begin_drain()
            self._stopping.set()
            return {"ok": True, "op": "shutdown", "state": "draining"}
        return {"ok": False, "error": "op", "detail": f"unknown op {op!r}"}

    async def _handle_submit(self, request: Dict) -> Dict:
        jobs_wire = request.get("jobs")
        if not isinstance(jobs_wire, list):
            return {
                "ok": False,
                "error": "batch",
                "detail": "submit needs a 'jobs' list",
            }
        tenant = request.get("tenant", DEFAULT_TENANT)
        try:
            jobs = [self._decode_job(entry, tenant) for entry in jobs_wire]
        except (ProtocolError, TenantError, TypeError, ValueError) as error:
            return {"ok": False, "error": "job", "detail": str(error)}
        tenant_counts: Dict[str, int] = {}
        for job in jobs:
            tenant_counts[job.tenant] = tenant_counts.get(job.tenant, 0) + 1
        try:
            self.admission.try_admit(len(jobs), tenants=tenant_counts)
        except AdmissionError as error:
            return {"ok": False, "error": error.code, "detail": str(error)}
        futures: List[asyncio.Future] = []
        try:
            for job in jobs:
                job_id = self.pool.submit(job)
                self._job_tenants[job_id] = job.tenant
                future = self._loop.create_future()
                self._futures[job_id] = future
                existing = self.pool.take_result(job_id)
                if existing is not None and not future.done():
                    # The pump raced us and already banked the result.
                    self._futures.pop(job_id, None)
                    future.set_result(existing)
                futures.append(future)
        except Exception as error:
            # Give back the admissions that will never produce results —
            # a leaked slot would wedge the shutdown drain.
            for job in jobs[len(futures):]:
                self.admission.release(tenant=job.tenant)
            return {"ok": False, "error": "job", "detail": repr(error)}
        results = await asyncio.gather(*futures)
        return {
            "ok": True,
            "op": "submit",
            "results": [result.as_dict() for result in results],
        }

    def _decode_job(self, entry: Dict, default_tenant: str) -> ServeJob:
        if not isinstance(entry, dict):
            raise ProtocolError("each job must be an object")
        tenant = str(entry.get("tenant", default_tenant))
        validate_tenant(tenant)  # reject before any work is queued
        miter = aig_from_wire(entry.get("miter"))
        engine = entry.get("engine", "combined")
        if engine not in SERVED_ENGINES:
            raise ProtocolError(
                f"job 'engine' must be one of {', '.join(SERVED_ENGINES)}"
                f", not {engine!r}"
            )
        kwargs = entry.get("engine_kwargs", {})
        if not isinstance(kwargs, dict):
            raise ProtocolError("job 'engine_kwargs' must be an object")
        unknown = sorted(set(kwargs) - served_engine_kwargs(engine))
        if unknown:
            raise ProtocolError(
                f"engine {engine!r} takes no engine_kwargs "
                f"{', '.join(map(repr, unknown))}"
            )
        deadline = entry.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
        return ServeJob(
            miter=miter,
            tenant=tenant,
            engine=engine,
            engine_kwargs=kwargs,
            deadline=deadline,
            name=str(entry.get("name", "")),
        )

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``/metrics``-style snapshot served on the ``stats`` op."""
        payload: Dict[str, object] = {
            "pid": os.getpid(),
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "rss_bytes": read_rss_bytes(),
            "admission": self.admission.as_dict(),
            "pool": self.pool.stats(),
            "tenants": self.tenants.stats(),
            "metrics": self.pool.metrics.as_dict(),
        }
        if self.slo is not None:
            payload["slo"] = self.slo.snapshot()
        if self.metrics_port is not None:
            payload["metrics_port"] = self.metrics_port
        return payload

    def prometheus_text(self) -> str:
        """Render the live registries as Prometheus text exposition.

        Served identically on the socket ``metrics`` op and the HTTP
        scrape thread: the pool's counter/histogram registry plus
        computed gauges (uptime, parent RSS, pool health, per-tenant
        admission totals, SLO state).
        """
        gauges = [
            (
                "serve.uptime_seconds",
                {},
                time.monotonic() - self._started_at,
            ),
            ("serve.workers", {}, float(self.pool.num_workers)),
            ("serve.inflight", {}, float(len(self.pool._inflight))),
            (
                "serve.admission_pending",
                {},
                float(self.admission.pending),
            ),
            ("serve.admitted", {}, float(self.admission.admitted)),
            ("serve.rejected", {}, float(self.admission.rejected)),
        ]
        rss = read_rss_bytes()
        if rss is not None:
            gauges.append(("serve.parent_rss_bytes", {}, rss))
        for tenant, totals in sorted(
            self.admission.tenant_totals.items()
        ):
            labels = {"tenant": tenant}
            gauges.append(
                (
                    "serve.tenant_admitted",
                    dict(labels),
                    float(totals.get("admitted", 0)),
                )
            )
            gauges.append(
                (
                    "serve.tenant_rejected",
                    dict(labels),
                    float(totals.get("rejected", 0)),
                )
            )
        if self.slo is not None:
            gauges.extend(self.slo.gauges())
        # The pool's registry mutates concurrently (pump thread, resource
        # sampler); retry the snapshot rather than lock the hot path.
        for attempt in range(5):
            try:
                return encode_prometheus(self.pool.metrics, gauges=gauges)
            except RuntimeError:
                if attempt == 4:
                    raise
        raise AssertionError("unreachable")
