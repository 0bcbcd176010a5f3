"""CEC-as-a-service: a daemon with a persistent warm worker pool.

One-shot ``cec`` invocations pay process spawn, module import and
knowledge-cache load on every query.  For
workloads that check many miters against the same design family —
regression farms, incremental synthesis loops — those fixed costs
dominate.  ``repro.serve`` amortises them:

- :mod:`repro.serve.server` — asyncio front end on a local Unix socket,
  speaking the length-prefixed JSON protocol of
  :mod:`repro.serve.protocol`;
- :mod:`repro.serve.pool` — persistent worker processes that keep
  per-tenant knowledge caches hot across queries, fed miters pickled on
  their inbox queues;
- :mod:`repro.serve.tenants` — per-tenant cache namespaces, one proof
  store each;
- :mod:`repro.serve.admission` — bounded queues, ``busy`` backpressure,
  and draining graceful shutdown;
- :mod:`repro.serve.client` — the blocking :class:`ServeClient` library
  API used by ``cec submit`` and the bench harness;
- :mod:`repro.serve.telemetry` — per-tenant SLO accounting, the
  Prometheus HTTP scrape thread, and the ``cec top`` renderer.

See ``docs/serving.md`` for the architecture and operational guide.
"""

from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.client import ServeClient, ServeError
from repro.serve.pool import ServeJob, ServeResult, WorkerPool
from repro.serve.protocol import (
    ProtocolError,
    aig_from_wire,
    aig_to_wire,
    pack_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.serve.server import CecServer
from repro.serve.telemetry import (
    MetricsHttpServer,
    SloObjective,
    SloRegistry,
    format_top,
    parse_slo_spec,
)
from repro.serve.tenants import (
    DEFAULT_TENANT,
    TenantError,
    TenantManager,
    validate_tenant,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "CecServer",
    "DEFAULT_TENANT",
    "MetricsHttpServer",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeJob",
    "ServeResult",
    "SloObjective",
    "SloRegistry",
    "TenantError",
    "TenantManager",
    "WorkerPool",
    "aig_from_wire",
    "aig_to_wire",
    "format_top",
    "pack_frame",
    "parse_slo_spec",
    "read_frame_sync",
    "validate_tenant",
    "write_frame_sync",
]
