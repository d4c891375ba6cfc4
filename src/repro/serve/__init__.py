"""The multi-tenant graph-query service layer.

Many concurrent algorithm jobs — PageRank, BFS, WCC, k-core mixes —
share one SAFS page cache and SSD array on the shared DES clock, the
concurrency SAFS's asynchronous user-task interface was designed for
(paper §3).  The package provides:

- :mod:`repro.serve.tenants` — tenant specs, quotas and the busy-time
  accountant that tiles device time across tenants exactly,
- :mod:`repro.serve.admission` — the per-tenant admission controller,
- :mod:`repro.serve.traffic` — the seeded, replayable open-loop traffic
  generator (bursty Poisson arrivals, Zipf-weighted app mixes),
- :mod:`repro.serve.queries` — per-app query construction,
- :mod:`repro.serve.overload` — overload control: bounded admission
  queues with deterministic shedding, deadline enforcement, and the
  brownout state machine (see ``docs/overload.md``),
- :mod:`repro.serve.results` — the cross-query result cache answering
  repeat queries at admission time (see ``docs/io_sharing.md``),
- :mod:`repro.serve.service` — :class:`GraphService`, the event loop
  interleaving jobs by smallest virtual clock under fair-share, FIFO or
  deadline (EDF) scheduling.

See ``docs/serving.md`` for the architecture.
"""

from repro.serve.admission import AdmissionController, QuotaExceeded
from repro.serve.overload import (
    OverloadConfig,
    OverloadController,
    OverloadEvent,
    ShedRecord,
)
from repro.serve.queries import Query, QueryFactory
from repro.serve.results import CachedResult, ResultCache, image_digest
from repro.serve.service import (
    GraphService,
    ServeTelemetry,
    ServiceConfig,
    ServiceReport,
    TenantReport,
)
from repro.serve.tenants import TenantAccountant, TenantSpec
from repro.serve.traffic import Arrival, TenantTraffic, generate_trace

__all__ = [
    "AdmissionController",
    "Arrival",
    "CachedResult",
    "GraphService",
    "OverloadConfig",
    "OverloadController",
    "OverloadEvent",
    "Query",
    "QueryFactory",
    "QuotaExceeded",
    "ResultCache",
    "ServeTelemetry",
    "ServiceConfig",
    "ServiceReport",
    "ShedRecord",
    "TenantAccountant",
    "TenantReport",
    "TenantSpec",
    "TenantTraffic",
    "generate_trace",
    "image_digest",
]
