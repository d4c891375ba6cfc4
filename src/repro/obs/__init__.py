"""Observability for the FlashGraph reproduction: span tracing, a
metrics registry, a simulated-time profiler, and the serving layer's
SLO observability plane.

All claims in the source paper are where-did-the-time-go claims, so this
package makes the DES substrate explain itself: :func:`arm` threads an
:class:`Observer` through every layer (engine, SAFS, scheduler, array,
devices), collecting request/io/device spans with stage events in
deterministic simulated time; :mod:`repro.obs.registry` is the single
source of truth for counter, histogram and gauge names; and
:mod:`repro.obs.report` turns a traced run into a per-iteration
compute/queue/service/recovery breakdown (the ``repro profile``
subcommand).  For the serving layer, :mod:`repro.obs.timeline` streams
windowed per-tenant snapshots on the DES clock, :mod:`repro.obs.slo`
tracks multi-window error-budget burn against declared tenant
objectives (the ``repro slo`` subcommand), and :func:`query_path` joins
every span a query produced — admission, barriers, device I/O, outcome
— into one critical-path view.  Tracing is zero-cost when disarmed —
every hook hides behind one ``obs is not None`` check and the counter
stream stays bit-identical to an untraced run.
"""

from repro.obs import registry
from repro.obs.report import (
    PROFILE_SCHEMA,
    TICK_SECONDS,
    build_profile,
    format_profile,
    validate_profile,
)
from repro.obs.slo import (
    SLO_SCHEMA,
    SLOEvent,
    SLOTracker,
    build_slo_report,
    format_slo_report,
    validate_slo_report,
)
from repro.obs.spans import (
    Observer,
    arm,
    disarm,
    query_path,
    to_chrome,
    to_jsonl,
    write_chrome,
    write_iteration_csv,
    write_jsonl,
)
from repro.obs.timeline import TimelineSampler

__all__ = [
    "Observer",
    "PROFILE_SCHEMA",
    "SLO_SCHEMA",
    "SLOEvent",
    "SLOTracker",
    "TICK_SECONDS",
    "TimelineSampler",
    "arm",
    "build_profile",
    "build_slo_report",
    "disarm",
    "format_profile",
    "format_slo_report",
    "query_path",
    "registry",
    "to_chrome",
    "to_jsonl",
    "validate_profile",
    "validate_slo_report",
    "write_chrome",
    "write_iteration_csv",
    "write_jsonl",
]
