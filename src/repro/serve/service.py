"""The long-lived multi-tenant graph-query service.

:class:`GraphService` owns one SAFS stack — page cache, I/O scheduler,
SSD array — and runs many algorithm jobs against it concurrently on the
shared DES clock.  Each admitted query becomes an
:class:`~repro.core.engine.EngineJob` (its own engine object, sharing
the service's SAFS and stats); the event loop always advances the job
with the smallest virtual clock, so jobs contend for device queues and
the cache exactly the way the engine's own worker threads already do.

Scheduling policies (``ServiceConfig.policy``):

- ``fifo`` — arrival order;
- ``fair`` — weighted fair share: admit the tenant with the least
  attributed device-busy time per unit weight, with starvation aging
  (a query waiting longer than :data:`STARVATION_BOUND_S` jumps the
  queue);
- ``deadline`` — earliest deadline first over each tenant's
  ``deadline_s``.

The event loop (:meth:`GraphService.serve`) is a fixed sequence of
stages — reveal, expire, clocked subscribers, admit, step, finalize —
and every query lifecycle event goes out exactly once, through
``_emit``, to the sinks armed at construction; ``docs/serving.md``
states both as the loop's contract.  A single-job service run replays
the batch engine's code path operation for operation, so its simulated
counters are bit-identical to the equivalent ``repro run`` — the
serving tests pin this.  Overload control (``ServiceConfig.overload``,
see ``docs/overload.md``) bounds the admission queues, sheds or
deadline-aborts infeasible work, and brownouts the service under
sustained pressure; left ``None``, it changes nothing.
"""

import math
from collections import deque

import numpy as np
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import EngineJob, GraphEngine, IterationAborted, RunResult
from repro.graph.builder import GraphImage
from repro.obs import registry as reg
from repro.obs.slo import SLOTracker
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.io_scheduler import InflightReadRegistry
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.serve.admission import AdmissionController
from repro.serve.overload import (
    BROWNOUT_TOLERANCE_FACTOR,
    OverloadConfig,
    OverloadController,
    ShedRecord,
)
from repro.serve.queries import Query, QueryFactory
from repro.serve.results import HIT_COST_S, RESULT_SCOPE_SHARED, ResultCache
from repro.serve.tenants import TenantAccountant, TenantSpec
from repro.serve.traffic import Arrival
from repro.sim.cost_model import CostModel
from repro.sim.stats import Histogram
from repro.sim.faults import FaultPlan, FaultPolicy
from repro.sim.health import HealthPolicy
from repro.sim.parity import ParityConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

SCHEDULING_POLICIES = ("fifo", "fair", "deadline")

#: Fair mode: a query waiting this long (simulated seconds) is admitted
#: ahead of any share comparison — the no-starvation bound.
STARVATION_BOUND_S = 0.05

#: Query lifecycle event kinds, in lifecycle order (see ``_emit``).
QUERY_EVENTS = (
    "queued", "shed", "admitted", "deadline-abort", "completed", "aborted",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (engine knobs mirror the bench harness)."""

    cache_bytes: int = 1 << 20
    page_size: int = 4096
    num_threads: int = 32
    range_shift: int = 8
    #: Admission scheduling policy: "fifo", "fair" or "deadline".
    policy: str = "fair"
    #: Iteration cap for "pr" queries ("pr30" always runs the paper's 30).
    pr_iterations: int = 5
    #: Overload control (bounded queues, shedding, deadline enforcement,
    #: brownout); ``None`` keeps the exact pre-overload event loop.
    overload: Optional[OverloadConfig] = None
    #: Cross-query I/O sharing (see docs/io_sharing.md).  Both
    #: default off, which keeps the exact legacy event loop and the
    #: single-tenant batch bit-identity contract.
    #: In-flight read dedup: overlapping dispatches from sharing tenants
    #: attach to outstanding device fetches instead of re-issuing them.
    share_reads: bool = False
    #: Result caching: repeat queries (same canonical fingerprint) are
    #: answered from a completed query's output at admission time.
    result_cache: bool = False
    #: Result-cache entry lifetime on the simulated clock; ``None``
    #: never expires.
    result_cache_ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r} "
                f"(one of {', '.join(SCHEDULING_POLICIES)})"
            )
        if self.pr_iterations < 1:
            raise ValueError("pr_iterations must be at least 1")
        if self.result_cache_ttl_s is not None and self.result_cache_ttl_s <= 0.0:
            raise ValueError("result_cache_ttl_s must be positive")


@dataclass
class JobRecord:
    """One query's lifecycle, for reports and assertions."""

    tenant: str
    app: str
    arrival_time: float
    start_time: float
    finish_time: float
    ok: bool
    iterations: int
    result: RunResult
    #: The algorithm's output vector (program state at completion).
    values: object = None
    abort_reason: Optional[str] = None
    #: Whether brownout admitted this job at reduced fidelity.
    degraded: bool = False
    #: Trace-global query id (``Arrival.index``) — the join key between
    #: this record and every span the query produced (``query_path``).
    index: int = -1
    #: Simulated bytes this query read from the SSD array — per-step
    #: attribution (deltas around each of the job's own barriers), so
    #: concurrent jobs never bleed into each other's totals.
    bytes_read: float = 0.0
    #: Pages / attach events this query served by joining another
    #: query's in-flight fetch (``safs.dedup_*``, same attribution).
    dedup_pages: float = 0.0
    dedup_waits: float = 0.0
    #: Whether the query was answered from the result cache (it never
    #: ran an engine; ``result`` is a synthesized near-zero-cost stub).
    result_cached: bool = False

    @property
    def latency(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.arrival_time


def _query_context(arrival: Arrival) -> dict:
    """The span context joining all of one query's trace records: the
    trace-global query id plus its tenant/app labels."""
    return {
        "query": arrival.index,
        "tenant": arrival.tenant,
        "app": arrival.app,
    }


def _record(
    arrival: Arrival, start: float, finish: float, result: RunResult, **fields
) -> JobRecord:
    """``arrival``'s :class:`JobRecord`, run from ``start`` to ``finish``."""
    return JobRecord(
        tenant=arrival.tenant,
        app=arrival.app,
        arrival_time=arrival.time,
        start_time=start,
        finish_time=finish,
        iterations=result.iterations,
        result=result,
        index=arrival.index,
        **fields,
    )


def _latency_histogram(values) -> Histogram:
    """The serving layer's canonical latency histogram over ``values``.

    Every quantile the serving layer reports — per-tenant, whole-run
    and windowed (``repro.obs.timeline``) — goes through the same
    fixed ``serve.query_seconds`` bucket layout and the interpolation
    semantics documented on :meth:`~repro.sim.stats.Histogram.quantile`,
    so no two call sites can disagree on what "p99" means.
    """
    hist = Histogram(reg.histogram_bounds(reg.HIST_SERVE_QUERY_SECONDS))
    for value in values:
        hist.observe(value)
    return hist


@dataclass
class TenantReport:
    """One tenant's service-level outcome."""

    tenant: str
    jobs: int = 0
    aborts: int = 0
    quota_waits: int = 0
    busy_seconds: float = 0.0
    #: Overload control: queries shed at the queue caps, queries killed
    #: by deadline enforcement, jobs admitted degraded during brownout.
    shed: int = 0
    deadline_aborts: int = 0
    degraded: int = 0
    #: Queries answered from the result cache (a subset of ``jobs``).
    result_cache_hits: int = 0
    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)

    def latency_quantile(self, q: float) -> float:
        return _latency_histogram(self.latencies).quantile(q)

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "aborts": self.aborts,
            "quota_waits": self.quota_waits,
            "busy_seconds": self.busy_seconds,
            "shed": self.shed,
            "deadline_aborts": self.deadline_aborts,
            "degraded": self.degraded,
            "result_cache_hits": self.result_cache_hits,
            "latency_p50_s": self.latency_quantile(0.50),
            "latency_p95_s": self.latency_quantile(0.95),
            "latency_p99_s": self.latency_quantile(0.99),
            "max_queue_wait_s": max(self.queue_waits, default=0.0),
        }


@dataclass
class ServiceReport:
    """Everything one :meth:`GraphService.serve` call reports."""

    policy: str
    offered: int
    completed: int
    aborted: int
    quota_waits: int
    #: Makespan: the last job's finish time (simulated seconds).
    duration_s: float
    tenants: Dict[str, TenantReport]
    records: List[JobRecord]
    #: Overload control: queries refused without ever running (queue-cap
    #: sheds and queued-deadline drops), in decision order.
    sheds: List[ShedRecord] = field(default_factory=list)
    #: Running jobs cancelled by deadline enforcement (a subset of
    #: ``aborted``; the queued drops above are *not* aborts).
    deadline_aborts: int = 0
    #: The overload controller's summary (state machine outcome and the
    #: deterministic event log); ``None`` when overload control is off.
    overload: Optional[dict] = None
    #: The SLO tracker's summary — per-objective compliance plus the
    #: burn-rate threshold-crossing event log, time-ordered alongside
    #: the overload events above; ``None`` when no tenant declares
    #: objectives (see ``repro.obs.slo``).
    slo: Optional[dict] = None
    #: Cross-query I/O sharing outcome — dedup totals plus the result
    #: cache's summary; ``None`` when both sharing features were off
    #: (see docs/io_sharing.md).
    sharing: Optional[dict] = None

    @property
    def shed(self) -> int:
        return len(self.sheds)

    @property
    def sustained_qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        return _latency_histogram(r.latency for r in self.records).quantile(q)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "offered": self.offered,
            "completed": self.completed,
            "aborted": self.aborted,
            "shed": self.shed,
            "deadline_aborts": self.deadline_aborts,
            "quota_waits": self.quota_waits,
            "duration_s": self.duration_s,
            "sustained_qps": self.sustained_qps,
            "latency_p50_s": self.latency_quantile(0.50),
            "latency_p99_s": self.latency_quantile(0.99),
            "tenants": {
                name: report.to_dict()
                for name, report in sorted(self.tenants.items())
            },
            "overload": self.overload,
            "slo": self.slo,
            "sharing": self.sharing,
        }


@dataclass
class _Waiting:
    arrival: Arrival
    blocked_noted: bool = False


@dataclass
class _Running:
    arrival: Arrival
    start: float
    query: Query
    job: EngineJob
    aborted: Optional[IterationAborted] = None
    degraded: bool = False
    #: Result-cache deposit key for this query's output (``None`` when
    #: the cache is off or the tenant opted out).
    fingerprint: Optional[str] = None
    scope_key: str = RESULT_SCOPE_SHARED
    #: Per-step counter-delta accumulators (see ``_step``): this job's
    #: own array bytes and dedup activity, exact under concurrency.
    bytes_read: float = 0.0
    dedup_pages: float = 0.0
    dedup_waits: float = 0.0


@dataclass
class ServeTelemetry:
    """The event loop's live accumulators, readable mid-run.

    :meth:`GraphService.serve` keeps its working state here (published
    as ``service.telemetry``) instead of in loop locals, so the
    timeline sampler can read queue depths and completion counts at any
    window boundary.  The ``serve.*`` counters are still flushed from
    these accumulators exactly once, after the last job —
    ``_write_serve_counters`` reads this object at the end — so
    observing mid-run cannot perturb the bit-identical final snapshot
    (the armed-vs-disarmed identity tests pin this).
    """

    #: Per-tenant outcome reports, updated as each job finalizes.
    reports: Dict[str, TenantReport]
    #: Per tenant, when its most recently finished query freed its slot
    #: (a quota-blocked waiter starts no earlier).
    free_at: Dict[str, float]
    #: Revealed-but-unadmitted queries, in reveal order.
    waiting: List["_Waiting"] = field(default_factory=list)
    #: Admitted, unfinished jobs.
    running: List["_Running"] = field(default_factory=list)
    #: Finished-query records in finish order (result-cache answers
    #: finish at admission, without ever entering ``running``).
    records: List[JobRecord] = field(default_factory=list)
    #: Queries refused without running, in decision order.
    sheds: List[ShedRecord] = field(default_factory=list)
    completed: int = 0
    aborted: int = 0
    deadline_aborted: int = 0


class GraphService:
    """Serves a query trace over one shared SAFS stack.

    The stack is wired exactly like the bench harness wires a batch
    engine (array → SAFS → engine, one shared :class:`StatsCollector`),
    so a single-tenant serve run and the equivalent batch run produce
    bit-identical simulated counters.  ``observer`` (an
    :class:`~repro.obs.spans.Observer`) is armed on every job engine,
    giving one cross-job span trace and per-tenant histograms.
    """

    def __init__(
        self,
        image: GraphImage,
        tenants: Sequence[TenantSpec],
        config: Optional[ServiceConfig] = None,
        array_config: Optional[SSDArrayConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
        parity: Optional[ParityConfig] = None,
        cost_model: Optional[CostModel] = None,
        observer=None,
        timeline=None,
        source: Optional[int] = None,
    ) -> None:
        if not tenants:
            raise ValueError("a service needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.config = config = config or ServiceConfig()
        self.tenants: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        array = SSDArray(
            array_config or SSDArrayConfig(),
            fault_plan=fault_plan,
            parity=parity,
        )
        self.safs = SAFS(
            array,
            SAFSConfig(page_size=config.page_size, cache_bytes=config.cache_bytes),
            stats=array.stats,
            fault_policy=fault_policy,
            health_policy=health_policy,
        )
        self.stats = self.safs.stats
        self.cost_model = cost_model
        self._engine_config = EngineConfig(
            mode=ExecutionMode.SEMI_EXTERNAL,
            num_threads=config.num_threads,
            range_shift=config.range_shift,
        )
        self.queries = QueryFactory(
            image,
            pr_iterations=config.pr_iterations,
            source=source,
        )
        self.admission = AdmissionController(self.tenants)
        #: Overload controller; ``None`` = the pre-overload event loop.
        self.overload: Optional[OverloadController] = None
        detector = None
        self._enforce_deadlines = False
        if config.overload is not None:
            self.overload = OverloadController(
                config.overload, self.tenants, signal=self._pressure
            )
            self._enforce_deadlines = config.overload.enforce_deadlines
            if config.overload.brownout:
                detector = self.overload
        self.accountant = TenantAccountant(names)
        self.accountant.install(array)
        self.observer = observer
        #: Timeline sampler (``repro.obs.timeline``); ``None`` disarmed.
        self.timeline = timeline
        if timeline is not None:
            timeline.bind(self)
        #: SLO burn-rate tracker, armed automatically when any tenant
        #: declares objectives (pure bookkeeping outside the shared
        #: counters, so arming never perturbs counter bit-identity).
        self.slo: Optional[SLOTracker] = (
            SLOTracker(self.tenants)
            if any(spec.slo_objectives for spec in tenants)
            else None
        )
        #: Live event-loop accumulators; set by :meth:`serve`.
        self.telemetry: Optional[ServeTelemetry] = None
        #: Per-tenant cache partitions (only tenants that asked for one).
        self.cache_partitions: Dict[str, PageCache] = {
            spec.name: PageCache(
                PageCacheConfig(
                    capacity_bytes=spec.cache_bytes,
                    page_size=config.page_size,
                    associativity=self.safs.config.cache_associativity,
                    eviction=self.safs.config.cache_eviction,
                ),
                self.stats,
            )
            for spec in tenants
            if spec.cache_bytes is not None
        }
        if self.cache_partitions:
            self.safs.scheduler.tenant_caches = self.cache_partitions
        # Cross-query I/O sharing (docs/io_sharing.md); every handle is
        # None when its feature is off, keeping the legacy event loop.
        self.inflight: Optional[InflightReadRegistry] = None
        #: Tenants whose steps attach to (and publish) in-flight reads.
        self._sharing_tenants = set()
        if config.share_reads:
            self.inflight = InflightReadRegistry()
            self._sharing_tenants = {t.name for t in tenants if t.share_reads}
        self.result_cache: Optional[ResultCache] = None
        #: Result-cache scope per tenant that reads and writes the cache.
        self._result_scopes: Dict[str, str] = {}
        if config.result_cache:
            self.result_cache = ResultCache(config.result_cache_ttl_s)
            self._result_scopes = {
                t.name: t.name if t.result_cache == "private" else RESULT_SCOPE_SHARED
                for t in tenants
                if t.result_cache != "off"
            }
        #: The clocked subscribers, in stage order: each exposes
        #: ``next_boundary_s`` and ``note_time(now)``.
        self._clocked = [c for c in (detector, self.timeline) if c is not None]
        #: The armed features that own ``serve.*`` counters, each
        #: exposing ``counters(tenants)``, in flush order.
        parts = (self.result_cache, self.overload)
        self._counted = [p for p in parts if p is not None]
        self._sinks = self._build_sinks()

    # ------------------------------------------------------------------
    # The event stream
    # ------------------------------------------------------------------

    def _build_sinks(self) -> Dict[str, list]:
        """Per event kind, the sinks armed for this service — decided
        once here, so no stage ever asks what is armed."""
        outcomes = ("shed", "completed", "aborted")
        # (what the sink writes to — None when disarmed, sink, kinds)
        wiring = (
            (self.stats, self._histogram_sink, outcomes),
            (self.slo, self._slo_sink, outcomes),
            (self.timeline, self._timeline_sink, ("completed", "aborted")),
            (self.observer, self._observer_sink, QUERY_EVENTS),
        )
        sinks: Dict[str, list] = {kind: [] for kind in QUERY_EVENTS}
        for target, sink, kinds in wiring:
            if target is not None:
                for kind in kinds:
                    sinks[kind].append(sink)
        return sinks

    def _emit(
        self, kind: str, arrival: Arrival, time: float, outcome=None, **fields
    ) -> None:
        """Fan one query lifecycle event out to every sink armed for
        ``kind``.  ``outcome`` is the :class:`ShedRecord` or
        :class:`JobRecord` a terminal event closes; ``fields`` are the
        event's span-trace attributes."""
        for sink in self._sinks[kind]:
            sink(kind, arrival, time, outcome, fields)

    def _histogram_sink(self, kind, arrival, time, outcome, fields) -> None:
        # Histograms live outside counter snapshots/diffs, so recording
        # them mid-run never perturbs any job's counter bit-identity.
        if kind == "shed":
            observed = [(reg.HIST_SERVE_SHED_AGE_SECONDS, outcome.age)]
        else:
            observed = [
                (reg.HIST_SERVE_QUERY_SECONDS, outcome.latency),
                (reg.HIST_SERVE_QUEUE_WAIT_SECONDS, outcome.queue_wait),
            ]
        for family, value in observed:
            self.stats.observe(
                f"{family}.{arrival.tenant}", value, reg.histogram_bounds(family)
            )

    def _slo_sink(self, kind, arrival, time, outcome, fields) -> None:
        self.slo.record(arrival.tenant, time, kind, fields.get("latency"))

    def _timeline_sink(self, kind, arrival, time, outcome, fields) -> None:
        self.timeline.note_completion(
            arrival.tenant, time, fields["latency"], kind == "completed"
        )

    def _observer_sink(self, kind, arrival, time, outcome, fields) -> None:
        self.observer.note_query_event(
            kind, time, _query_context(arrival), **fields
        )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def serve(self, trace: Sequence[Arrival]) -> ServiceReport:
        """Run ``trace`` to completion and report.

        One call per service instance: the report's counters are written
        into the shared stats at the end (never mid-run, so per-job
        counter diffs stay unperturbed), and the quota, busy-time and
        cache state a run leaves behind would leak into a second run's
        report — so a second call raises :class:`RuntimeError`.  A trace
        with an arrival time that is not finite and ``>= 0``, or out of
        order, raises :class:`ValueError` before any state moves, so the
        service can still serve a valid trace.
        """
        if self.telemetry is not None:
            raise RuntimeError(
                "GraphService.serve() runs once per service instance; "
                "build a new service to serve another trace"
            )
        for arrival in trace:
            if not 0.0 <= arrival.time < math.inf:
                raise ValueError(
                    f"arrival times must be finite and >= 0, got {arrival.time!r}"
                )
        for earlier, later in zip(trace, trace[1:]):
            if later.time < earlier.time:
                raise ValueError("the trace must be sorted by arrival time")
        telemetry = self.telemetry = ServeTelemetry(
            reports={name: TenantReport(tenant=name) for name in self.tenants},
            free_at={name: 0.0 for name in self.tenants},
        )
        pending = deque(trace)
        while pending or telemetry.waiting or telemetry.running:
            now = self._frontier(pending)
            self._reveal(pending, now)
            if math.isfinite(now):
                self._expire(now)
                # One float compare per subscriber per pass; a call only
                # when its boundary actually falls due.
                for clock in self._clocked:
                    if now >= clock.next_boundary_s:
                        clock.note_time(now)
            self._admit(now)
            if telemetry.running:
                self._step_earliest()
        return self._report(len(trace))

    def _frontier(self, pending: deque) -> float:
        """The smallest running job's clock; with none running, ``-inf``
        while queries wait (a blocked waiter implies a running job of
        its tenant, so admission starts one), else the next arrival."""
        telemetry = self.telemetry
        if telemetry.running:
            return min(r.job.clock for r in telemetry.running)
        if telemetry.waiting:
            return -math.inf
        return pending[0].time

    def _report(self, offered: int) -> ServiceReport:
        telemetry = self.telemetry
        reports = telemetry.reports
        for name, report in reports.items():
            report.quota_waits = self.admission.quota_waits[name]
        for name, busy in self.accountant.busy_by_tenant().items():
            if name in reports:
                reports[name].busy_seconds = busy
        duration = max((r.finish_time for r in telemetry.records), default=0.0)
        summary = None
        end = duration
        overload = self.overload
        if overload is not None:
            if overload.events:
                end = max(end, overload.events[-1].time)
            overload.finish(end)
            summary = overload.summary()
            for name, report in reports.items():
                report.shed = overload.sheds.get(name, 0)
                report.deadline_aborts = overload.deadline_aborts.get(name, 0)
                report.degraded = overload.degraded_jobs.get(name, 0)
        slo = None
        if self.slo is not None:
            self.slo.finish(end)
            slo = self.slo.summary()
        if self.timeline is not None:
            self.timeline.finish(end)
        self._write_serve_counters()
        return ServiceReport(
            policy=self.config.policy,
            offered=offered,
            completed=telemetry.completed,
            aborted=telemetry.aborted,
            quota_waits=self.admission.total_quota_waits(),
            duration_s=duration,
            tenants=reports,
            records=telemetry.records,
            sheds=telemetry.sheds,
            deadline_aborts=telemetry.deadline_aborted,
            overload=summary,
            slo=slo,
            sharing=self._sharing_summary(),
        )

    def _sharing_summary(self) -> Optional[dict]:
        """The cross-query sharing outcome, ``None`` when all off.

        Reads the (already flushed) dedup counters and the result
        cache's local tallies; pure reads, so the bit-identical counter
        snapshot is untouched.
        """
        cache = self.result_cache
        if self.inflight is None and cache is None:
            return None
        stats = self.stats
        return {
            "share_reads": self.config.share_reads,
            "dedup_pages": stats.get(reg.SAFS_DEDUP_PAGES),
            "dedup_waits": stats.get(reg.SAFS_DEDUP_WAITS),
            "dedup_wait_seconds": stats.get(reg.SAFS_DEDUP_WAIT_SECONDS),
            "result_cache": None if cache is None else cache.summary(),
        }

    # ------------------------------------------------------------------
    # Stages 1-2: reveal and expire
    # ------------------------------------------------------------------

    def _reveal(self, pending: deque, now: float) -> None:
        """Queue every arrival due by ``now``."""
        while pending and pending[0].time <= now:
            arrival = pending.popleft()
            self._emit("queued", arrival, arrival.time)
            self._enqueue(_Waiting(arrival))

    def _enqueue(self, newcomer: _Waiting) -> None:
        """Queue one revealed arrival, shedding if a cap would burst.

        The tenant cap is checked first (a tenant may never crowd its
        own queue past its cap), then the global cap; the victim — the
        newcomer or a queued query, per the shed policy — is decided
        purely from the queue contents, so it replays bit-identically.
        """
        waiting = self.telemetry.waiting
        overload = self.overload
        if overload is None:
            waiting.append(newcomer)
            return
        arrival = newcomer.arrival
        mine = [w for w in waiting if w.arrival.tenant == arrival.tenant]
        victim = None
        if len(mine) >= overload.tenant_cap(arrival.tenant):
            victim = overload.choose_victim(mine + [newcomer], self._order_key)
        elif len(waiting) >= overload.config.global_queue_cap:
            victim = overload.choose_victim(waiting + [newcomer], self._order_key)
        if victim is None:
            waiting.append(newcomer)
        elif victim is newcomer:
            self._shed(arrival, arrival.time, "queue-cap")
        else:
            waiting.remove(victim)
            waiting.append(newcomer)
            self._shed(victim.arrival, arrival.time, "queue-cap")
        depth = {name: 0 for name in self.tenants}
        for waiter in waiting:
            depth[waiter.arrival.tenant] += 1
        overload.note_depth(len(waiting), depth)

    def _expire(self, now: float) -> None:
        """Drop queued queries whose deadline already passed at ``now``:
        admitting them can only burn array bandwidth on a guaranteed
        miss, the exact waste overload control exists to avoid."""
        if not self._enforce_deadlines:
            return
        waiting = self.telemetry.waiting
        expired = [w for w in waiting if self._past_deadline(w.arrival, now)]
        for waiter in expired:
            waiting.remove(waiter)
            self._shed(waiter.arrival, now, "deadline-expired")

    def _past_deadline(self, arrival: Arrival, time: float) -> bool:
        deadline_s = self.tenants[arrival.tenant].deadline_s
        return deadline_s is not None and time > arrival.time + deadline_s

    def _shed(self, arrival: Arrival, time: float, reason: str) -> None:
        record = self.overload.record_shed(arrival, time, reason)
        self.telemetry.sheds.append(record)
        self._emit("shed", arrival, time, record, reason=reason, age=record.age)

    # ------------------------------------------------------------------
    # Stage 3's brownout-detector signal
    # ------------------------------------------------------------------

    def _pressure(self, now: float):
        """The detector's inputs at simulated ``now``: queue depth, the
        mean age of waiting queries, and the unhealthy-device fraction."""
        waiting = self.telemetry.waiting
        mean_wait = 0.0
        if waiting:
            mean_wait = sum(now - w.arrival.time for w in waiting) / len(waiting)
        return len(waiting), mean_wait, self._unhealthy_fraction(now)

    def _unhealthy_fraction(self, now: float) -> float:
        """Fraction of data devices dead, failed or quarantined at
        ``now`` — the detector's array-health signal.  Folds both the
        health monitor's view (when one is armed) and fault-plan deaths,
        so chaos benches without a health policy still sense deadness."""
        array = self.safs.array
        num = array.config.num_ssds
        health = self.safs.health
        plan = array.fault_plan
        bad = 0
        for device in range(num):
            if health is not None and health.avoid(device, now):
                bad += 1
            elif plan is not None and plan.is_dead(device, now):
                bad += 1
        return bad / num

    # ------------------------------------------------------------------
    # Stage 4: admission
    # ------------------------------------------------------------------

    def _order_key(self, waiter: _Waiting):
        arrival = waiter.arrival
        spec = self.tenants[arrival.tenant]
        if self.config.policy == "fifo":
            return (arrival.time, arrival.index)
        if self.config.policy == "deadline":
            deadline_s = spec.deadline_s
            deadline = math.inf if deadline_s is None else arrival.time + deadline_s
            return (deadline, arrival.time, arrival.index)
        share = self.accountant.usage[arrival.tenant] / spec.weight
        return (share, arrival.time, arrival.index)

    def _admit(self, now: float) -> None:
        """Start waiting queries by policy until every quota blocks."""
        waiting = self.telemetry.waiting
        while waiting:
            candidates = []
            for waiter in waiting:
                if self.admission.can_admit(waiter.arrival.tenant):
                    candidates.append(waiter)
                elif not waiter.blocked_noted:
                    waiter.blocked_noted = True
                    self.admission.note_quota_wait(waiter.arrival.tenant)
            if not candidates:
                return
            pick = None
            if self.config.policy == "fair" and math.isfinite(now):
                # Starvation aging: anyone past the bound is admitted
                # longest-waiting first, regardless of share.
                starved = [
                    w for w in candidates if now - w.arrival.time >= STARVATION_BOUND_S
                ]
                if starved:
                    pick = min(starved, key=lambda w: (w.arrival.time, w.arrival.index))
            if pick is None:
                pick = min(candidates, key=self._order_key)
            waiting.remove(pick)
            arrival = pick.arrival
            # A query that was ever blocked starts when its slot freed,
            # not at its (earlier) arrival; a never-blocked query starts
            # on arrival.
            start = (
                max(arrival.time, self.telemetry.free_at[arrival.tenant])
                if pick.blocked_noted
                else arrival.time
            )
            # That start can sit far past the frontier the expiry sweep
            # sees (one slow job can jump a tenant's free_at by whole
            # seconds): a guaranteed miss is shed instead of started.
            if self._enforce_deadlines and self._past_deadline(arrival, start):
                self._shed(arrival, start, "deadline-expired")
                continue
            self._start(arrival, start)

    def _start(self, arrival: Arrival, start: float) -> None:
        tenant = arrival.tenant
        self.admission.admit(tenant)
        degraded = False
        build_kwargs: dict = {}
        if self.overload is not None and self.overload.degrades(tenant):
            build_kwargs = {
                "pr_iterations": self.config.overload.brownout_pr_iterations,
                "pr_tolerance_factor": BROWNOUT_TOLERANCE_FACTOR,
            }
            # Only PageRank has a fidelity dial today; traversals run
            # full-fidelity even in brownout (they are shed or aborted
            # instead), so only mark what actually changed.
            degraded = arrival.app in ("pr", "pr30")
            if degraded:
                self.overload.note_degraded(tenant)
        # Result cache: fingerprint the query the build would produce
        # (the *effective*, post-brownout parameters — a degraded run
        # can only ever be answered by an equally degraded deposit) and
        # answer a repeat at admission time without running an engine.
        fingerprint = cached = None
        scope_key = self._result_scopes.get(tenant, RESULT_SCOPE_SHARED)
        if tenant in self._result_scopes:
            fingerprint = self.queries.fingerprint(arrival.app, **build_kwargs)
            cached = self.result_cache.lookup(scope_key, fingerprint, start)
        hit = {} if cached is None else {"cached": True}
        self._emit(
            "admitted", arrival, start, queue_wait=start - arrival.time,
            degraded=degraded, **hit,
        )
        if cached is not None:
            self._finalize(
                arrival, self._cached_record(arrival, start, cached, degraded)
            )
            return
        query = self.queries.build(arrival.app, **build_kwargs)
        engine = GraphEngine(
            self.queries.image,
            safs=self.safs,
            config=self._engine_config,
            cost_model=self.cost_model,
        )
        span_context = None
        if self.observer is not None:
            from repro.obs.spans import arm

            arm(engine, self.observer)
            span_context = _query_context(arrival)
        job = engine.start_job(
            query.program,
            initial_active=query.initial_active,
            max_iterations=query.max_iterations,
            start_time=start,
            span_context=span_context,
        )
        self.telemetry.running.append(
            _Running(
                arrival=arrival,
                start=start,
                query=query,
                job=job,
                degraded=degraded,
                fingerprint=fingerprint,
                scope_key=scope_key,
            )
        )

    def _cached_record(
        self, arrival: Arrival, start: float, cached, degraded: bool
    ) -> JobRecord:
        """A result-cache answer as a finished query: it holds its
        tenant slot only for the (near-zero) hit cost, reads zero bytes,
        and reuses the deposited output vector verbatim."""
        finish = start + HIT_COST_S
        result = RunResult(
            runtime=finish - start,
            iterations=cached.iterations,
            cpu_busy=0.0,
            cpu_utilization=0.0,
            bytes_read=0.0,
            io_throughput=0.0,
            io_utilization=0.0,
            cache_hit_rate=0.0,
            counters={},
        )
        return _record(
            arrival, start, finish, result, ok=True, values=cached.values,
            degraded=degraded, result_cached=True,
        )

    # ------------------------------------------------------------------
    # Stages 5-6: step and finalize
    # ------------------------------------------------------------------

    def _step_earliest(self) -> None:
        """Advance the job with the smallest clock one iteration
        barrier; book it once it finished, aborted or was cancelled."""
        running = self.telemetry.running
        run = min(running, key=lambda r: (r.job.clock, r.arrival.index))
        if self._step(run) and not self._deadline_abort(run):
            return
        running.remove(run)
        self._finalize(run.arrival, self._job_record(run))

    def _step(self, run: _Running) -> bool:
        """One iteration of ``run``'s job, tagged with its tenant.

        When read sharing is on and the tenant participates, the shared
        :class:`InflightReadRegistry` is attached to the scheduler for
        exactly this step, so only sharing tenants' dispatches attach to
        (or publish) in-flight fetches.  Job steps are serialized on the
        wall clock, so counter deltas taken around the step attribute
        this job's own array bytes and dedup activity exactly — plain
        reads, never a counter write, so bit-identity is untouched.
        """
        scheduler = self.safs.scheduler
        tenant = run.arrival.tenant
        scheduler.tenant = tenant
        self.accountant.current = tenant
        stats = self.stats
        if tenant in self._sharing_tenants:
            scheduler.inflight = self.inflight
        base_bytes = stats.get(reg.ARRAY_BYTES_READ)
        base_dedup_pages = stats.get(reg.SAFS_DEDUP_PAGES)
        base_dedup_waits = stats.get(reg.SAFS_DEDUP_WAITS)
        try:
            return run.job.step()
        except IterationAborted as exc:
            run.aborted = exc
            return False
        finally:
            run.bytes_read += stats.get(reg.ARRAY_BYTES_READ) - base_bytes
            run.dedup_pages += stats.get(reg.SAFS_DEDUP_PAGES) - base_dedup_pages
            run.dedup_waits += stats.get(reg.SAFS_DEDUP_WAITS) - base_dedup_waits
            scheduler.tenant = None
            scheduler.inflight = None
            self.accountant.current = None

    def _deadline_abort(self, run: _Running) -> bool:
        """Cancel ``run`` at this barrier if its deadline is hopeless.

        Returns ``True`` when the job was cancelled (the caller
        finalizes it like any abort, keeping the partial result).
        """
        if not self._enforce_deadlines:
            return False
        deadline_s = self.tenants[run.arrival.tenant].deadline_s
        if deadline_s is None:
            return False
        now = run.job.clock
        reason = self.overload.deadline_unreachable(
            now=now,
            start=run.start,
            deadline=run.arrival.time + deadline_s,
            iterations=run.job.iteration,
            max_iterations=run.query.max_iterations,
            frontier_size=run.job.frontier_size,
        )
        if reason is None:
            return False
        run.aborted = run.job.cancel(f"deadline unreachable: {reason}")
        self.overload.record_deadline_abort(run.arrival, now, reason)
        self.telemetry.deadline_aborted += 1
        self._emit(
            "deadline-abort", run.arrival, now, reason=reason,
            iteration=run.job.iteration,
        )
        return True

    def _job_record(self, run: _Running) -> JobRecord:
        """``run``'s finished record; a completed output is deposited in
        the result cache (a copy: the program's arrays stay mutable, the
        cached vector must not)."""
        if run.aborted is None:
            result, values, reason = run.job.result(), run.query.values(), None
        else:
            result, values = run.aborted.partial, None
            reason = run.aborted.cause.reason
        finish = run.start + result.runtime
        record = _record(
            run.arrival, run.start, finish, result, ok=run.aborted is None,
            values=values, abort_reason=reason, degraded=run.degraded,
            bytes_read=run.bytes_read, dedup_pages=run.dedup_pages,
            dedup_waits=run.dedup_waits,
        )
        if record.ok and run.fingerprint is not None:
            self.result_cache.insert(
                run.scope_key,
                run.fingerprint,
                values=np.array(values, copy=True),
                iterations=result.iterations,
                app=run.arrival.app,
                now=finish,
                source_index=run.arrival.index,
            )
        return record

    def _finalize(self, arrival: Arrival, record: JobRecord) -> None:
        """Book one finished query — an engine job, or a result-cache
        answer (a finished query that ran no engine)."""
        tenant = record.tenant
        telemetry = self.telemetry
        self.admission.release(tenant)
        telemetry.free_at[tenant] = max(telemetry.free_at[tenant], record.finish_time)
        telemetry.records.append(record)
        report = telemetry.reports[tenant]
        report.jobs += 1
        report.latencies.append(record.latency)
        report.queue_waits.append(record.queue_wait)
        fields = {"latency": record.latency, "iterations": record.iterations}
        if record.result_cached:
            report.result_cache_hits += 1
            hits = self.result_cache.hits_by_tenant
            hits[tenant] = hits.get(tenant, 0) + 1
            fields["cached"] = True
        if record.ok:
            telemetry.completed += 1
            self._emit("completed", arrival, record.finish_time, record, **fields)
        else:
            telemetry.aborted += 1
            report.aborts += 1
            self._emit(
                "aborted", arrival, record.finish_time, record,
                reason=record.abort_reason, **fields,
            )

    def _write_serve_counters(self) -> None:
        """Tally the ``serve.*`` counters, once, after the last job — a
        mid-run add would leak into concurrent jobs' counter diffs (see
        :class:`ServeTelemetry`)."""
        stats = self.stats
        telemetry = self.telemetry
        completed = telemetry.completed
        aborted = telemetry.aborted
        stats.add(reg.SERVE_JOBS_ADMITTED, completed + aborted)
        stats.add(reg.SERVE_JOBS_COMPLETED, completed)
        stats.add(reg.SERVE_JOBS_ABORTED, aborted)
        stats.add(reg.SERVE_QUOTA_WAITS, self.admission.total_quota_waits())
        busy = self.accountant.busy_by_tenant()
        for name, report in sorted(telemetry.reports.items()):
            stats.add(f"{reg.SERVE_TENANT_JOBS}.{name}", report.jobs)
            stats.add(f"{reg.SERVE_TENANT_ABORTS}.{name}", report.aborts)
            stats.add(
                f"{reg.SERVE_TENANT_BUSY_SECONDS}.{name}", busy.get(name, 0.0)
            )
            stats.add(
                f"{reg.SERVE_TENANT_QUOTA_WAITS}.{name}",
                self.admission.quota_waits[name],
            )
        names = sorted(self.tenants)
        for part in self._counted:
            for name, value in part.counters(names).items():
                stats.add(name, value)
