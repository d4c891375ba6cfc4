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
  (a query waiting longer than ``starvation_bound_s`` jumps the queue);
- ``deadline`` — earliest deadline first over each tenant's
  ``deadline_s``.

A single-job service run replays the batch engine's code path operation
for operation, so its simulated counters are bit-identical to the
equivalent ``repro run`` — the serving tests pin this.

Overload control (``ServiceConfig.overload``, see ``docs/overload.md``)
bounds the admission queues, sheds or deadline-aborts infeasible work,
and brownouts the service under sustained pressure.  With the knob left
``None`` the event loop runs the exact pre-overload code path, so the
bit-identity guarantees above are untouched.
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
from repro.obs.slo import SLOConfig, SLOTracker
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.io_scheduler import InflightReadRegistry
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.serve.admission import AdmissionController
from repro.serve.cache_sizing import CacheRebalanceConfig, CacheRebalancer
from repro.serve.overload import OverloadConfig, OverloadController, ShedRecord
from repro.serve.queries import Query, QueryFactory
from repro.serve.results import (
    RESULT_SCOPE_SHARED,
    ResultCache,
    ResultCacheConfig,
)
from repro.serve.tenants import TenantAccountant, TenantSpec
from repro.serve.traffic import Arrival
from repro.sim.cost_model import CostModel
from repro.sim.stats import Histogram
from repro.sim.faults import FaultPlan, FaultPolicy
from repro.sim.health import HealthPolicy
from repro.sim.parity import ParityConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

SCHEDULING_POLICIES = ("fifo", "fair", "deadline")


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (engine knobs mirror the bench harness)."""

    cache_bytes: int = 1 << 20
    page_size: int = 4096
    num_threads: int = 32
    range_shift: int = 8
    #: Admission scheduling policy: "fifo", "fair" or "deadline".
    policy: str = "fair"
    #: Fair mode: a query waiting this long (simulated seconds) is
    #: admitted ahead of any share comparison — the no-starvation bound.
    starvation_bound_s: float = 0.05
    #: Iteration cap for "pr" queries ("pr30" always runs the paper's 30).
    pr_iterations: int = 5
    #: k for "kcore" queries.
    kcore_k: int = 4
    #: Overload control (bounded queues, shedding, deadline enforcement,
    #: brownout); ``None`` keeps the exact pre-overload event loop.
    overload: Optional[OverloadConfig] = None
    #: Cross-query I/O sharing (see docs/io_sharing.md).  All three
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
    #: Simulated cost a result-cache hit charges the tenant.
    result_cache_cost_s: float = 5e-5
    #: Adaptive tenant cache sizing: periodically move set capacity
    #: between tenant cache partitions toward the best marginal hit
    #: rate (requires at least two tenants with ``cache_bytes``).
    cache_rebalance: bool = False
    #: Rebalance decision interval (simulated seconds).
    cache_rebalance_interval_s: float = 0.01
    #: Per-partition capacity floor, as a fraction of initial capacity.
    cache_rebalance_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.policy!r} "
                f"(one of {', '.join(SCHEDULING_POLICIES)})"
            )
        if self.starvation_bound_s <= 0.0:
            raise ValueError("starvation_bound_s must be positive")
        if self.pr_iterations < 1:
            raise ValueError("pr_iterations must be at least 1")
        if self.kcore_k < 1:
            raise ValueError("kcore_k must be at least 1")
        if self.result_cache_ttl_s is not None and self.result_cache_ttl_s <= 0.0:
            raise ValueError("result_cache_ttl_s must be positive")
        if self.result_cache_cost_s < 0.0:
            raise ValueError("result_cache_cost_s must be non-negative")
        if self.cache_rebalance_interval_s <= 0.0:
            raise ValueError("cache_rebalance_interval_s must be positive")
        if not 0.0 < self.cache_rebalance_floor <= 1.0:
            raise ValueError("cache_rebalance_floor must lie in (0, 1]")


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
    #: cache's and rebalancer's summaries; ``None`` when every sharing
    #: feature was off (see docs/io_sharing.md).
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
    engine: GraphEngine
    job: EngineJob
    aborted: Optional[IterationAborted] = None
    degraded: bool = False
    deadline_aborted: bool = False
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
    #: Revealed-but-unadmitted queries, in reveal order.
    waiting: List["_Waiting"] = field(default_factory=list)
    #: Admitted, unfinished jobs.
    running: List["_Running"] = field(default_factory=list)
    #: Finished-query records in finish order (result-cache answers are
    #: appended here directly, without ever entering ``running``).
    records: List[JobRecord] = field(default_factory=list)
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
        undirected_image: Optional[GraphImage] = None,
        array_config: Optional[SSDArrayConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
        parity: Optional[ParityConfig] = None,
        cost_model: Optional[CostModel] = None,
        observer=None,
        timeline=None,
        slo_config: Optional[SLOConfig] = None,
        source: Optional[int] = None,
    ) -> None:
        if not tenants:
            raise ValueError("a service needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.config = config or ServiceConfig()
        self.tenants: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        array = SSDArray(
            array_config or SSDArrayConfig(),
            fault_plan=fault_plan,
            parity=parity,
        )
        self.safs = SAFS(
            array,
            SAFSConfig(
                page_size=self.config.page_size,
                cache_bytes=self.config.cache_bytes,
            ),
            stats=array.stats,
            fault_policy=fault_policy,
            health_policy=health_policy,
        )
        self.stats = self.safs.stats
        self.cost_model = cost_model
        self._engine_config = EngineConfig(
            mode=ExecutionMode.SEMI_EXTERNAL,
            num_threads=self.config.num_threads,
            range_shift=self.config.range_shift,
        )
        self.queries = QueryFactory(
            image,
            undirected_image=undirected_image,
            pr_iterations=self.config.pr_iterations,
            kcore_k=self.config.kcore_k,
            source=source,
        )
        self.admission = AdmissionController(self.tenants)
        #: Overload controller; ``None`` = the pre-overload event loop.
        self.overload: Optional[OverloadController] = (
            OverloadController(self.config.overload, self.tenants)
            if self.config.overload is not None
            else None
        )
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
            SLOTracker(self.tenants, slo_config)
            if any(spec.slo_objectives for spec in tenants)
            else None
        )
        #: Live event-loop accumulators; set by :meth:`serve`.
        self.telemetry: Optional[ServeTelemetry] = None
        #: Per-tenant cache partitions (only tenants that asked for one).
        self.cache_partitions: Dict[str, PageCache] = {}
        for spec in tenants:
            if spec.cache_bytes is not None:
                self.cache_partitions[spec.name] = PageCache(
                    PageCacheConfig(
                        capacity_bytes=spec.cache_bytes,
                        page_size=self.config.page_size,
                        associativity=self.safs.config.cache_associativity,
                        eviction=self.safs.config.cache_eviction,
                    ),
                    self.stats,
                )
        if self.cache_partitions:
            self.safs.scheduler.tenant_caches = self.cache_partitions
        # Cross-query I/O sharing (docs/io_sharing.md); every handle is
        # None when its feature is off, keeping the legacy event loop.
        self.inflight: Optional[InflightReadRegistry] = (
            InflightReadRegistry() if self.config.share_reads else None
        )
        self.result_cache: Optional[ResultCache] = (
            ResultCache(
                ResultCacheConfig(
                    ttl_s=self.config.result_cache_ttl_s,
                    hit_cost_s=self.config.result_cache_cost_s,
                )
            )
            if self.config.result_cache
            else None
        )
        self.rebalancer: Optional[CacheRebalancer] = None
        if self.config.cache_rebalance:
            if len(self.cache_partitions) < 2:
                raise ValueError(
                    "cache_rebalance needs at least two tenants with "
                    "cache_bytes partitions to move capacity between"
                )
            self.rebalancer = CacheRebalancer(
                self.cache_partitions,
                CacheRebalanceConfig(
                    interval_s=self.config.cache_rebalance_interval_s,
                    floor_fraction=self.config.cache_rebalance_floor,
                ),
                stats=self.stats,
            )

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def serve(self, trace: Sequence[Arrival]) -> ServiceReport:
        """Run ``trace`` to completion and report.

        One call per service instance: the report's counters are written
        into the shared stats at the end (never mid-run, so per-job
        counter diffs stay unperturbed).
        """
        for earlier, later in zip(trace, trace[1:]):
            if later.time < earlier.time:
                raise ValueError("the trace must be sorted by arrival time")
        pending = deque(trace)
        telemetry = ServeTelemetry(
            reports={name: TenantReport(tenant=name) for name in self.tenants}
        )
        self.telemetry = telemetry
        waiting = telemetry.waiting
        running = telemetry.running
        reports = telemetry.reports
        records = telemetry.records
        sheds: List[ShedRecord] = []
        free_at: Dict[str, float] = {name: 0.0 for name in self.tenants}
        overload = self.overload
        observer = self.observer
        timeline = self.timeline
        rebalancer = self.rebalancer

        while pending or waiting or running:
            if running:
                frontier = min(r.job.clock for r in running)
            elif waiting:
                # Every waiter is admissible (a blocked waiter implies a
                # running job of its tenant), so admission below starts
                # at least one job.
                frontier = -math.inf
            else:
                frontier = pending[0].time
            while pending and pending[0].time <= frontier:
                arrival = pending.popleft()
                if observer is not None:
                    observer.note_query_event(
                        "queued", arrival.time, _query_context(arrival)
                    )
                if overload is None:
                    waiting.append(_Waiting(arrival))
                else:
                    self._reveal(arrival, waiting, sheds)
            if overload is not None and math.isfinite(frontier):
                if overload.config.enforce_deadlines:
                    self._expire_waiting(waiting, frontier, sheds)
                if overload.sample_due(frontier):
                    self._observe_pressure(frontier, waiting)
            # The boundary compare keeps the hot loop at one float test
            # per pass; the sampler call only happens when a window
            # actually closes (plus once per completion, in _finalize).
            if (
                timeline is not None
                and frontier >= timeline.next_boundary_s
                and math.isfinite(frontier)
            ):
                timeline.note_time(frontier)
            # Same hot-loop discipline for the cache rebalancer: one
            # float compare per pass, a decision only at its boundary.
            if (
                rebalancer is not None
                and frontier >= rebalancer.next_boundary_s
                and math.isfinite(frontier)
            ):
                rebalancer.note_time(frontier)
            self._admit(waiting, running, free_at, frontier, sheds)
            if not running:
                continue
            current = min(running, key=lambda r: (r.job.clock, r.arrival.index))
            alive = self._step(current)
            if alive and overload is not None:
                alive = not self._maybe_deadline_abort(current)
            if not alive:
                running.remove(current)
                record = self._finalize(current, free_at, reports)
                records.append(record)
                if record.ok:
                    telemetry.completed += 1
                else:
                    telemetry.aborted += 1
                    if current.deadline_aborted:
                        telemetry.deadline_aborted += 1

        for name, report in reports.items():
            report.quota_waits = self.admission.quota_waits[name]
        for name, busy in self.accountant.busy_by_tenant().items():
            if name in reports:
                reports[name].busy_seconds = busy
        duration = max((r.finish_time for r in records), default=0.0)
        summary = None
        end = duration
        if overload is not None:
            if overload.events:
                end = max(end, overload.events[-1].time)
            overload.finish(end)
            summary = overload.summary()
            for name, report in reports.items():
                report.shed = overload.sheds.get(name, 0)
                report.deadline_aborts = overload.deadline_aborts.get(name, 0)
                report.degraded = overload.degraded_jobs.get(name, 0)
        if self.slo is not None:
            self.slo.finish(end)
        if timeline is not None:
            timeline.finish(end)
        self._write_serve_counters(telemetry)
        return ServiceReport(
            policy=self.config.policy,
            offered=len(trace),
            completed=telemetry.completed,
            aborted=telemetry.aborted,
            quota_waits=self.admission.total_quota_waits(),
            duration_s=duration,
            tenants=reports,
            records=records,
            sheds=sheds,
            deadline_aborts=telemetry.deadline_aborted,
            overload=summary,
            slo=self.slo.summary() if self.slo is not None else None,
            sharing=self._sharing_summary(),
        )

    def _sharing_summary(self) -> Optional[dict]:
        """The cross-query sharing outcome, ``None`` when all off.

        Reads the (already flushed) dedup counters and the result
        cache's / rebalancer's local tallies; pure reads, so the
        bit-identical counter snapshot is untouched.
        """
        if (
            self.inflight is None
            and self.result_cache is None
            and self.rebalancer is None
        ):
            return None
        stats = self.stats
        return {
            "share_reads": self.inflight is not None,
            "dedup_pages": stats.get(reg.SAFS_DEDUP_PAGES),
            "dedup_waits": stats.get(reg.SAFS_DEDUP_WAITS),
            "dedup_wait_seconds": stats.get(reg.SAFS_DEDUP_WAIT_SECONDS),
            "result_cache": (
                self.result_cache.summary()
                if self.result_cache is not None
                else None
            ),
            "rebalancer": (
                self.rebalancer.summary()
                if self.rebalancer is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # Overload control (every hook below requires self.overload)
    # ------------------------------------------------------------------

    def _reveal(
        self,
        arrival: Arrival,
        waiting: List[_Waiting],
        sheds: List[ShedRecord],
    ) -> None:
        """Queue one revealed arrival, shedding if a cap would burst.

        The tenant cap is checked first (a tenant may never crowd its
        own queue past its cap), then the global cap; the victim — the
        newcomer or a queued query, per the shed policy — is decided
        purely from the queue contents, so it replays bit-identically.
        """
        overload = self.overload
        newcomer = _Waiting(arrival)
        mine = [w for w in waiting if w.arrival.tenant == arrival.tenant]
        victim = None
        if len(mine) >= overload.tenant_cap(arrival.tenant):
            victim = overload.choose_victim(mine + [newcomer], self._order_key)
        elif len(waiting) >= overload.config.global_queue_cap:
            victim = overload.choose_victim(
                waiting + [newcomer], self._order_key
            )
        if victim is None:
            waiting.append(newcomer)
        elif victim is newcomer:
            sheds.append(self._shed(arrival, arrival.time, "queue-cap"))
        else:
            waiting.remove(victim)
            waiting.append(newcomer)
            sheds.append(self._shed(victim.arrival, arrival.time, "queue-cap"))
        depth = {name: 0 for name in self.tenants}
        for waiter in waiting:
            depth[waiter.arrival.tenant] += 1
        overload.note_depth(len(waiting), depth)

    def _expire_waiting(
        self, waiting: List[_Waiting], now: float, sheds: List[ShedRecord]
    ) -> None:
        """Drop queued queries whose deadline already passed at ``now``:
        admitting them can only burn array bandwidth on a guaranteed
        miss, the exact waste overload control exists to avoid."""
        expired = []
        for waiter in waiting:
            deadline_s = self.tenants[waiter.arrival.tenant].deadline_s
            if deadline_s is not None and now > waiter.arrival.time + deadline_s:
                expired.append(waiter)
        for waiter in expired:
            waiting.remove(waiter)
            sheds.append(self._shed(waiter.arrival, now, "deadline-expired"))

    def _shed(self, arrival: Arrival, shed_time: float, reason: str) -> ShedRecord:
        record = self.overload.record_shed(arrival, shed_time, reason)
        # Histograms live outside counter snapshots/diffs (see
        # _finalize), so observing mid-run is bit-identity safe.
        self.stats.observe(
            f"{reg.HIST_SERVE_SHED_AGE_SECONDS}.{arrival.tenant}",
            record.age,
            reg.histogram_bounds(reg.HIST_SERVE_SHED_AGE_SECONDS),
        )
        if self.slo is not None:
            self.slo.record(arrival.tenant, shed_time, "shed")
        if self.observer is not None:
            self.observer.note_query_event(
                "shed",
                shed_time,
                _query_context(arrival),
                reason=reason,
                age=record.age,
            )
        return record

    def _observe_pressure(self, now: float, waiting: List[_Waiting]) -> None:
        """Feed the overload detector one sample at simulated ``now``."""
        mean_wait = 0.0
        if waiting:
            mean_wait = sum(now - w.arrival.time for w in waiting) / len(waiting)
        self.overload.observe(
            now, len(waiting), mean_wait, self._unhealthy_fraction(now)
        )

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

    def _maybe_deadline_abort(self, run: _Running) -> bool:
        """Cancel ``run`` at this barrier if its deadline is hopeless.

        Returns ``True`` when the job was cancelled (the caller
        finalizes it like any abort, keeping the partial result).
        """
        overload = self.overload
        if not (
            overload.config.enforce_deadlines
            and overload.config.deadline_abort_running
        ):
            return False
        deadline_s = self.tenants[run.arrival.tenant].deadline_s
        if deadline_s is None:
            return False
        now = run.job.clock
        reason = overload.deadline_unreachable(
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
        run.deadline_aborted = True
        overload.record_deadline_abort(run.arrival, now, reason)
        if self.observer is not None:
            self.observer.note_query_event(
                "deadline-abort",
                now,
                _query_context(run.arrival),
                reason=reason,
                iteration=run.job.iteration,
            )
        return True

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _order_key(self, waiter: _Waiting):
        arrival = waiter.arrival
        spec = self.tenants[arrival.tenant]
        if self.config.policy == "fifo":
            return (arrival.time, arrival.index)
        if self.config.policy == "deadline":
            deadline = (
                arrival.time + spec.deadline_s
                if spec.deadline_s is not None
                else math.inf
            )
            return (deadline, arrival.time, arrival.index)
        share = self.accountant.usage[arrival.tenant] / spec.weight
        return (share, arrival.time, arrival.index)

    def _admit(
        self,
        waiting: List[_Waiting],
        running: List[_Running],
        free_at: Dict[str, float],
        now: float,
        sheds: Optional[List[ShedRecord]] = None,
    ) -> None:
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
                    w
                    for w in candidates
                    if now - w.arrival.time >= self.config.starvation_bound_s
                ]
                if starved:
                    pick = min(
                        starved, key=lambda w: (w.arrival.time, w.arrival.index)
                    )
            if pick is None:
                pick = min(candidates, key=self._order_key)
            waiting.remove(pick)
            if (
                self.overload is not None
                and self.overload.config.enforce_deadlines
            ):
                # A quota-blocked pick starts at free_at, which can sit
                # far past the frontier the expiry sweep sees (one slow
                # job can jump a tenant's free_at by whole seconds);
                # re-check the deadline against the actual start time so
                # a guaranteed miss is shed instead of started.
                arrival = pick.arrival
                deadline_s = self.tenants[arrival.tenant].deadline_s
                start = (
                    max(arrival.time, free_at[arrival.tenant])
                    if pick.blocked_noted
                    else arrival.time
                )
                if (
                    deadline_s is not None
                    and start > arrival.time + deadline_s
                ):
                    sheds.append(
                        self._shed(arrival, start, "deadline-expired")
                    )
                    continue
            self._start(pick, running, free_at)

    def _start(
        self,
        waiter: _Waiting,
        running: List[_Running],
        free_at: Dict[str, float],
    ) -> None:
        arrival = waiter.arrival
        tenant = arrival.tenant
        # A query that was ever blocked starts when its slot freed, not
        # at its (earlier) arrival; a never-blocked query starts on
        # arrival.
        if waiter.blocked_noted:
            start = max(arrival.time, free_at[tenant])
        else:
            start = arrival.time
        self.admission.admit(tenant)
        degraded = False
        build_kwargs: dict = {}
        if self.overload is not None and self.overload.degrades(tenant):
            cfg = self.overload.config
            build_kwargs = {
                "pr_iterations": cfg.brownout_pr_iterations,
                "pr_tolerance_factor": cfg.brownout_tolerance_factor,
            }
            # Only PageRank has a fidelity dial today; traversals run
            # full-fidelity even in brownout (they are shed or aborted
            # instead), so only mark what actually changed.
            degraded = arrival.app in ("pr", "pr30")
        # Result cache: fingerprint the query the build would produce
        # (the *effective*, post-brownout parameters — a degraded run
        # can only ever be answered by an equally degraded deposit) and
        # answer a repeat at admission time without running an engine.
        fingerprint: Optional[str] = None
        scope_key = RESULT_SCOPE_SHARED
        if self.result_cache is not None:
            policy = self.tenants[tenant].result_cache
            if policy != "off":
                if policy == "private":
                    scope_key = tenant
                fingerprint = self.queries.fingerprint(
                    arrival.app, **build_kwargs
                )
                cached = self.result_cache.lookup(scope_key, fingerprint, start)
                if cached is not None:
                    if degraded:
                        self.overload.note_degraded(tenant)
                    self.admission.release(tenant)
                    self._finalize_cached(
                        arrival, start, cached, free_at, degraded
                    )
                    return
        query = self.queries.build(arrival.app, **build_kwargs)
        if degraded:
            self.overload.note_degraded(tenant)
        engine = GraphEngine(
            query.image,
            safs=self.safs,
            config=self._engine_config,
            cost_model=self.cost_model,
        )
        span_context = None
        if self.observer is not None:
            from repro.obs.spans import arm

            arm(engine, self.observer)
            span_context = _query_context(arrival)
            self.observer.note_query_event(
                "admitted",
                start,
                span_context,
                queue_wait=start - arrival.time,
                degraded=degraded,
            )
        job = engine.start_job(
            query.program,
            initial_active=query.initial_active,
            max_iterations=query.max_iterations,
            start_time=start,
            span_context=span_context,
        )
        running.append(
            _Running(
                arrival=arrival,
                start=start,
                query=query,
                engine=engine,
                job=job,
                degraded=degraded,
                fingerprint=fingerprint,
                scope_key=scope_key,
            )
        )

    def _finalize_cached(
        self,
        arrival: Arrival,
        start: float,
        cached,
        free_at: Dict[str, float],
        degraded: bool,
    ) -> None:
        """Book a result-cache answer: all of ``_finalize``'s telemetry,
        none of the engine.  The query holds its tenant slot only for
        the (near-zero) hit cost, reads zero bytes, and reuses the
        deposited output vector verbatim."""
        tenant = arrival.tenant
        finish = start + self.config.result_cache_cost_s
        free_at[tenant] = max(free_at[tenant], finish)
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
        record = JobRecord(
            tenant=tenant,
            app=arrival.app,
            arrival_time=arrival.time,
            start_time=start,
            finish_time=finish,
            ok=True,
            iterations=cached.iterations,
            result=result,
            values=cached.values,
            degraded=degraded,
            index=arrival.index,
            result_cached=True,
        )
        telemetry = self.telemetry
        telemetry.records.append(record)
        telemetry.completed += 1
        self.result_cache.hits_by_tenant[tenant] = (
            self.result_cache.hits_by_tenant.get(tenant, 0) + 1
        )
        report = telemetry.reports[tenant]
        report.jobs += 1
        report.result_cache_hits += 1
        report.latencies.append(record.latency)
        report.queue_waits.append(record.queue_wait)
        self.stats.observe(
            f"{reg.HIST_SERVE_QUERY_SECONDS}.{tenant}",
            record.latency,
            reg.histogram_bounds(reg.HIST_SERVE_QUERY_SECONDS),
        )
        self.stats.observe(
            f"{reg.HIST_SERVE_QUEUE_WAIT_SECONDS}.{tenant}",
            record.queue_wait,
            reg.histogram_bounds(reg.HIST_SERVE_QUEUE_WAIT_SECONDS),
        )
        if self.slo is not None:
            self.slo.record(tenant, finish, "completed", record.latency)
        if self.timeline is not None:
            self.timeline.note_completion(tenant, finish, record.latency, True)
        if self.observer is not None:
            context = _query_context(arrival)
            self.observer.note_query_event(
                "admitted",
                start,
                context,
                queue_wait=start - arrival.time,
                degraded=degraded,
                cached=True,
            )
            self.observer.note_query_event(
                "completed",
                finish,
                context,
                latency=record.latency,
                iterations=cached.iterations,
                cached=True,
            )

    # ------------------------------------------------------------------
    # Job stepping
    # ------------------------------------------------------------------

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
        if self.inflight is not None and self.tenants[tenant].share_reads:
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
            run.dedup_pages += (
                stats.get(reg.SAFS_DEDUP_PAGES) - base_dedup_pages
            )
            run.dedup_waits += (
                stats.get(reg.SAFS_DEDUP_WAITS) - base_dedup_waits
            )
            scheduler.tenant = None
            scheduler.inflight = None
            self.accountant.current = None

    def _finalize(
        self,
        run: _Running,
        free_at: Dict[str, float],
        reports: Dict[str, TenantReport],
    ) -> JobRecord:
        tenant = run.arrival.tenant
        self.admission.release(tenant)
        if run.aborted is None:
            result = run.job.result()
            ok = True
            reason = None
        else:
            result = run.aborted.partial
            ok = False
            reason = run.aborted.cause.reason
        finish = run.start + result.runtime
        free_at[tenant] = max(free_at[tenant], finish)
        record = JobRecord(
            tenant=tenant,
            app=run.arrival.app,
            arrival_time=run.arrival.time,
            start_time=run.start,
            finish_time=finish,
            ok=ok,
            iterations=result.iterations,
            result=result,
            values=run.query.values() if ok else None,
            abort_reason=reason,
            degraded=run.degraded,
            index=run.arrival.index,
            bytes_read=run.bytes_read,
            dedup_pages=run.dedup_pages,
            dedup_waits=run.dedup_waits,
        )
        if ok and self.result_cache is not None and run.fingerprint is not None:
            # Deposit a copy: the program's arrays stay mutable, the
            # cached vector must not.
            self.result_cache.insert(
                run.scope_key,
                run.fingerprint,
                values=np.array(record.values, copy=True),
                iterations=result.iterations,
                app=run.arrival.app,
                now=finish,
                source_index=run.arrival.index,
            )
        report = reports[tenant]
        report.jobs += 1
        if not ok:
            report.aborts += 1
        report.latencies.append(record.latency)
        report.queue_waits.append(record.queue_wait)
        # Histograms live outside counter snapshots/diffs, so recording
        # them mid-run never perturbs any job's counter bit-identity.
        self.stats.observe(
            f"{reg.HIST_SERVE_QUERY_SECONDS}.{tenant}",
            record.latency,
            reg.histogram_bounds(reg.HIST_SERVE_QUERY_SECONDS),
        )
        self.stats.observe(
            f"{reg.HIST_SERVE_QUEUE_WAIT_SECONDS}.{tenant}",
            record.queue_wait,
            reg.histogram_bounds(reg.HIST_SERVE_QUEUE_WAIT_SECONDS),
        )
        if self.slo is not None:
            self.slo.record(
                tenant,
                finish,
                "completed" if ok else "aborted",
                record.latency,
            )
        if self.timeline is not None:
            self.timeline.note_completion(tenant, finish, record.latency, ok)
        if self.observer is not None:
            fields = {"latency": record.latency, "iterations": result.iterations}
            if not ok:
                fields["reason"] = reason
            self.observer.note_query_event(
                "completed" if ok else "aborted",
                finish,
                _query_context(run.arrival),
                **fields,
            )
        return record

    def _write_serve_counters(self, telemetry: ServeTelemetry) -> None:
        """Tally the service's own counters, once, after the last job —
        a mid-run add would leak into concurrent jobs' counter diffs.
        Everything flushed here comes from the :class:`ServeTelemetry`
        accumulators the timeline sampler reads mid-run; reading them
        early never moves a counter, so an armed sampler's final
        ``serve.*`` snapshot is byte-identical to a disarmed run's."""
        stats = self.stats
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
        if self.result_cache is not None:
            cache = self.result_cache
            stats.add(reg.SERVE_RESULT_CACHE_HITS_TOTAL, cache.hits)
            stats.add(reg.SERVE_RESULT_CACHE_MISSES_TOTAL, cache.misses)
            stats.add(reg.SERVE_RESULT_CACHE_INSERTIONS_TOTAL, cache.insertions)
            stats.add(
                reg.SERVE_RESULT_CACHE_EXPIRATIONS_TOTAL, cache.expirations
            )
            for name in sorted(self.tenants):
                stats.add(
                    f"{reg.SERVE_RESULT_CACHE_HITS}.{name}",
                    cache.hits_by_tenant.get(name, 0),
                )
        if self.rebalancer is not None:
            stats.add(reg.SERVE_CACHE_REBALANCES, self.rebalancer.moves)
            stats.add(reg.SERVE_CACHE_PAGES_MOVED, self.rebalancer.pages_moved)
            stats.add(
                reg.SERVE_CACHE_REBALANCE_EVICTIONS, self.rebalancer.evictions
            )
        if self.overload is not None:
            overload = self.overload
            stats.add(reg.SERVE_SHED_TOTAL, sum(overload.sheds.values()))
            stats.add(
                reg.SERVE_DEADLINE_ABORTS_TOTAL,
                sum(overload.deadline_aborts.values()),
            )
            stats.add(reg.SERVE_BROWNOUT_TRANSITIONS, overload.transitions)
            stats.add(reg.SERVE_BROWNOUT_SECONDS, overload.brownout_seconds)
            stats.add(
                reg.SERVE_OVERLOAD_PEAK_QUEUE_DEPTH, overload.peak_queue_depth
            )
            for name in sorted(self.tenants):
                stats.add(f"{reg.SERVE_SHED}.{name}", overload.sheds.get(name, 0))
                stats.add(
                    f"{reg.SERVE_DEADLINE_ABORTS}.{name}",
                    overload.deadline_aborts.get(name, 0),
                )
                stats.add(
                    f"{reg.SERVE_BROWNOUT_DEGRADED}.{name}",
                    overload.degraded_jobs.get(name, 0),
                )
