"""Deterministic windowed per-tenant snapshots of a serving run.

The serving layer's ``serve.*`` counters are flushed once, after the
last job (the bit-identity contract), so by themselves they can only
say what a run *totalled* — never when the queue built up, when
brownout engaged, or which tenant's p99 fell off a cliff mid-run.  The
:class:`TimelineSampler` closes that gap: bound to a
:class:`~repro.serve.service.GraphService`, it divides the simulated
clock into fixed windows and, as the event loop advances, emits one
snapshot row per tenant per window:

- completed/aborted counts and windowed throughput (queries/s);
- windowed p50/p99 query latency, streamed through a fresh
  :class:`~repro.sim.stats.Histogram` per window (the same bucket
  layout — and therefore the same interpolation semantics — as the
  end-of-run ``serve.query_seconds`` histograms);
- per-tenant queue depth and quota occupancy, global queue depth;
- the overload state machine's current state and the unhealthy-device
  fraction.

Every row is also sampled into the shared
:class:`~repro.sim.stats.StatsCollector` as the registry-declared
gauge families (``serve.window_throughput_qps.<tenant>``, …).  Gauge
series live outside counter snapshots/diffs, so an armed sampler never
perturbs the byte-identical ``serve.*`` final counters — the same
``obs is not None`` zero-cost discipline as ``repro.obs.spans``.

Determinism: the sampler is driven purely by the service's DES clock.
The event-loop frontier is *not* monotone (a newly admitted job can
start earlier than the currently slowest runner), so the sampler keeps
a monotone high-water clock and closes window ``k`` the first time the
high-water crosses ``(k + 1) * interval_s``.  A completion observed
after its window already closed is attributed to the currently open
window — every completion is counted in exactly one window, which is
what makes windowed throughput sum exactly to the
:class:`~repro.serve.service.ServiceReport` totals (a pinned property
test).  Two runs of the same seed produce byte-identical snapshot
streams.
"""

import weakref
from typing import Dict, List

from repro.obs import registry
from repro.sim.stats import Histogram


class TimelineSampler:
    """Streams windowed per-tenant snapshots from one serve run.

    Construct, pass to :class:`~repro.serve.service.GraphService`
    (which calls :meth:`bind`), run :meth:`~GraphService.serve`, then
    read :attr:`snapshots` / :meth:`to_markdown` — or the gauge series
    the sampler mirrored into the service's stats collector.
    ``interval_s`` is the window length in simulated seconds; the
    default matches the serving benches' ~5 ms query latencies: a
    handful of queries per window per tenant.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        if interval_s <= 0.0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        #: Closed windows, one dict row per tenant per window, in order.
        self.snapshots: List[dict] = []
        self._service = None
        self._tenants: List[str] = []
        self._bounds = registry.histogram_bounds(
            registry.HIST_SERVE_QUERY_SECONDS
        )
        self._window = 0
        self._high_water = 0.0
        #: End of the currently open window.  The service's hot loop
        #: compares its frontier against this before paying for a
        #: :meth:`note_time` call — one float test per event-loop pass.
        self.next_boundary_s = self.interval_s
        self._completed: Dict[str, int] = {}
        self._aborted: Dict[str, int] = {}
        self._hists: Dict[str, Histogram] = {}

    @property
    def armed(self) -> bool:
        """Whether :meth:`bind` attached a service."""
        return self._service is not None

    def bind(self, service) -> None:
        """Attach to ``service`` (one sampler serves one run).  The
        service owns its sampler, so the sampler holds it weakly."""
        self._service = weakref.proxy(service)
        self._tenants = sorted(service.tenants)
        self._reset_window()

    def _reset_window(self) -> None:
        self._completed = {name: 0 for name in self._tenants}
        self._aborted = {name: 0 for name in self._tenants}
        self._hists = {name: Histogram(self._bounds) for name in self._tenants}

    # ------------------------------------------------------------------
    # Hooks (called by the service event loop)
    # ------------------------------------------------------------------

    def note_time(self, now: float) -> None:
        """Advance the monotone high-water clock to ``now`` (the event
        loop's frontier), closing every window it crossed."""
        if now > self._high_water:
            self._high_water = now
        while self._high_water >= (self._window + 1) * self.interval_s:
            self._close_window()

    def note_completion(
        self, tenant: str, finish_time: float, latency: float, ok: bool
    ) -> None:
        """Record one finished query.

        Windows are rolled forward to cover ``finish_time`` first; a
        late completion (finishing inside an already-closed window,
        which the non-monotone frontier permits) lands in the currently
        open window instead — attributed once, never dropped.
        """
        self.note_time(finish_time)
        if ok:
            self._completed[tenant] += 1
            self._hists[tenant].observe(latency)
        else:
            self._aborted[tenant] += 1

    def finish(self, end: float) -> None:
        """Close out the run at simulated ``end``: every window the run
        reached, plus the final partial window when it holds anything
        (or when the run was too short to close any window at all)."""
        if self._service is None:
            return
        self.note_time(end)
        if (
            self._window == 0
            or any(self._completed.values())
            or any(self._aborted.values())
        ):
            self._close_window()

    # ------------------------------------------------------------------
    # Window emission
    # ------------------------------------------------------------------

    def _close_window(self) -> None:
        # Lazy import: obs must stay importable without serve (and the
        # state tuple is only needed once a window actually closes).
        from repro.serve.overload import OVERLOAD_STATES

        service = self._service
        interval = self.interval_s
        start = self._window * interval
        end = start + interval
        waiting = service.telemetry.waiting
        depth = {name: 0 for name in self._tenants}
        for waiter in waiting:
            depth[waiter.arrival.tenant] += 1
        if service.overload is not None:
            state = service.overload.state
            level = float(OVERLOAD_STATES.index(state))
        else:
            state = "off"
            level = 0.0
        unhealthy = service._unhealthy_fraction(end)
        stats = service.stats
        # Partition-level cache gauge: each partitioned tenant's own
        # cumulative hit rate — the per-instance tallies, not the shared
        # counters, which aggregate every cache on the collector.
        partitions = service.cache_partitions
        stats.sample(registry.GAUGE_SERVE_BROWNOUT_STATE, end, level)
        stats.sample(registry.GAUGE_SERVE_UNHEALTHY_FRACTION, end, unhealthy)
        stats.sample(
            registry.GAUGE_SERVE_GLOBAL_QUEUE_DEPTH, end, float(len(waiting))
        )
        for name in self._tenants:
            hist = self._hists[name]
            row = {
                "window": self._window,
                "start_s": start,
                "end_s": end,
                "tenant": name,
                "completed": self._completed[name],
                "aborted": self._aborted[name],
                # Nominal-interval rate, also for the final partial
                # window (a time-varying divisor would make the last
                # row's rate incomparable with every other row's).
                "throughput_qps": self._completed[name] / interval,
                "latency_p50_s": hist.quantile(0.50),
                "latency_p99_s": hist.quantile(0.99),
                "queue_depth": depth[name],
                "quota_occupancy": (
                    service.admission.running[name]
                    / service.tenants[name].max_concurrent
                ),
                "brownout_state": state,
                "unhealthy_fraction": unhealthy,
            }
            self.snapshots.append(row)
            gauges = [
                (registry.GAUGE_SERVE_WINDOW_THROUGHPUT, row["throughput_qps"]),
                (registry.GAUGE_SERVE_WINDOW_P50, row["latency_p50_s"]),
                (registry.GAUGE_SERVE_WINDOW_P99, row["latency_p99_s"]),
                (registry.GAUGE_SERVE_QUEUE_DEPTH, float(depth[name])),
                (registry.GAUGE_SERVE_QUOTA_OCCUPANCY, row["quota_occupancy"]),
            ]
            partition = partitions.get(name)
            if partition is not None:
                gauges.append(
                    (registry.GAUGE_SERVE_CACHE_HIT_RATE, partition.hit_rate())
                )
            for gauge, value in gauges:
                stats.sample(f"{gauge}.{name}", end, value)
        self._window += 1
        self.next_boundary_s = (self._window + 1) * interval
        self._reset_window()

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_markdown(self) -> str:
        """The snapshot stream as a GitHub-flavoured Markdown table."""
        lines = [
            "| window | span (ms) | tenant | done | qps | p50 (ms) | "
            "p99 (ms) | queue | quota | state | unhealthy |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for row in self.snapshots:
            lines.append(
                f"| {row['window']} "
                f"| {row['start_s'] * 1e3:.1f}–{row['end_s'] * 1e3:.1f} "
                f"| {row['tenant']} "
                f"| {row['completed']} "
                f"| {row['throughput_qps']:.0f} "
                f"| {row['latency_p50_s'] * 1e3:.2f} "
                f"| {row['latency_p99_s'] * 1e3:.2f} "
                f"| {row['queue_depth']} "
                f"| {row['quota_occupancy']:.2f} "
                f"| {row['brownout_state']} "
                f"| {row['unhealthy_fraction']:.2f} |"
            )
        return "\n".join(lines)
