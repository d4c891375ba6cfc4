"""The metrics registry: every counter, histogram and gauge name.

Counter names used to be ad-hoc dotted strings scattered across ``sim/``
and ``safs/``; a typo'd name silently created a new counter and the
report downstream read zeros.  This module is the single source of truth:
production code references these constants, and the registry tests assert
that every counter a run produces is a member of :data:`KNOWN_COUNTERS`,
so an unknown name fails fast.

The module is deliberately dependency-free (pure constants) so any layer
— ``sim``, ``safs``, ``core`` — can import it without cycles.

Namespaces
----------

- ``engine.*`` — vertex execution (frontier, delivered edges, steals),
- ``io.*``     — SAFS request scheduling and merging,
- ``cache.*``  — the set-associative page cache,
- ``ssd.*`` / ``array.*`` — the device model and the striped array,
- ``msg.*`` / ``numa.*``  — message passing and NUMA accounting,
- ``faults.*`` / ``health.*`` / ``integrity.*`` / ``parity.*`` /
  ``scrub.*`` / ``write.*`` — the fault-injection and durability layers.
"""

# --- engine.* -----------------------------------------------------------
ENGINE_ACTIVE_VERTICES = "engine.active_vertices"
ENGINE_EDGES_DELIVERED = "engine.edges_delivered"
ENGINE_IO_REQUESTS = "engine.io_requests"
ENGINE_STOLEN_VERTICES = "engine.stolen_vertices"
ENGINE_VERTEX_PARTS = "engine.vertex_parts"
#: Async mode: priority rounds executed (sync runs never touch these).
ENGINE_ASYNC_ROUNDS = "engine.async_rounds"
#: Async mode: per-vertex residual/priority recomputations.
ENGINE_PRIORITY_UPDATES = "engine.priority_updates"
#: Async mode: the global residual sum, set at each round boundary (a
#: gauge-style counter like ``graph.compression_ratio``).
ENGINE_RESIDUAL = "engine.residual"
#: Async mode: eager in-round message flushes (deliveries that happened
#: before the round barrier because the buffer hit the flush threshold).
ENGINE_EAGER_FLUSHES = "engine.eager_flushes"

# --- io.* ---------------------------------------------------------------
IO_REQUESTS_ISSUED = "io.requests_issued"
IO_CPU_ISSUE_TIME = "io.cpu_issue_time"
IO_DISPATCHED = "io.dispatched"
IO_PAGES_REQUESTED = "io.pages_requested"
IO_PAGES_FETCHED = "io.pages_fetched"
IO_FULL_HITS = "io.full_hits"
IO_SIZE_1_PAGE = "io.size_1_page"
IO_SIZE_2_8_PAGES = "io.size_2_8_pages"
IO_SIZE_9_64_PAGES = "io.size_9_64_pages"
IO_SIZE_65PLUS_PAGES = "io.size_65plus_pages"

# --- cache.* ------------------------------------------------------------
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_INSERTIONS = "cache.insertions"
CACHE_EVICTIONS = "cache.evictions"
CACHE_INVALIDATIONS = "cache.invalidations"

# --- ssd.* / array.* ----------------------------------------------------
SSD_REQUESTS = "ssd.requests"
SSD_PAGES_READ = "ssd.pages_read"
SSD_BYTES_READ = "ssd.bytes_read"
ARRAY_REQUESTS = "array.requests"
ARRAY_PAGES_READ = "array.pages_read"
ARRAY_BYTES_READ = "array.bytes_read"

# --- graph.* ------------------------------------------------------------
#: Compressed edge-list bytes decoded (format v2 runs; v1 decodes nothing).
GRAPH_DECODE_BYTES = "graph.decode_bytes"
#: v1-equivalent bytes over actual on-SSD edge-file bytes (a set-once
#: gauge-style counter; 0 means the run used format v1).
GRAPH_COMPRESSION_RATIO = "graph.compression_ratio"

# --- msg.* / numa.* -----------------------------------------------------
MSG_SENT = "msg.sent"
MSG_DELIVERED = "msg.delivered"
MSG_ACTIVATIONS = "msg.activations"
NUMA_REMOTE_STEALS = "numa.remote_steals"
NUMA_REMOTE_MESSAGE_SHARE = "numa.remote_message_share"

# --- faults.* -----------------------------------------------------------
FAULTS_ABORTED_ITERATIONS = "faults.aborted_iterations"
FAULTS_DEAD_REQUESTS = "faults.dead_requests"
FAULTS_INVALIDATED_PAGES = "faults.invalidated_pages"
FAULTS_QUARANTINED_REQUESTS = "faults.quarantined_requests"
FAULTS_REROUTED_PAGES = "faults.rerouted_pages"
FAULTS_REROUTED_REQUESTS = "faults.rerouted_requests"
FAULTS_RETRIES = "faults.retries"
FAULTS_SPIKED_REQUESTS = "faults.spiked_requests"
FAULTS_STALL_TIME = "faults.stall_time"
FAULTS_STALLED_REQUESTS = "faults.stalled_requests"
FAULTS_TIMEOUTS = "faults.timeouts"
FAULTS_TRANSIENT_ERRORS = "faults.transient_errors"

# --- health.* / integrity.* / parity.* / scrub.* / write.* --------------
HEALTH_QUARANTINES = "health.quarantines"
HEALTH_DECLARED_FAILED = "health.declared_failed"
INTEGRITY_CHECKSUM_FAILURES = "integrity.checksum_failures"
PARITY_DOUBLE_FAULTS = "parity.double_faults"
PARITY_PAGES_RECONSTRUCTED = "parity.pages_reconstructed"
PARITY_PEER_READS = "parity.peer_reads"
PARITY_PEER_UNAVAILABLE = "parity.peer_unavailable"
PARITY_RECONSTRUCTIONS = "parity.reconstructions"
SCRUB_REBUILDS_STARTED = "scrub.rebuilds_started"
SCRUB_PAGES_READ = "scrub.pages_read"
SCRUB_PAGES_WRITTEN = "scrub.pages_written"
WRITE_BYTES = "write.bytes"
WRITE_HOST_PAGES = "write.host_pages"
WRITE_FLASH_PAGES_PROGRAMMED = "write.flash_pages_programmed"
WRITE_SECONDS = "write.seconds"

# --- safs.* (cross-query I/O sharing, see docs/io_sharing.md) -----------
#: Pages served by attaching to another query's in-flight device fetch
#: instead of re-issuing it (``InflightReadRegistry``).
SAFS_DEDUP_PAGES = "safs.dedup_pages"
#: Attach events (one per deduplicated miss run, however many pages).
SAFS_DEDUP_WAITS = "safs.dedup_waits"
#: Residual simulated seconds waiters spent for leaders' fetches to land.
SAFS_DEDUP_WAIT_SECONDS = "safs.dedup_wait_seconds"

# --- serve.* (the multi-tenant service layer) ---------------------------
SERVE_JOBS_ADMITTED = "serve.jobs_admitted"
SERVE_JOBS_COMPLETED = "serve.jobs_completed"
SERVE_JOBS_ABORTED = "serve.jobs_aborted"
SERVE_QUOTA_WAITS = "serve.quota_waits"
#: Overload control (see docs/overload.md): queries shed at the queue
#: caps, queued/running queries killed by deadline enforcement, and the
#: brownout state machine's activity over the run.
SERVE_SHED_TOTAL = "serve.shed_total"
SERVE_DEADLINE_ABORTS_TOTAL = "serve.deadline_aborts_total"
SERVE_BROWNOUT_TRANSITIONS = "serve.brownout_transitions"
SERVE_BROWNOUT_SECONDS = "serve.brownout_seconds"
SERVE_OVERLOAD_PEAK_QUEUE_DEPTH = "serve.overload_peak_queue_depth"
#: Result cache (see docs/io_sharing.md): repeat queries answered from a
#: cached output vector at admission time, misses that ran the engine,
#: outputs inserted, and entries dropped by TTL expiry or invalidation.
SERVE_RESULT_CACHE_HITS_TOTAL = "serve.result_cache_hits_total"
SERVE_RESULT_CACHE_MISSES_TOTAL = "serve.result_cache_misses_total"
SERVE_RESULT_CACHE_INSERTIONS_TOTAL = "serve.result_cache_insertions_total"
SERVE_RESULT_CACHE_EXPIRATIONS_TOTAL = "serve.result_cache_expirations_total"

#: Every counter name the stack may legitimately touch.
KNOWN_COUNTERS = frozenset(
    value
    for key, value in list(globals().items())
    if key.isupper() and isinstance(value, str) and "." in value
)

#: Counter *families*: per-tenant counters are named
#: ``<family>.<tenant>`` (tenant names are dot-free), so the family
#: prefix — not each member — is the registered constant, mirroring the
#: per-device histogram convention.
SERVE_TENANT_JOBS = "serve.tenant_jobs"
SERVE_TENANT_ABORTS = "serve.tenant_aborts"
SERVE_TENANT_BUSY_SECONDS = "serve.tenant_busy_seconds"
SERVE_TENANT_QUOTA_WAITS = "serve.tenant_quota_waits"
#: Overload-control families, per tenant: ``serve.shed.<tenant>`` counts
#: queue-cap sheds, ``serve.deadline_aborts.<tenant>`` counts queued
#: deadline drops plus running deadline cancellations, and
#: ``serve.brownout_degraded.<tenant>`` counts jobs admitted at reduced
#: fidelity during brownout.
SERVE_SHED = "serve.shed"
SERVE_DEADLINE_ABORTS = "serve.deadline_aborts"
SERVE_BROWNOUT_DEGRADED = "serve.brownout_degraded"
#: Result-cache hits per tenant (``serve.result_cache_hits.<tenant>``).
SERVE_RESULT_CACHE_HITS = "serve.result_cache_hits"

KNOWN_COUNTER_FAMILIES = frozenset(
    {
        SERVE_TENANT_JOBS,
        SERVE_TENANT_ABORTS,
        SERVE_TENANT_BUSY_SECONDS,
        SERVE_TENANT_QUOTA_WAITS,
        SERVE_SHED,
        SERVE_DEADLINE_ABORTS,
        SERVE_BROWNOUT_DEGRADED,
        SERVE_RESULT_CACHE_HITS,
    }
)

# --- histograms ---------------------------------------------------------
#: Per-device service latency (seconds); one histogram per device, named
#: ``ssd.service_seconds.<device name>``.
HIST_SSD_SERVICE_SECONDS = "ssd.service_seconds"
#: Requests already outstanding on the device queue at arrival.
HIST_SSD_QUEUE_DEPTH = "ssd.queue_depth"
#: Constituent requests folded into one merged request (§3.6).
HIST_IO_MERGE_RUN_LENGTH = "io.merge_run_length"
#: Retries spent before a per-device run completed.
HIST_IO_RETRIES_PER_REQUEST = "io.retries_per_request"
#: End-to-end query latency (arrival → completion, seconds); one
#: histogram per tenant, named ``serve.query_seconds.<tenant>``.
HIST_SERVE_QUERY_SECONDS = "serve.query_seconds"
#: Admission-queue wait (arrival → admission, seconds), per tenant.
HIST_SERVE_QUEUE_WAIT_SECONDS = "serve.queue_wait_seconds"
#: Queue age at the moment a query was shed (seconds), per tenant —
#: distinguishes shedding fresh arrivals (reject-newest) from killing
#: long-waiting work (by-priority / deadline expiry).
HIST_SERVE_SHED_AGE_SECONDS = "serve.shed_age_seconds"

#: Fixed ascending bucket upper bounds per histogram family; a value
#: above the last bound lands in the overflow bucket.
HISTOGRAM_BOUNDS = {
    HIST_SSD_SERVICE_SECONDS: (
        2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 5e-3, 2e-2,
    ),
    HIST_SSD_QUEUE_DEPTH: (0, 1, 2, 4, 8, 16, 32, 64),
    HIST_IO_MERGE_RUN_LENGTH: (1, 2, 4, 8, 16, 32, 64, 128),
    HIST_IO_RETRIES_PER_REQUEST: (0, 1, 2, 3, 4, 8),
    HIST_SERVE_QUERY_SECONDS: (
        1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0,
    ),
    HIST_SERVE_QUEUE_WAIT_SECONDS: (
        1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0,
    ),
    HIST_SERVE_SHED_AGE_SECONDS: (
        0.0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0,
    ),
}

# --- gauges (time series sampled at iteration barriers) -----------------
GAUGE_FRONTIER_SIZE = "engine.frontier_size"
GAUGE_CACHE_OCCUPANCY = "cache.occupancy_pages"
GAUGE_IN_FLIGHT = "io.in_flight_requests"

#: Gauges every armed *batch* run samples exactly once per iteration
#: barrier (the engine-loop invariant `tests/obs/test_spans.py` pins).
ENGINE_GAUGES = frozenset(
    {
        GAUGE_FRONTIER_SIZE,
        GAUGE_CACHE_OCCUPANCY,
        GAUGE_IN_FLIGHT,
    }
)

#: Serving-layer timeline gauges (see ``repro.obs.timeline``), sampled
#: at fixed DES-clock window boundaries by the armed timeline sampler.
#: The service-wide ones are plain gauges; the rest are per-tenant
#: *families* below.
GAUGE_SERVE_BROWNOUT_STATE = "serve.brownout_state_level"
GAUGE_SERVE_UNHEALTHY_FRACTION = "serve.unhealthy_device_fraction"
GAUGE_SERVE_GLOBAL_QUEUE_DEPTH = "serve.global_queue_depth"

KNOWN_GAUGES = ENGINE_GAUGES | frozenset(
    {
        GAUGE_SERVE_BROWNOUT_STATE,
        GAUGE_SERVE_UNHEALTHY_FRACTION,
        GAUGE_SERVE_GLOBAL_QUEUE_DEPTH,
    }
)

#: Per-cache-set hit rate, sampled as ``cache.set_hit_rate.<set index>``
#: when the observer is armed *and* the cache has per-set tracking
#: enabled.  A gauge *family* (like the per-device histograms): the
#: per-set names are derived, so the family prefix — not each member —
#: is the registered constant.
GAUGE_CACHE_SET_HIT_RATE = "cache.set_hit_rate"

#: Timeline gauge families, one series per tenant
#: (``<family>.<tenant>``), emitted at every closed sampling window:
#: completed-query throughput, windowed latency quantiles (streamed
#: through :class:`~repro.sim.stats.Histogram`), admission-queue depth
#: and quota occupancy (running jobs / ``max_concurrent``).
GAUGE_SERVE_WINDOW_THROUGHPUT = "serve.window_throughput_qps"
GAUGE_SERVE_WINDOW_P50 = "serve.window_latency_p50_s"
GAUGE_SERVE_WINDOW_P99 = "serve.window_latency_p99_s"
GAUGE_SERVE_QUEUE_DEPTH = "serve.queue_depth"
GAUGE_SERVE_QUOTA_OCCUPANCY = "serve.quota_occupancy"

#: Per-tenant cache-partition family (``<family>.<tenant>``), sampled at
#: timeline windows: the tenant partition's cumulative hit rate (see
#: docs/io_sharing.md).
GAUGE_SERVE_CACHE_HIT_RATE = "serve.cache_hit_rate"

KNOWN_GAUGE_FAMILIES = frozenset(
    {
        GAUGE_CACHE_SET_HIT_RATE,
        GAUGE_SERVE_WINDOW_THROUGHPUT,
        GAUGE_SERVE_WINDOW_P50,
        GAUGE_SERVE_WINDOW_P99,
        GAUGE_SERVE_QUEUE_DEPTH,
        GAUGE_SERVE_QUOTA_OCCUPANCY,
        GAUGE_SERVE_CACHE_HIT_RATE,
    }
)


def histogram_bounds(name: str):
    """Bucket bounds for histogram ``name``.

    Per-device histograms are named ``<family>.<device>``; the family's
    bounds apply.  Raises ``KeyError`` for a name outside the registry —
    the fail-fast behaviour the registry exists for.
    """
    if name in HISTOGRAM_BOUNDS:
        return HISTOGRAM_BOUNDS[name]
    family = name.rsplit(".", 1)[0]
    return HISTOGRAM_BOUNDS[family]


def unknown_counters(names) -> list:
    """The subset of ``names`` outside the registry, sorted.

    A name is known when it is in :data:`KNOWN_COUNTERS` directly or its
    ``<family>.<member>`` prefix is in :data:`KNOWN_COUNTER_FAMILIES`
    (the per-tenant counters).
    """
    unknown = set(names) - KNOWN_COUNTERS
    return sorted(
        name
        for name in unknown
        if name.rsplit(".", 1)[0] not in KNOWN_COUNTER_FAMILIES
    )


def unknown_gauges(names) -> list:
    """The subset of gauge-series ``names`` outside the registry, sorted.

    Mirrors :func:`unknown_counters` for the gauge namespace: a name is
    known when it is in :data:`KNOWN_GAUGES` directly or its
    ``<family>.<member>`` prefix is in :data:`KNOWN_GAUGE_FAMILIES`
    (the per-tenant and per-cache-set series).
    """
    unknown = set(names) - KNOWN_GAUGES
    return sorted(
        name
        for name in unknown
        if name.rsplit(".", 1)[0] not in KNOWN_GAUGE_FAMILIES
    )
