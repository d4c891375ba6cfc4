"""Dispatch of merged requests to the SSD array through the page cache.

This is the heart of SAFS's data path: for every merged page span it
probes the page cache, fetches only the missing runs from the striped
device queues, installs the fetched pages, and reports the virtual time at
which the whole span's data is available in the cache.

The scheduler never copies data — it reports *when* a span is cached; the
engine then decodes the requested byte ranges straight out of the file
image, mirroring the user-task interface running computation directly
against cached pages.
"""

from typing import Dict, List, Optional, Tuple

from repro.obs import registry as reg
from repro.safs.integrity import IntegrityMap
from repro.safs.page import SAFSFile, flash_pages_per_safs_page
from repro.safs.page_cache import PageCache
from repro.sim.cost_model import CostModel
from repro.sim.faults import DEFAULT_FAULT_POLICY, FaultPolicy, UnrecoverableIOError
from repro.sim.ssd import FLASH_PAGE_SIZE
from repro.sim.ssd_array import SSDArray
from repro.sim.stats import StatsCollector


class InflightReadRegistry:
    """Cross-query in-flight read deduplication (docs/io_sharing.md).

    Records every device fetch the scheduler issues as ``(file_id,
    flash_first, flash_count) -> completion_time``.  When a later
    dispatch — typically another tenant's job, whose cache partition
    missed on pages a concurrent job is already fetching — requests the
    same extent while the original fetch is still outstanding on the
    simulated clock, :meth:`attach` returns the leader's completion
    time: the follower waits out the residual (``max(arrival, original
    completion)``) instead of re-issuing the device request.

    Failure semantics: only *successful* fetches are recorded.  A leader
    whose fetch raises :class:`UnrecoverableIOError` never registers the
    extent, so the next requester re-issues the read and drives the full
    retry/reroute path itself — waiters are woken into the retry path,
    never left hanging on a fetch that will not land.  (Recoverable
    faults are invisible here: retries, timeouts and rerouting are
    folded into the leader's completion time, which is exactly what the
    waiter is charged.)

    Purely simulated-clock state: the registry never touches the stats
    collector, so an attached-but-unused registry leaves every counter
    stream bit-identical.
    """

    def __init__(self) -> None:
        #: (file_id, flash_first, flash_count) -> completion time of the
        #: fetch currently in flight for that extent.
        self._inflight: Dict[Tuple[int, int, int], float] = {}
        #: Cumulative attach events (one per deduplicated miss run).
        self.attached = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def attach(
        self, file_id: int, flash_first: int, flash_count: int, issue_time: float
    ) -> Optional[float]:
        """Join the in-flight fetch of this exact extent, if any.

        Returns the leader's completion time when the extent is still
        outstanding at ``issue_time`` (the caller completes at
        ``max(issue_time, completion)``), else ``None``.  An entry whose
        fetch already landed is expired on probe: the data went into the
        *leader's* cache, so a later requester must consult its own
        cache and, on a miss, issue its own read.
        """
        key = (file_id, flash_first, flash_count)
        completion = self._inflight.get(key)
        if completion is None:
            return None
        if issue_time >= completion:
            del self._inflight[key]
            return None
        self.attached += 1
        return completion

    def record(
        self,
        file_id: int,
        flash_first: int,
        flash_count: int,
        completion: float,
    ) -> None:
        """Register a successfully issued fetch (callers must *not*
        record fetches that raised — see the class docstring)."""
        self._inflight[(file_id, flash_first, flash_count)] = completion


class IOScheduler:
    """Routes page reads to per-device queues and maintains the cache.

    Every fetch :meth:`dispatch_span` issues runs through the recovery
    machinery: per-run retries with exponential backoff in simulated
    time, per-attempt timeouts, and degraded-mode rerouting around dead
    devices, all governed by the :class:`~repro.sim.faults.FaultPolicy`.
    Without a fault plan no device reports an error, so only a finite
    ``request_timeout`` can make a run retry.
    """

    def __init__(
        self,
        array: SSDArray,
        cache: PageCache,
        cost_model: CostModel,
        page_size: int,
        stats: Optional[StatsCollector] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.array = array
        self.cache = cache
        self.cost_model = cost_model
        self.page_size = page_size
        self.fault_policy = fault_policy or DEFAULT_FAULT_POLICY
        self.stats = stats if stats is not None else StatsCollector()
        #: Armed observer (see :mod:`repro.obs`); ``None`` = no tracing.
        self.obs = None
        #: Tenant whose job is currently dispatching (set by the serve
        #: layer around each job step); ``None`` = untagged batch work.
        self.tenant: Optional[str] = None
        #: Optional per-tenant cache partitions (tenant name →
        #: :class:`PageCache`).  When the current tenant has one, its
        #: dispatches run against that partition instead of the shared
        #: cache; everyone else keeps the shared cache, so batch runs
        #: are untouched.
        self.tenant_caches: Optional[dict] = None
        #: In-flight read dedup registry (cross-query I/O sharing); the
        #: serve layer points this at a shared registry around each
        #: sharing tenant's job step.  ``None`` = no dedup, the exact
        #: legacy fetch path.
        self.inflight: Optional[InflightReadRegistry] = None
        self._flash_per_page = flash_pages_per_safs_page(page_size)
        # Per-page checksums, engaged only when the stack can need them
        # (a fault plan injecting rot, or parity reconstruction): a bare
        # fault-free array skips checksumming entirely, keeping the
        # legacy hot path and counter stream untouched.
        self.integrity: Optional[IntegrityMap] = None
        if array.fault_plan is not None or array.parity is not None:
            self.integrity = IntegrityMap(page_size)
        # Flash-page base of each file on the array, assigned at creation.
        self._file_bases: dict = {}
        self._next_base = 0
        # _issue_cost_cum[n]: CPU cost of issuing a request plus n cache
        # lookups, accumulated one float add at a time — the rounding of
        # a page-by-page walk, which every pinned simulated number has.
        self._issue_cost_cum: List[float] = [self.cost_model.cpu_per_io_request]

    def _issue_cost(self, num_pages: int) -> float:
        cum = self._issue_cost_cum
        per_lookup = self.cost_model.cpu_per_cache_lookup
        while len(cum) <= num_pages:
            cum.append(cum[-1] + per_lookup)
        return cum[num_pages]

    def register_file(self, file: SAFSFile) -> None:
        """Lay the file out on the array after every existing file."""
        if file.file_id in self._file_bases:
            raise ValueError(f"file {file.name!r} is already registered")
        self._file_bases[file.file_id] = self._next_base
        safs_pages = file.num_pages(self.page_size)
        flash_pages = safs_pages * self._flash_per_page
        self._next_base += flash_pages
        self.array.note_capacity(flash_pages)
        if self.integrity is not None:
            self.integrity.register(file.file_id, file.read(0, file.size))

    def is_registered(self, file: SAFSFile) -> bool:
        """Whether the file has been laid out on the array."""
        return file.file_id in self._file_bases

    def _flash_extent(self, file: SAFSFile, first_page: int, num_pages: int) -> Tuple[int, int]:
        base = self._file_bases[file.file_id]
        return (
            base + first_page * self._flash_per_page,
            num_pages * self._flash_per_page,
        )

    # ------------------------------------------------------------------
    # Fault-recovering fetch path
    # ------------------------------------------------------------------

    def _fetch_extent(self, issue_time: float, flash_first: int, flash_count: int) -> float:
        """Read one flash extent, recovering from device faults.

        Each per-device run is driven individually through
        :meth:`_fetch_run`, so a failed run retries alone: the runs that
        already succeeded are never resubmitted, which is what keeps
        retried requests from double-charging device busy time.  The
        extent completes when its latest run does.
        """
        array = self.array
        completion = issue_time
        for device, run_first, run_pages in array.split_extent_runs(
            flash_first, flash_count
        ):
            done = self._fetch_run(device, run_first, run_pages, issue_time)
            if done > completion:
                completion = done
        stats = array.stats
        stats.add(reg.ARRAY_REQUESTS)
        stats.add(reg.ARRAY_PAGES_READ, flash_count)
        stats.add(reg.ARRAY_BYTES_READ, flash_count * FLASH_PAGE_SIZE)
        return completion

    def _record_device_error(self, device: int, time: float) -> None:
        """Feed one device error to the health monitor, acting on trips.

        A quarantine trip just benches the device (subsequent attempts
        route around it); a failure declaration additionally starts the
        parity rebuild onto a hot spare, exactly as a fault-plan death
        would.
        """
        health = self.array.health
        if health is None:
            return
        change = health.record_error(device, time)
        if change == "quarantined":
            self.stats.add(reg.HEALTH_QUARANTINES)
        elif change == "failed":
            self.stats.add(reg.HEALTH_DECLARED_FAILED)
            self.array.start_rebuild(device, time)

    def _fetch_run(
        self, device: int, run_first: int, run_pages: int, issue_time: float
    ) -> float:
        """One per-device run with retries, reconstruction and rerouting.

        All waiting is charged in simulated time: a retry resubmits at
        the failure-detection time plus exponential backoff, a timed-out
        attempt is declared lost at ``submit + timeout``.  A *lost* run —
        dead device, quarantined device, or a silent-corruption checksum
        mismatch — recovers through parity reconstruction when the array
        has a parity layout, else by rerouting to the surviving replica
        device (dead/quarantined only; rot is persistent, so without
        parity a rotted run burns its retries and aborts).  Raises
        :class:`UnrecoverableIOError` once the retry budget is spent.
        """
        array = self.array
        policy = self.fault_policy
        stats = self.stats
        obs = self.obs
        health = array.health
        submit_at = issue_time
        current = device
        retries = 0
        while True:
            target = array.serving_device(current, run_first, submit_at)
            if health is not None and health.avoid(target, submit_at):
                # The health monitor is routing around the device: the
                # attempt is refused at zero service cost.
                stats.add(reg.FAULTS_QUARANTINED_REQUESTS)
                detection = submit_at
                reason = "quarantined"
                if obs is not None:
                    obs.io_event("quarantined", detection, device=target)
            else:
                outcome = array.submit_run(target, submit_at, run_pages)
                if outcome.ok:
                    if outcome.time - submit_at > policy.request_timeout:
                        # The device finished the read, but past the
                        # deadline: the data is declared lost at the
                        # timeout and refetched.
                        stats.add(reg.FAULTS_TIMEOUTS)
                        detection = submit_at + policy.request_timeout
                        reason = "timeout"
                        if obs is not None:
                            obs.io_event("timeout", detection, device=target)
                    else:
                        rotted = (
                            array.device(target).media_rotted(
                                run_first, run_pages, outcome.time
                            )
                            if target == current
                            else 0
                        )
                        if not rotted:
                            if obs is not None:
                                obs.run_done(retries)
                            return outcome.time
                        # The device said the data was good; the per-page
                        # checksums say otherwise.  Service was consumed.
                        stats.add(reg.INTEGRITY_CHECKSUM_FAILURES, rotted)
                        detection = outcome.time
                        reason = "corrupt"
                        if obs is not None:
                            obs.io_event(
                                "corrupt", detection, device=target, pages=rotted
                            )
                        self._record_device_error(target, detection)
                elif outcome.error == "dead":
                    detection = outcome.time
                    reason = "dead"
                    if obs is not None:
                        obs.io_event("dead", detection, device=target)
                else:
                    detection = outcome.time
                    reason = outcome.error
                    if obs is not None:
                        obs.io_event(reason, detection, device=target)
                    self._record_device_error(target, detection)

            if reason in ("dead", "corrupt", "quarantined"):
                if array.layout is not None:
                    # Parity path: reconstruct the lost run from the
                    # row's survivors.  A whole-device loss also starts
                    # the background rebuild onto a hot spare.
                    if reason == "dead":
                        array.start_rebuild(current, detection)
                    recovered = array.reconstruct_run(
                        current, run_first, run_pages, detection
                    )
                    if recovered.ok:
                        if obs is not None:
                            obs.run_done(retries)
                        return recovered.time
                    if recovered.error == "double_fault" and reason != "quarantined":
                        # Two *permanent* losses in one parity row: the
                        # data is gone and no amount of retrying changes
                        # that.  (A quarantined primary still holds its
                        # bits — that case waits out the bench below.)
                        raise UnrecoverableIOError(
                            current, recovered.time, "double_fault"
                        )
                    # A peer failed transiently (or is briefly benched):
                    # the whole reconstruction retries with backoff.
                    detection = recovered.time
                elif reason != "corrupt" and policy.reroute_on_dead:
                    target = array.reroute_target(current, detection)
                    if target is not None:
                        # Degraded mode: the replica read is the recovery,
                        # not a retry, so it spends no retry budget.
                        stats.add(reg.FAULTS_REROUTED_REQUESTS)
                        stats.add(reg.FAULTS_REROUTED_PAGES, run_pages)
                        if obs is not None:
                            obs.io_event(
                                "rerouted", detection,
                                device=current, target=target,
                            )
                        current = target
                        submit_at = detection
                        continue
            retries += 1
            if retries > policy.max_retries:
                raise UnrecoverableIOError(current, detection, reason)
            stats.add(reg.FAULTS_RETRIES)
            submit_at = detection + policy.backoff(retries)
            if reason == "quarantined" and health is not None:
                # Burning the whole retry budget inside the bench window
                # would turn a temporary quarantine into a permanent
                # failure: wait (in simulated time) for the release.
                submit_at = max(submit_at, health.quarantine_release(current))
            if obs is not None:
                obs.io_event(
                    "retried", submit_at, device=current, attempt=retries
                )
                obs.recovery_wait(submit_at - detection)

    def _fetch_or_attach(
        self,
        file_id: int,
        issue_time: float,
        flash_first: int,
        flash_count: int,
        pages: int,
    ) -> Tuple[float, bool]:
        """One miss run: attach to an in-flight fetch of the same extent
        or issue the device read, returning ``(completion, deduped)``.

        Attached runs complete at ``max(issue_time, leader completion)``
        and are counted under ``safs.dedup_*``; issued runs are recorded
        in the registry so later overlapping dispatches can attach.  A
        fetch that raises is never recorded (the registry's failure
        contract).
        """
        inflight = self.inflight
        if inflight is not None:
            leader_done = inflight.attach(
                file_id, flash_first, flash_count, issue_time
            )
            if leader_done is not None:
                self.stats.add(reg.SAFS_DEDUP_PAGES, pages)
                self.stats.add(reg.SAFS_DEDUP_WAITS)
                self.stats.add(
                    reg.SAFS_DEDUP_WAIT_SECONDS, leader_done - issue_time
                )
                if self.obs is not None:
                    self.obs.io_event(
                        "dedup", leader_done,
                        pages=pages,
                        wait=leader_done - issue_time,
                    )
                return leader_done, True
        done = self._fetch_extent(issue_time, flash_first, flash_count)
        if inflight is not None:
            inflight.record(file_id, flash_first, flash_count, done)
        return done, False

    def _current_cache(self) -> PageCache:
        """The cache the current tenant's dispatches run against."""
        if self.tenant_caches is not None and self.tenant is not None:
            partition = self.tenant_caches.get(self.tenant)
            if partition is not None:
                return partition
        return self.cache

    def _rollback_inserted(self, cache: PageCache, file_id: int, runs) -> None:
        """Drop the ``(first_page, count)`` runs an aborted dispatch cached.

        An unrecoverable span leaves the cache as if the dispatch never
        ran (evictions aside): the request's user task will never fire,
        and a degraded re-run should observe a consistent cache.
        """
        dropped = 0
        for first_page, count in runs:
            for page_no in range(first_page, first_page + count):
                if cache.invalidate(file_id, page_no):
                    dropped += 1
        if dropped:
            self.stats.add(reg.FAULTS_INVALIDATED_PAGES, dropped)

    def dispatch_span(
        self, file: SAFSFile, first_page: int, last_page: int, issue_time: float
    ) -> Tuple[float, float, bool]:
        """Service one merged page span issued at ``issue_time``.

        Probes the cache with one
        :meth:`~repro.safs.page_cache.PageCache.lookup_range` call, fetches
        each run of missing pages it reports from the device queues (or
        attaches to an in-flight fetch of the same extent) and installs the
        run's page keys.  No page bytes are touched unless checksums are
        engaged (:attr:`integrity`), in which case every fetched page is
        verified.  A span that is inverted, starts before the file's first
        page or reaches past its last raises :class:`ValueError` before any
        counter moves.
        Returns ``(completion_time, cpu_cost, full_hit)``:

        - ``completion_time`` — when every page of the span is in the cache,
        - ``cpu_cost`` — CPU seconds consumed issuing the request (cache
          lookups, request submission, kernel-side page transfers),
        - ``full_hit`` — whether no device access was needed.
        """
        if file.file_id not in self._file_bases:
            raise ValueError(f"file {file.name!r} was never registered")
        if not 0 <= first_page <= last_page:
            raise ValueError(f"span [{first_page}, {last_page}] is inverted or negative")
        if last_page >= file.num_pages(self.page_size):
            raise ValueError(f"page {last_page} is past EOF of {file.name!r}")
        cm = self.cost_model
        cache = self._current_cache()
        completion = issue_time
        pages_fetched = 0
        pages_deduped = 0
        num_pages = last_page - first_page + 1
        cpu_cost = self._issue_cost(num_pages)

        runs = cache.lookup_range(file.file_id, first_page, last_page)
        misses = sum(count for _, count in runs)
        if self.obs is not None:
            self.obs.io_event(
                "cache_lookup", issue_time, pages=num_pages, misses=misses
            )

        for runs_done, (start, length) in enumerate(runs):
            flash_first, flash_count = self._flash_extent(file, start, length)
            try:
                done, deduped = self._fetch_or_attach(
                    file.file_id, issue_time, flash_first, flash_count, length
                )
            except UnrecoverableIOError:
                self._rollback_inserted(cache, file.file_id, runs[:runs_done])
                self._count_aborted_dispatch(
                    num_pages - misses, pages_fetched, pages_deduped
                )
                raise
            if done > completion:
                completion = done
            if deduped:
                pages_deduped += length
            else:
                pages_fetched += length
            if self.integrity is not None:
                for page_no in range(start, start + length):
                    data = file.read_page(page_no, self.page_size)
                    self.integrity.verify(file.file_id, page_no, data)
            cache.insert_range(file.file_id, start, length)

        # Deduped pages skip the device but still cross the kernel into
        # this dispatch's cache, so they pay the same transfer CPU.
        cpu_cost += (
            (pages_fetched + pages_deduped)
            * self._flash_per_page
            * cm.cpu_per_page_transfer
        )
        full_hit = not runs
        self._count_dispatch(num_pages, pages_fetched, full_hit)
        return completion, cpu_cost, full_hit

    def _count_aborted_dispatch(
        self, hits: int, pages_fetched: int, pages_deduped: int
    ) -> None:
        """Partial accounting for a dispatch killed by an unrecoverable
        fault: only the pages it actually *serviced* before dying (its
        cache hits — already tallied by the lookup walk — plus completed
        fetch/attach runs) count as requested, which keeps the page
        conservation law ``io.pages_requested == cache.hits +
        io.pages_fetched + safs.dedup_pages`` exact even when spans
        abort mid-walk.  The failing run itself lands in no counter, and
        the dispatch stays out of ``io.dispatched`` / the size histogram
        (those count issued requests, not service outcomes)."""
        self.stats.add(reg.IO_PAGES_REQUESTED, hits + pages_fetched + pages_deduped)
        self.stats.add(reg.IO_PAGES_FETCHED, pages_fetched)

    def _count_dispatch(self, pages: int, pages_fetched: int, full_hit: bool) -> None:
        # Request-size histogram: §3.6 — issued requests range from one
        # page to many megabytes depending on how well merging worked.
        if pages == 1:
            self.stats.add(reg.IO_SIZE_1_PAGE)
        elif pages <= 8:
            self.stats.add(reg.IO_SIZE_2_8_PAGES)
        elif pages <= 64:
            self.stats.add(reg.IO_SIZE_9_64_PAGES)
        else:
            self.stats.add(reg.IO_SIZE_65PLUS_PAGES)
        self.stats.add(reg.IO_DISPATCHED)
        self.stats.add(reg.IO_PAGES_REQUESTED, pages)
        self.stats.add(reg.IO_PAGES_FETCHED, pages_fetched)
        if full_hit:
            self.stats.add(reg.IO_FULL_HITS)
