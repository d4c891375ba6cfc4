"""In-flight read dedup: the registry and the scheduler attach path.

The :class:`InflightReadRegistry` lets a dispatch join another
dispatch's outstanding device fetch of the same flash extent instead of
re-issuing it — the cross-query I/O sharing tentpole
(``docs/io_sharing.md``).  These tests pin the registry's semantics
(attach before completion, expiry on probe, the failure contract that
never records a raised fetch) and the scheduler-level invariants: the
follower completes at ``max(arrival, leader completion)``, dedup never
changes the bytes a dispatch observes, and the page conservation law
``io.pages_requested == cache.hits + io.pages_fetched +
safs.dedup_pages`` holds exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safs.io_scheduler import InflightReadRegistry, IOScheduler
from repro.safs.page import SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.cost_model import CostModel
from repro.sim.faults import UnrecoverableIOError
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.safs.reads import dispatch_bytes

PAGE = 4096


def make_scheduler(stats=None):
    """A scheduler with two tenant cache partitions and dedup armed.

    Partitions matter: with one shared cache the follower's pages are
    already resident by the time it dispatches (inserts happen at
    wall-clock dispatch time), so only cross-partition misses can
    overlap in flight.
    """
    stats = stats if stats is not None else StatsCollector()
    array = SSDArray(SSDArrayConfig(num_ssds=2, stripe_pages=2), stats)
    cache = PageCache(PageCacheConfig(capacity_bytes=32 * PAGE), stats)
    scheduler = IOScheduler(array, cache, CostModel(), PAGE, stats)
    scheduler.tenant_caches = {
        "a": PageCache(PageCacheConfig(capacity_bytes=32 * PAGE), stats),
        "b": PageCache(PageCacheConfig(capacity_bytes=32 * PAGE), stats),
    }
    scheduler.inflight = InflightReadRegistry()
    return scheduler


class TestRegistry:
    def test_attach_on_empty_registry_is_none(self):
        registry = InflightReadRegistry()
        assert registry.attach(0, 0, 4, 0.0) is None
        assert registry.attached == 0

    def test_attach_before_completion_returns_leader(self):
        registry = InflightReadRegistry()
        registry.record(0, 8, 4, completion=1.0)
        assert registry.attach(0, 8, 4, 0.5) == 1.0
        assert registry.attached == 1

    def test_attach_at_or_after_completion_expires_entry(self):
        registry = InflightReadRegistry()
        registry.record(0, 8, 4, completion=1.0)
        assert registry.attach(0, 8, 4, 1.0) is None
        # Expired on probe: the data went into the leader's cache, not
        # ours, so a re-probe must not resurrect the entry.
        assert len(registry) == 0
        assert registry.attach(0, 8, 4, 0.5) is None

    def test_attach_is_exact_extent_match(self):
        registry = InflightReadRegistry()
        registry.record(0, 8, 4, completion=1.0)
        assert registry.attach(0, 8, 2, 0.5) is None
        assert registry.attach(0, 10, 4, 0.5) is None
        assert registry.attach(1, 8, 4, 0.5) is None


class TestSchedulerDedup:
    def test_cross_partition_overlap_attaches(self):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        scheduler.tenant = "a"
        done_a, _, _ = dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        assert done_a > 0.0
        # Tenant b misses its own partition on the same extent while
        # a's fetch is still outstanding on the simulated clock.
        scheduler.tenant = "b"
        done_b, _, hit = dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        assert not hit
        assert scheduler.stats.get("safs.dedup_pages") == 4
        assert scheduler.stats.get("safs.dedup_waits") == 1
        # Follower completes exactly when the leader's fetch lands.
        assert done_b == done_a

    def test_follower_arriving_midway_pays_only_residual(self):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        scheduler.tenant = "a"
        done_a, _, _ = dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        mid = done_a / 2
        scheduler.tenant = "b"
        done_b, _, _ = dispatch_bytes(scheduler, file, 0, 4 * PAGE, mid)
        assert done_b == done_a
        assert scheduler.stats.get("safs.dedup_wait_seconds") == pytest.approx(
            done_a - mid
        )

    def test_attach_after_leader_lands_reissues(self):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        scheduler.tenant = "a"
        done_a, _, _ = dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        scheduler.tenant = "b"
        fetched_before = scheduler.stats.get("io.pages_fetched")
        dispatch_bytes(scheduler, file, 0, 4 * PAGE, done_a + 1.0)
        assert scheduler.stats.get("safs.dedup_pages") == 0
        assert scheduler.stats.get("io.pages_fetched") == fetched_before + 4

    def test_dedup_off_is_legacy_path(self):
        armed = make_scheduler()
        legacy = make_scheduler()
        legacy.inflight = None
        for scheduler in (armed, legacy):
            file = SAFSFile("a", bytes(PAGE * 8))
            scheduler.register_file(file)
            scheduler.tenant = "a"
            dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        # Same single-tenant sequence, identical counters either way:
        # an armed-but-unused registry costs nothing.
        assert armed.stats.snapshot() == legacy.stats.snapshot()

    def test_conservation_law_with_dedup(self):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 16))
        scheduler.register_file(file)
        for tenant, offset, length, at in [
            ("a", 0, 8, 0.0),
            ("b", 0, 8, 0.0),   # attaches to a's fetch
            ("a", 4, 8, 0.0),   # partial hit in a's partition
            ("b", 8, 8, 5.0),   # later: a's fetch landed, fresh read
            ("a", 0, 4, 9.0),   # pure hit
        ]:
            scheduler.tenant = tenant
            dispatch_bytes(scheduler, file, offset * PAGE, length * PAGE, at)
        stats = scheduler.stats
        assert stats.get("io.pages_requested") == (
            stats.get("cache.hits")
            + stats.get("io.pages_fetched")
            + stats.get("safs.dedup_pages")
        )


class TestLeaderFailure:
    def test_failed_fetch_is_never_recorded(self, monkeypatch):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        scheduler.tenant = "a"

        def doomed(issue_time, flash_first, flash_count):
            raise UnrecoverableIOError(0, issue_time, "dead")

        monkeypatch.setattr(scheduler, "_fetch_extent", doomed)
        with pytest.raises(UnrecoverableIOError):
            dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        # The failure contract: no entry, so the next requester drives
        # the full retry path itself instead of waiting forever on a
        # fetch that will never land.
        assert len(scheduler.inflight) == 0

    def test_next_requester_reissues_after_leader_death(self, monkeypatch):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        scheduler.tenant = "a"
        real_fetch = scheduler._fetch_extent

        def doomed(issue_time, flash_first, flash_count):
            raise UnrecoverableIOError(0, issue_time, "dead")

        monkeypatch.setattr(scheduler, "_fetch_extent", doomed)
        with pytest.raises(UnrecoverableIOError):
            dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)
        # The fault clears; the would-be waiter re-issues and succeeds.
        monkeypatch.setattr(scheduler, "_fetch_extent", real_fetch)
        scheduler.tenant = "b"
        done, _, hit = dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.1)
        assert not hit and done > 0.1
        assert scheduler.stats.get("safs.dedup_pages") == 0
        assert scheduler.stats.get("io.pages_fetched") == 4

    def test_aborted_dispatch_keeps_conservation_exact(self, monkeypatch):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 16))
        scheduler.register_file(file)
        scheduler.tenant = "a"
        # Prime pages 0-3, then abort a span that hits 0-3 and dies on
        # the 4-7 fetch: the hits must still balance against requested.
        dispatch_bytes(scheduler, file, 0, 4 * PAGE, 0.0)

        def doomed(issue_time, flash_first, flash_count):
            raise UnrecoverableIOError(0, issue_time, "dead")

        monkeypatch.setattr(scheduler, "_fetch_extent", doomed)
        with pytest.raises(UnrecoverableIOError):
            dispatch_bytes(scheduler, file, 0, 8 * PAGE, 1.0)
        stats = scheduler.stats
        assert stats.get("io.pages_requested") == (
            stats.get("cache.hits")
            + stats.get("io.pages_fetched")
            + stats.get("safs.dedup_pages")
        )


class TestConservationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=1, max_value=8),
                st.floats(min_value=0.0, max_value=0.01),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_requested_pages_always_balance(self, ops):
        scheduler = make_scheduler()
        file = SAFSFile("a", bytes(PAGE * 20))
        scheduler.register_file(file)
        for tenant, first, length, at in ops:
            length = min(length, 20 - first)
            if length <= 0:
                continue
            scheduler.tenant = tenant
            dispatch_bytes(scheduler, file, first * PAGE, length * PAGE, at)
        stats = scheduler.stats
        assert stats.get("io.pages_requested") == (
            stats.get("cache.hits")
            + stats.get("io.pages_fetched")
            + stats.get("safs.dedup_pages")
        )
