"""Adaptive tenant cache sizing: the ghost-LRU driven rebalancer.

Unit-level policy semantics (capacity moves toward the best marginal
ghost-hit rate, floors are never crossed, decisions are deterministic)
plus the service-level wiring: a skewed two-tenant run shifts capacity
to the hot tenant and reads fewer bytes than the static split, gauges
land in the stats series, and the run stays byte-identical across
same-seed replays (``docs/io_sharing.md``).
"""

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.serve import (
    CacheRebalancer,
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from tests.safs.reads import insert, lookup

PAGE = 4096


@pytest.fixture(scope="module")
def image():
    return load_dataset("twitter-sim")


def small_cache():
    # 8 pages, associativity 4 -> 2 sets of 4.
    return PageCache(PageCacheConfig(capacity_bytes=8 * PAGE, associativity=4))


def thrash(cache, file_id, pages):
    """Insert ``pages`` distinct pages then re-probe the early ones:
    evicted keys land on the ghost list and the probes score ghost
    hits — the 'would have hit with more capacity' signal."""
    for page_no in range(pages):
        lookup(cache, file_id, page_no)
        insert(cache, file_id, page_no)
    for page_no in range(pages):
        lookup(cache, file_id, page_no)


class TestRebalancerUnit:
    def test_needs_two_partitions(self):
        with pytest.raises(ValueError):
            CacheRebalancer({"only": small_cache()})

    def test_capacity_moves_toward_ghost_hits(self):
        hot, cold = small_cache(), small_cache()
        rebalancer = CacheRebalancer(
            {"hot": hot, "cold": cold}, interval_s=0.01
        )
        thrash(hot, 0, 24)
        lookup(cold, 1, 0)  # active but never ghost-hitting
        rebalancer.note_time(0.01)
        assert rebalancer.moves == 1
        assert hot._set_cap == 5 and cold._set_cap == 3
        assert rebalancer.pages_moved == cold.config.num_sets
        assert rebalancer.log[0]["donor"] == "cold"
        assert rebalancer.log[0]["receiver"] == "hot"

    def test_floor_is_never_crossed(self):
        hot, cold = small_cache(), small_cache()
        rebalancer = CacheRebalancer({"hot": hot, "cold": cold}, interval_s=0.01)
        # FLOOR_FRACTION of the initial 4 pages per set.
        floor = rebalancer._floor["cold"]
        assert floor == 2
        for window in range(1, 20):
            thrash(hot, 0, 24)
            rebalancer.note_time(window * 0.01)
        assert cold._set_cap >= floor
        # Stalls once the donor bottoms out: total capacity conserved.
        assert hot._set_cap + cold._set_cap == 8

    def test_no_move_without_benefit(self):
        a, b = small_cache(), small_cache()
        rebalancer = CacheRebalancer(
            {"a": a, "b": b}, interval_s=0.01
        )
        # Fits in capacity: lookups but zero ghost hits.
        for page_no in range(4):
            lookup(a, 0, page_no)
            insert(a, 0, page_no)
        rebalancer.note_time(0.01)
        assert rebalancer.moves == 0

    def test_shrink_evictions_feed_ghost(self):
        a, b = small_cache(), small_cache()
        rebalancer = CacheRebalancer(
            {"a": a, "b": b}, interval_s=0.01
        )
        for page_no in range(8):
            insert(b, 0, page_no)
        thrash(a, 1, 24)
        rebalancer.note_time(0.01)
        assert rebalancer.moves == 1
        assert rebalancer.evictions > 0
        assert len(b) <= b.set_capacity_pages

    def test_decisions_are_deterministic(self):
        def run():
            hot, cold = small_cache(), small_cache()
            rebalancer = CacheRebalancer(
                {"hot": hot, "cold": cold}, interval_s=0.01
            )
            for window in range(1, 6):
                thrash(hot, 0, 24)
                thrash(cold, 1, 6)
                rebalancer.note_time(window * 0.01)
            return rebalancer.log

        assert run() == run()

    def test_config_validation(self):
        for interval_s in (0.0, -0.01):
            with pytest.raises(ValueError, match="interval_s"):
                CacheRebalancer(
                    {"a": small_cache(), "b": small_cache()},
                    interval_s=interval_s,
                )


def skewed_service(image, cache_rebalance=True):
    tenants = [
        TenantSpec(name="hot", max_concurrent=2, cache_bytes=1 << 18),
        TenantSpec(name="cold", max_concurrent=2, cache_bytes=1 << 18),
    ]
    traffics = [
        TenantTraffic(tenant="hot", rate_qps=100.0, apps=("pr", "wcc")),
        TenantTraffic(tenant="cold", rate_qps=10.0, apps=("bfs",)),
    ]
    service = GraphService(
        image,
        tenants,
        ServiceConfig(
            policy="fair",
            cache_rebalance=cache_rebalance,
            cache_rebalance_interval_s=0.005,
        ),
    )
    trace = generate_trace(traffics, 0.1, seed=11)
    return service, trace


@pytest.fixture(scope="module")
def rebalanced(image):
    """The skewed mix served once with the rebalancer on, shared by the
    tests that only read the outcome: ``(service, report)``."""
    service, trace = skewed_service(image)
    return service, service.serve(trace)


class TestServiceRebalance:
    def test_needs_two_partitions(self, image):
        with pytest.raises(ValueError):
            GraphService(
                image,
                [TenantSpec(name="solo", max_concurrent=1)],
                ServiceConfig(cache_rebalance=True),
            )

    def test_hot_tenant_gains_capacity(self, rebalanced):
        service, report = rebalanced
        summary = report.sharing["rebalancer"]
        assert summary["moves"] > 0
        assert summary["pages_moved"] > 0
        caps = summary["set_capacities"]
        assert caps["hot"] > caps["cold"]
        assert caps["cold"] >= summary["floors"]["cold"]
        assert service.stats.get("serve.cache_rebalances") == summary["moves"]

    def test_share_gauges_are_sampled(self, rebalanced):
        service, _ = rebalanced
        for name in ("hot", "cold"):
            series = service.stats.series(f"serve.cache_share.{name}")
            assert series, f"no cache_share samples for {name}"
            times = [t for t, _ in series]
            assert times == sorted(times)
        # Shares always sum to 1 across the two partitions.
        hot = dict(service.stats.series("serve.cache_share.hot"))
        cold = dict(service.stats.series("serve.cache_share.cold"))
        for t in hot:
            if t in cold:
                assert hot[t] + cold[t] == pytest.approx(1.0)

    def test_rebalancing_reads_fewer_bytes_on_a_skewed_mix(self, image, rebalanced):
        # What the rebalancer is kept for: with one tenant's working set
        # far larger than the other's, moving capacity to it saves device
        # reads (seed 11: 123 461 632 -> 110 460 928 B) and changes no
        # query's answer.
        service_on, report_on = rebalanced
        service_off, trace = skewed_service(image, cache_rebalance=False)
        report_off = service_off.serve(trace)
        assert service_on.stats.get("array.bytes_read") < service_off.stats.get(
            "array.bytes_read"
        )
        by_index = {r.index: r for r in report_off.records}
        for record in report_on.records:
            twin = by_index[record.index]
            assert record.ok == twin.ok
            if record.ok:
                np.testing.assert_array_equal(
                    np.asarray(record.values), np.asarray(twin.values)
                )

    def test_same_seed_runs_identical(self, image, rebalanced):
        service_a, report_a = rebalanced
        service_b, trace_b = skewed_service(image)
        report_b = service_b.serve(trace_b)
        assert service_a.rebalancer.log == service_b.rebalancer.log
        assert report_a.to_dict() == report_b.to_dict()
        assert service_a.stats.snapshot() == service_b.stats.snapshot()
