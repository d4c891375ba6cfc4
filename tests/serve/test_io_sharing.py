"""Cross-query I/O sharing at the service level.

The overlapping-tenant shape: two partitioned tenants issuing the same
pr/wcc repeats, so their cache partitions miss on the same extents while
fetches are still outstanding.  Pinned invariants
(``docs/io_sharing.md``): dedup fires and strictly reduces bytes read
off the array, it never changes a single output value, the page
conservation law holds exactly (clean and under chaos), per-job
``JobRecord`` attribution tiles the global counters, per-tenant opt-out
works, and same-seed runs are byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.datasets import load_dataset
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    StuckQueue,
    TransientErrors,
)

CHAOS_PLAN = FaultPlan(
    [
        TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
        StuckQueue(device=7, start=0.0005, end=0.012),
        DeviceFailure(device=11, at=0.002),
    ],
    seed=42,
)
CHAOS_POLICY = FaultPolicy(
    max_retries=12, retry_backoff=200e-6, request_timeout=0.002
)


@pytest.fixture(scope="module")
def image():
    return load_dataset("twitter-sim")


def overlap_tenants(**overrides):
    return [
        TenantSpec(
            name="ridge", max_concurrent=2, cache_bytes=1 << 18, **overrides
        ),
        TenantSpec(
            name="vale", max_concurrent=2, cache_bytes=1 << 18, **overrides
        ),
    ]


def overlap_trace(duration=0.1, seed=11):
    traffics = [
        TenantTraffic(tenant="ridge", rate_qps=60.0, apps=("pr", "wcc")),
        TenantTraffic(tenant="vale", rate_qps=60.0, apps=("pr", "wcc")),
    ]
    return generate_trace(traffics, duration, seed=seed)


def run_overlap(image, share_reads, tenants=None, chaos=False, **kw):
    service = GraphService(
        image,
        tenants if tenants is not None else overlap_tenants(),
        ServiceConfig(policy="fair", share_reads=share_reads, **kw),
        fault_plan=CHAOS_PLAN if chaos else None,
        fault_policy=CHAOS_POLICY if chaos else None,
    )
    report = service.serve(overlap_trace())
    return service, report


@pytest.fixture(scope="module")
def base(image):
    """The overlap mix served once without sharing: ``(service, report)``,
    shared by the tests that only read it."""
    return run_overlap(image, share_reads=False)


@pytest.fixture(scope="module")
def shared(image):
    """The overlap mix served once with in-flight dedup on."""
    return run_overlap(image, share_reads=True)


def assert_conservation(stats):
    assert stats.get("io.pages_requested") == (
        stats.get("cache.hits")
        + stats.get("io.pages_fetched")
        + stats.get("safs.dedup_pages")
    )


class TestDedupEffect:
    def test_overlapping_mix_dedups_and_reduces_bytes(self, base, shared):
        (_, base), (service, shared) = base, shared
        stats = service.stats
        assert stats.get("safs.dedup_pages") > 0
        assert stats.get("safs.dedup_waits") > 0
        assert shared.sharing is not None
        assert shared.sharing["dedup_pages"] == stats.get("safs.dedup_pages")
        base_bytes = sum(r.bytes_read for r in base.records)
        shared_bytes = sum(r.bytes_read for r in shared.records)
        assert shared_bytes < base_bytes

    def test_dedup_never_changes_outputs(self, base, shared):
        (_, base), (_, shared) = base, shared
        assert base.completed == shared.completed
        by_index = {r.index: r for r in base.records}
        for record in shared.records:
            twin = by_index[record.index]
            assert record.ok == twin.ok
            if record.ok:
                np.testing.assert_array_equal(
                    np.asarray(record.values), np.asarray(twin.values)
                )

    def test_conservation_law_exact(self, shared):
        service, _ = shared
        assert_conservation(service.stats)

    def test_sharing_off_reports_no_sharing(self, base):
        service, report = base
        assert report.sharing is None
        assert service.stats.get("safs.dedup_pages") == 0


class TestAttribution:
    def test_job_records_tile_global_counters(self, shared):
        service, report = shared
        stats = service.stats
        assert sum(r.bytes_read for r in report.records) == pytest.approx(
            stats.get("array.bytes_read")
        )
        assert sum(r.dedup_pages for r in report.records) == pytest.approx(
            stats.get("safs.dedup_pages")
        )
        assert sum(r.dedup_waits for r in report.records) == pytest.approx(
            stats.get("safs.dedup_waits")
        )

    def test_some_job_carries_dedup(self, shared):
        _, report = shared
        assert any(r.dedup_pages > 0 for r in report.records)


class TestPartitionHitRates:
    def test_hit_rate_is_partition_local(self, shared):
        service, _ = shared
        for name, partition in service.cache_partitions.items():
            assert partition.lookups > 0
            assert partition.hit_rate() == pytest.approx(
                partition.hits / partition.lookups
            )
        # Local tallies, not the shared counters: the partitions'
        # lookups sum to strictly less than a collector-wide total
        # would (the shared cache and both partitions all add there).
        rates = {
            name: p.hit_rate() for name, p in service.cache_partitions.items()
        }
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_timeline_samples_cache_hit_rate_gauges(self, image):
        from repro.obs.timeline import TimelineSampler

        timeline = TimelineSampler(interval_s=0.005)
        service = GraphService(
            image,
            overlap_tenants(),
            ServiceConfig(policy="fair", share_reads=True),
            timeline=timeline,
        )
        service.serve(overlap_trace())
        for name in ("ridge", "vale"):
            assert service.stats.series(f"serve.cache_hit_rate.{name}")


class TestTenantOptOut:
    def test_share_false_tenants_never_dedup(self, image):
        service, _ = run_overlap(
            image, share_reads=True, tenants=overlap_tenants(share_reads=False)
        )
        assert service.stats.get("safs.dedup_pages") == 0

    def test_mixed_opt_out_only_sharing_tenants_attach(self, image):
        tenants = [
            TenantSpec(name="ridge", max_concurrent=2, cache_bytes=1 << 18),
            TenantSpec(
                name="vale",
                max_concurrent=2,
                cache_bytes=1 << 18,
                share_reads=False,
            ),
        ]
        _, report = run_overlap(image, share_reads=True, tenants=tenants)
        for record in report.records:
            if record.tenant == "vale":
                assert record.dedup_pages == 0


class TestChaos:
    def test_waiters_survive_chaos_and_conserve(self, image):
        service, report = run_overlap(image, share_reads=True, chaos=True)
        # No hang, every arrival accounted, conservation exact even with
        # aborted dispatches in the stream.
        assert report.completed + report.aborted == report.offered
        assert_conservation(service.stats)

    def test_chaos_outputs_match_clean_outputs(self, image):
        _, clean = run_overlap(image, share_reads=True)
        _, chaos = run_overlap(image, share_reads=True, chaos=True)
        clean_by_index = {r.index: r for r in clean.records if r.ok}
        for record in chaos.records:
            if not record.ok:
                continue
            twin = clean_by_index.get(record.index)
            if twin is None or record.result_cached:
                continue
            np.testing.assert_array_equal(
                np.asarray(record.values), np.asarray(twin.values)
            )


class TestDeterminism:
    def test_same_seed_reports_byte_identical(self, image):
        service_a, a = run_overlap(image, share_reads=True)
        service_b, b = run_overlap(image, share_reads=True)
        assert a.to_dict() == b.to_dict()
        assert service_a.stats.snapshot() == service_b.stats.snapshot()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=50))
    def test_dedup_never_changes_outputs_property(self, image, seed):
        def run(share):
            service = GraphService(
                image,
                overlap_tenants(),
                ServiceConfig(policy="fair", share_reads=share),
            )
            return service.serve(
                generate_trace(
                    [
                        TenantTraffic(
                            tenant="ridge", rate_qps=60.0, apps=("pr", "wcc")
                        ),
                        TenantTraffic(
                            tenant="vale", rate_qps=60.0, apps=("pr", "wcc")
                        ),
                    ],
                    0.05,
                    seed=seed,
                )
            )

        base, shared = run(False), run(True)
        assert base.completed == shared.completed
        by_index = {r.index: r for r in base.records}
        for record in shared.records:
            twin = by_index[record.index]
            assert record.ok == twin.ok
            if record.ok:
                np.testing.assert_array_equal(
                    np.asarray(record.values), np.asarray(twin.values)
                )
