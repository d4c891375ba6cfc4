"""The cross-query result cache: repeats answered at admission.

Unit semantics of :class:`ResultCache` (TTL expiry on probe,
invalidation hooks, scope isolation) plus the service-level contract:
a repeat query is served at ``HIT_COST_S`` without touching
the engine, its values equal the producing run's bit for bit, private
scopes never leak across tenants, ``off`` tenants opt out, and the
fingerprint folds in the *effective* parameters so degraded runs can
never masquerade as full-fidelity answers (``docs/io_sharing.md``).
"""

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.serve import (
    GraphService,
    ResultCache,
    ServiceConfig,
    TenantSpec,
    image_digest,
)
from repro.serve.queries import QueryFactory
from repro.serve.results import HIT_COST_S, RESULT_SCOPE_SHARED
from repro.serve.traffic import Arrival


@pytest.fixture(scope="module")
def image():
    return load_dataset("twitter-sim")


class TestResultCacheUnit:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup("", "fp", now=0.0) is None
        cache.insert("", "fp", values=[1.0], iterations=3, app="pr",
                     now=0.0, source_index=0)
        entry = cache.lookup("", "fp", now=1.0)
        assert entry is not None and entry.values == [1.0]
        assert (cache.hits, cache.misses, cache.insertions) == (1, 1, 1)

    def test_ttl_expires_on_probe(self):
        cache = ResultCache(ttl_s=1.0)
        cache.insert("", "fp", values=[1.0], iterations=3, app="pr",
                     now=0.0, source_index=0)
        assert cache.lookup("", "fp", now=0.5) is not None
        assert cache.lookup("", "fp", now=2.0) is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_scopes_are_isolated(self):
        cache = ResultCache()
        cache.insert("acme", "fp", values=[1.0], iterations=3, app="pr",
                     now=0.0, source_index=0)
        assert cache.lookup(RESULT_SCOPE_SHARED, "fp", now=0.0) is None
        assert cache.lookup("globex", "fp", now=0.0) is None
        assert cache.lookup("acme", "fp", now=0.0) is not None

    def test_invalidate_all_and_by_predicate(self):
        cache = ResultCache()
        for i, app in enumerate(["pr", "wcc"]):
            cache.insert("", f"fp{i}", values=[i], iterations=1, app=app,
                         now=0.0, source_index=i)
        assert cache.invalidate(lambda e: e.app == "pr") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_config_validation(self):
        for ttl_s in (0.0, -1.0):
            with pytest.raises(ValueError, match="ttl_s"):
                ResultCache(ttl_s=ttl_s)


class TestFingerprint:
    def test_effective_params_fold_in(self, image):
        factory = QueryFactory(image, pr_iterations=5)
        full = factory.fingerprint("pr")
        degraded = factory.fingerprint("pr", pr_iterations=3)
        coarse = factory.fingerprint("pr", pr_tolerance_factor=4.0)
        assert full != degraded
        assert full != coarse
        assert factory.fingerprint("pr") == full

    def test_apps_and_images_differ(self, image):
        factory = QueryFactory(image, pr_iterations=5)
        assert factory.fingerprint("pr") != factory.fingerprint("wcc")
        assert image_digest(image) in factory.fingerprint("pr")

    def test_unknown_app_rejected(self, image):
        factory = QueryFactory(image, pr_iterations=5)
        with pytest.raises(ValueError):
            factory.fingerprint("nonsense")


def serve_repeats(image, arrivals, tenants, **config_kw):
    service = GraphService(
        image,
        tenants,
        ServiceConfig(
            policy="fifo", pr_iterations=5, result_cache=True, **config_kw
        ),
    )
    return service, service.serve(arrivals)


class TestServiceResultCache:
    def test_repeat_served_from_cache_at_hit_cost(self, image):
        tenants = [TenantSpec(name="solo", max_concurrent=1)]
        arrivals = [
            Arrival(time=0.0, tenant="solo", app="pr", index=0),
            Arrival(time=0.05, tenant="solo", app="pr", index=1),
        ]
        _, report = serve_repeats(image, arrivals, tenants)
        assert report.completed == 2
        first, second = sorted(report.records, key=lambda r: r.index)
        assert not first.result_cached
        assert second.result_cached
        assert second.latency == pytest.approx(HIT_COST_S)
        np.testing.assert_array_equal(
            np.asarray(second.values), np.asarray(first.values)
        )
        # Cached answers never touch the I/O stack.
        assert second.bytes_read == 0.0
        assert report.sharing["result_cache"]["hits"] == 1
        assert report.tenants["solo"].result_cache_hits == 1

    def test_shared_scope_crosses_tenants(self, image):
        tenants = [
            TenantSpec(name="a", max_concurrent=1),
            TenantSpec(name="b", max_concurrent=1),
        ]
        arrivals = [
            Arrival(time=0.0, tenant="a", app="pr", index=0),
            Arrival(time=0.05, tenant="b", app="pr", index=1),
        ]
        _, report = serve_repeats(image, arrivals, tenants)
        by_index = sorted(report.records, key=lambda r: r.index)
        assert by_index[1].result_cached

    def test_private_scope_is_isolated(self, image):
        tenants = [
            TenantSpec(name="a", max_concurrent=1, result_cache="private"),
            TenantSpec(name="b", max_concurrent=1, result_cache="private"),
        ]
        arrivals = [
            Arrival(time=0.0, tenant="a", app="pr", index=0),
            Arrival(time=0.05, tenant="b", app="pr", index=1),
            Arrival(time=0.1, tenant="a", app="pr", index=2),
        ]
        _, report = serve_repeats(image, arrivals, tenants)
        by_index = sorted(report.records, key=lambda r: r.index)
        assert not by_index[1].result_cached  # b never saw a's deposit
        assert by_index[2].result_cached      # a's own repeat hits

    def test_off_policy_opts_out(self, image):
        tenants = [
            TenantSpec(name="solo", max_concurrent=1, result_cache="off")
        ]
        arrivals = [
            Arrival(time=0.0, tenant="solo", app="pr", index=0),
            Arrival(time=0.05, tenant="solo", app="pr", index=1),
        ]
        _, report = serve_repeats(image, arrivals, tenants)
        assert not any(r.result_cached for r in report.records)

    def test_ttl_expiry_forces_rerun(self, image):
        tenants = [TenantSpec(name="solo", max_concurrent=1)]
        arrivals = [
            Arrival(time=0.0, tenant="solo", app="pr", index=0),
            Arrival(time=0.2, tenant="solo", app="pr", index=1),
        ]
        service, report = serve_repeats(
            image, arrivals, tenants, result_cache_ttl_s=0.05
        )
        assert not any(r.result_cached for r in report.records)
        assert service.result_cache.expirations == 1

    def test_disabled_cache_never_hits(self, image):
        service = GraphService(
            image,
            [TenantSpec(name="solo", max_concurrent=1)],
            ServiceConfig(policy="fifo", pr_iterations=5),
        )
        report = service.serve(
            [
                Arrival(time=0.0, tenant="solo", app="pr", index=0),
                Arrival(time=0.05, tenant="solo", app="pr", index=1),
            ]
        )
        assert service.result_cache is None
        assert not any(r.result_cached for r in report.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(result_cache_ttl_s=-1.0)
        with pytest.raises(ValueError):
            TenantSpec(name="x", result_cache="sometimes")
