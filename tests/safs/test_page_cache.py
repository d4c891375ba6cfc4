"""Unit and property tests for the set-associative page cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safs.page import SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.stats import StatsCollector
from tests.safs.reads import insert, lookup


def make_cache(capacity_pages=16, associativity=4, page_size=4096):
    return PageCache(
        PageCacheConfig(
            capacity_bytes=capacity_pages * page_size,
            page_size=page_size,
            associativity=associativity,
        )
    )


class TestGeometry:
    def test_capacity_pages(self):
        cfg = PageCacheConfig(capacity_bytes=1 << 20, page_size=4096)
        assert cfg.capacity_pages == 256

    def test_tiny_cache_has_one_set(self):
        cfg = PageCacheConfig(capacity_bytes=2 * 4096, page_size=4096, associativity=8)
        assert cfg.num_sets == 1
        assert cfg.set_capacity == 2

    def test_cache_holds_at_least_one_page(self):
        cfg = PageCacheConfig(capacity_bytes=1, page_size=4096)
        assert cfg.capacity_pages == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PageCache(PageCacheConfig(capacity_bytes=-(1 << 20)))


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not lookup(cache, 0, 5)
        insert(cache, 0, 5)
        assert lookup(cache, 0, 5)

    def test_contains_does_not_count_stats(self):
        stats = StatsCollector()
        cache = PageCache(PageCacheConfig(capacity_bytes=16 * 4096), stats)
        insert(cache, 0, 1)
        assert cache.contains(0, 1)
        assert not cache.contains(0, 2)
        assert stats.get("cache.hits") == 0
        assert stats.get("cache.misses") == 0

    def test_distinct_files_are_distinct_pages(self):
        cache = make_cache()
        insert(cache, 0, 5)
        assert not lookup(cache, 1, 5)

    def test_reinsert_refreshes_not_grows(self):
        cache = make_cache()
        insert(cache, 0, 1)
        insert(cache, 0, 1)
        assert len(cache) == 1

    def test_eviction_is_lru_within_set(self):
        # One set of capacity 2: inserting a third page evicts the LRU one.
        cache = make_cache(capacity_pages=2, associativity=2)
        insert(cache, 0, 0)
        insert(cache, 0, 1)
        lookup(cache, 0, 0)  # refresh page 0
        assert insert(cache, 0, 2) == 1
        assert cache.contains(0, 0)
        assert not cache.contains(0, 1)

    def test_hit_rate(self):
        cache = make_cache()
        assert cache.hit_rate() == 0.0
        lookup(cache, 0, 1)
        insert(cache, 0, 1)
        lookup(cache, 0, 1)
        assert cache.hit_rate() == 0.5

    def test_clear(self):
        cache = make_cache()
        insert(cache, 0, 1)
        cache.clear()
        assert len(cache) == 0
        assert not cache.contains(0, 1)

    def test_page_data_preserved(self):
        # The cache holds the page's key; the bytes a hit stands for are
        # the file image's, which is what the engine decodes.
        cache = make_cache()
        file = SAFSFile("f", bytes(4096) + b"payload")
        insert(cache, file.file_id, 1)
        assert lookup(cache, file.file_id, 1)
        assert bytes(file.read(4096, 7)) == b"payload"


class TestProperties:
    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=200), max_size=300),
        capacity=st.integers(min_value=1, max_value=64),
        assoc=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity(self, accesses, capacity, assoc):
        cache = make_cache(capacity_pages=capacity, associativity=assoc)
        for page_no in accesses:
            if not lookup(cache, 0, page_no):
                insert(cache, 0, page_no)
            assert len(cache) <= cache.config.capacity_pages

    @given(accesses=st.lists(st.integers(min_value=0, max_value=50), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_lookups(self, accesses):
        stats = StatsCollector()
        cache = PageCache(PageCacheConfig(capacity_bytes=8 * 4096), stats)
        for page_no in accesses:
            if not lookup(cache, 0, page_no):
                insert(cache, 0, page_no)
        total = stats.get("cache.hits") + stats.get("cache.misses")
        assert total == len(accesses)

    @given(accesses=st.lists(st.integers(min_value=0, max_value=30), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_lookup_after_insert_without_eviction_hits(self, accesses):
        # With capacity larger than the universe, nothing is ever evicted,
        # so a second lookup of any inserted page must hit.
        cache = make_cache(capacity_pages=64, associativity=64)
        inserted = set()
        for page_no in accesses:
            if not lookup(cache, 0, page_no):
                assert page_no not in inserted
                insert(cache, 0, page_no)
                inserted.add(page_no)
            else:
                assert page_no in inserted


class TestPerSetTracking:
    def test_off_by_default(self):
        cache = make_cache()
        insert(cache, 0, 1)
        lookup(cache, 0, 1)
        lookup(cache, 0, 2)
        assert cache.set_hit_rate_samples() == {}

    def test_tracks_hits_and_misses_per_set(self):
        cache = make_cache(capacity_pages=8, associativity=8)  # one set
        cache.enable_set_tracking()
        insert(cache, 0, 1)
        lookup(cache, 0, 1)  # hit
        lookup(cache, 0, 2)  # miss
        lookup(cache, 0, 1)  # hit
        samples = cache.set_hit_rate_samples()
        assert samples == {0: 2 / 3}

    def test_lookup_range_counts_like_scalar_lookups(self):
        scalar, bulk = make_cache(), make_cache()
        for cache in (scalar, bulk):
            cache.enable_set_tracking()
            for n in (2, 4, 5):
                insert(cache, 0, n)
        for n in range(8):
            lookup(scalar, 0, n)
        bulk.lookup_range(0, 0, 7)
        assert scalar.set_hit_rate_samples() == bulk.set_hit_rate_samples()

    def test_unprobed_sets_omitted(self):
        cache = make_cache(capacity_pages=16, associativity=1)  # 16 sets
        cache.enable_set_tracking()
        lookup(cache, 0, 0)
        samples = cache.set_hit_rate_samples()
        assert len(samples) == 1
        assert set(samples.values()) == {0.0}

    def test_idempotent_enable_keeps_tallies(self):
        cache = make_cache(capacity_pages=8, associativity=8)
        cache.enable_set_tracking()
        insert(cache, 0, 1)
        lookup(cache, 0, 1)
        cache.enable_set_tracking()
        assert cache.set_hit_rate_samples() == {0: 1.0}
