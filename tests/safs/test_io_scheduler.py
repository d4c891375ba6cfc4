"""Direct unit tests for the SAFS I/O scheduler."""

import pytest

from repro.safs.io_scheduler import IOScheduler
from repro.safs.page import SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.cost_model import CostModel
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.safs.reads import dispatch_bytes

PAGE = 4096


@pytest.fixture()
def scheduler():
    stats = StatsCollector()
    array = SSDArray(SSDArrayConfig(num_ssds=2, stripe_pages=2), stats)
    cache = PageCache(PageCacheConfig(capacity_bytes=32 * PAGE), stats)
    return IOScheduler(array, cache, CostModel(), PAGE, stats)


class TestRegistration:
    def test_register_and_query(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 4))
        assert not scheduler.is_registered(file)
        scheduler.register_file(file)
        assert scheduler.is_registered(file)

    def test_double_registration_rejected(self, scheduler):
        file = SAFSFile("a", bytes(PAGE))
        scheduler.register_file(file)
        with pytest.raises(ValueError):
            scheduler.register_file(file)

    def test_files_laid_out_consecutively(self, scheduler):
        a = SAFSFile("a", bytes(PAGE * 3))
        b = SAFSFile("b", bytes(PAGE * 2))
        scheduler.register_file(a)
        scheduler.register_file(b)
        a_first, a_count = scheduler._flash_extent(a, 0, 3)
        b_first, _ = scheduler._flash_extent(b, 0, 1)
        assert b_first == a_first + a_count

    def test_dispatch_unregistered_rejected(self, scheduler):
        rogue = SAFSFile("rogue", bytes(PAGE))
        with pytest.raises(ValueError):
            dispatch_bytes(scheduler, rogue, 0, 10, 0.0)

    def test_invalid_page_size(self):
        array = SSDArray(SSDArrayConfig(num_ssds=1))
        cache = PageCache()
        with pytest.raises(ValueError):
            IOScheduler(array, cache, CostModel(), 0)


class TestDispatch:
    def test_miss_then_hit(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 4))
        scheduler.register_file(file)
        done1, cpu1, hit1 = dispatch_bytes(scheduler, file, 0, PAGE, 0.0)
        assert not hit1
        done2, cpu2, hit2 = dispatch_bytes(scheduler, file, 0, PAGE, done1)
        assert hit2
        assert cpu2 < cpu1  # no page transfer on the hit path

    def test_partial_hit_single_span(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        dispatch_bytes(scheduler, file, 0, 2 * PAGE, 0.0)
        before = scheduler.stats.get("io.pages_fetched")
        dispatch_bytes(scheduler, file, 0, 6 * PAGE, 1.0)
        # Pages 0-1 cached: only 2-5 fetched.
        assert scheduler.stats.get("io.pages_fetched") == before + 4

    def test_hole_in_cache_fetches_two_spans(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 8))
        scheduler.register_file(file)
        # Prime the middle pages 2-3.
        dispatch_bytes(scheduler, file, 2 * PAGE, 2 * PAGE, 0.0)
        requests_before = scheduler.stats.get("ssd.requests")
        dispatch_bytes(scheduler, file, 0, 8 * PAGE, 1.0)
        # Two missing runs (0-1 and 4-7), each striped over devices.
        assert scheduler.stats.get("ssd.requests") > requests_before + 1
        assert scheduler.stats.get("io.pages_fetched") == 2 + 6

    def test_full_hit_completes_at_issue_time(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 2))
        scheduler.register_file(file)
        dispatch_bytes(scheduler, file, 0, 2 * PAGE, 0.0)
        done, _, hit = dispatch_bytes(scheduler, file, 0, 2 * PAGE, 5.0)
        assert hit
        assert done == 5.0

    def test_cpu_cost_scales_with_span(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 16))
        scheduler.register_file(file)
        _, small_cpu, _ = dispatch_bytes(scheduler, file, 0, PAGE, 0.0)
        scheduler.cache.clear()
        _, big_cpu, _ = dispatch_bytes(scheduler, file, 0, 16 * PAGE, 0.0)
        assert big_cpu > small_cpu

    def test_span_past_eof_rejected_before_any_counter_moves(self, scheduler):
        file = SAFSFile("a", bytes(PAGE * 4))
        scheduler.register_file(file)
        dispatch_bytes(scheduler, file, 0, PAGE, 0.0)
        before = scheduler.stats.snapshot()
        with pytest.raises(ValueError, match="past EOF"):
            scheduler.dispatch_span(file, 2, 4, 1.0)
        assert scheduler.stats.snapshot() == before
        assert len(scheduler.cache) == 1

    @pytest.mark.parametrize("first, last", [(2, 1), (-3, 0), (-1, -1)])
    def test_inverted_or_negative_span_rejected_before_any_counter_moves(
        self, scheduler, first, last
    ):
        # An inverted span would count as a zero-page full hit; a negative
        # first page would read flash pages of the file laid out before.
        before_file = SAFSFile("before", bytes(PAGE * 4))
        file = SAFSFile("a", bytes(PAGE * 4))
        scheduler.register_file(before_file)
        scheduler.register_file(file)
        dispatch_bytes(scheduler, file, 0, PAGE, 0.0)
        before = scheduler.stats.snapshot()
        with pytest.raises(ValueError, match="inverted or negative"):
            scheduler.dispatch_span(file, first, last, 1.0)
        assert scheduler.stats.snapshot() == before
        assert len(scheduler.cache) == 1
