"""Unit tests for the striped SSD array."""

import pytest

from repro.sim.ssd import FLASH_PAGE_SIZE, SSDConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.sim.reference_device import read_extent


def small_array(num_ssds=4, stripe_pages=2):
    return SSDArray(SSDArrayConfig(num_ssds=num_ssds, stripe_pages=stripe_pages))


def split(array, first_page, num_pages):
    """``(device, run_pages)`` of each per-device run of an extent."""
    return [
        (device, pages)
        for device, _, pages in array.split_extent_runs(first_page, num_pages)
    ]


class TestGeometry:
    def test_default_matches_paper_chassis(self):
        cfg = SSDArrayConfig()
        assert cfg.num_ssds == 15
        # ~900K aggregate IOPS (§5).
        assert cfg.max_iops == pytest.approx(900_000.0)

    def test_device_for_page_round_robin_by_stripe(self):
        array = small_array(num_ssds=3, stripe_pages=2)
        owners = [array.device_for_page(p) for p in range(8)]
        assert owners == [0, 0, 1, 1, 2, 2, 0, 0]

    def test_device_for_negative_page_rejected(self):
        with pytest.raises(ValueError):
            small_array().device_for_page(-1)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SSDArray(SSDArrayConfig(num_ssds=0))
        with pytest.raises(ValueError):
            SSDArray(SSDArrayConfig(stripe_pages=0))


class TestSplitExtent:
    def test_within_one_stripe(self):
        array = small_array(num_ssds=3, stripe_pages=4)
        assert split(array, 1, 2) == [(0, 2)]

    def test_crossing_one_boundary(self):
        array = small_array(num_ssds=3, stripe_pages=4)
        assert split(array, 2, 4) == [(0, 2), (1, 2)]

    def test_spanning_many_stripes(self):
        array = small_array(num_ssds=2, stripe_pages=2)
        runs = split(array, 0, 7)
        assert runs == [(0, 2), (1, 2), (0, 2), (1, 1)]
        assert sum(pages for _, pages in runs) == 7

    def test_empty_extent_rejected(self):
        with pytest.raises(ValueError):
            split(small_array(), 0, 0)

    def test_runs_cover_extent_exactly(self):
        array = small_array(num_ssds=5, stripe_pages=3)
        for start in range(10):
            for length in range(1, 20):
                runs = split(array, start, length)
                assert sum(pages for _, pages in runs) == length
                page = start
                for device, pages in runs:
                    assert array.device_for_page(page) == device
                    page += pages


class TestSubmit:
    def test_parallel_devices_beat_single_device(self):
        stripe = 1
        array = small_array(num_ssds=4, stripe_pages=stripe)
        single = SSDArray(SSDArrayConfig(num_ssds=1, stripe_pages=stripe))
        # 4 pages across 4 devices complete faster than on one device.
        parallel_done = read_extent(array, 0.0, 0, 4)
        serial_done = read_extent(single, 0.0, 0, 4)
        assert parallel_done < serial_done

    def test_completion_is_max_of_subrequests(self):
        array = small_array(num_ssds=2, stripe_pages=1)
        done = read_extent(array, 0.0, 0, 2)
        ssd = array.ssds[0]
        # Each device serviced one page starting at t=0.
        assert done == pytest.approx(ssd.service_time(1) + ssd.config.read_latency)

    def test_stats_aggregate(self):
        stats = StatsCollector()
        array = SSDArray(SSDArrayConfig(num_ssds=2, stripe_pages=1), stats)
        read_extent(array, 0.0, 0, 3)
        assert stats.get("array.requests") == 1
        assert stats.get("array.pages_read") == 3
        assert stats.get("array.bytes_read") == 3 * FLASH_PAGE_SIZE
        # Sub-requests recorded at device level: pages 0,2 -> ssd0, page 1 -> ssd1.
        assert stats.get("ssd.requests") == 3

    def test_utilization_bounds(self):
        array = small_array()
        read_extent(array, 0.0, 0, 8)
        wall = array.drain_time()
        util = array.utilization(wall)
        assert 0.0 < util <= 1.0
        assert array.utilization(0.0) == 0.0

    def test_reset(self):
        array = small_array()
        read_extent(array, 0.0, 0, 8)
        array.reset()
        assert array.drain_time() == 0.0
        assert array.busy_time() == 0.0


class TestThroughputShape:
    def test_aggregate_iops_scales_with_devices(self):
        cfg = SSDConfig(max_iops=1000.0)
        one = SSDArray(SSDArrayConfig(num_ssds=1, stripe_pages=1, ssd_config=cfg))
        four = SSDArray(SSDArrayConfig(num_ssds=4, stripe_pages=1, ssd_config=cfg))
        # Issue 400 independent one-page reads spread over the address space.
        for page in range(400):
            read_extent(one, 0.0, page, 1)
            read_extent(four, 0.0, page, 1)
        speedup = one.drain_time() / four.drain_time()
        assert speedup == pytest.approx(4.0, rel=0.05)
