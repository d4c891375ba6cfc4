"""Unit tests for the single-device SSD service model."""

import pytest

from repro.sim.ssd import FLASH_PAGE_SIZE, SSD, SSDConfig
from repro.sim.stats import StatsCollector


class TestSSDConfig:
    def test_default_random_to_sequential_ratio_matches_paper(self):
        # The paper motivates SEM by SSD random 4KB throughput being only
        # 2-3x below sequential throughput (§3).
        cfg = SSDConfig()
        ratio = cfg.seq_bandwidth / cfg.random_bandwidth
        assert 2.0 <= ratio <= 3.0

    def test_fixed_overhead_positive(self):
        assert SSDConfig().fixed_overhead > 0.0

    def test_inconsistent_config_rejected(self):
        cfg = SSDConfig(max_iops=1e9, seq_bandwidth=1e6)
        with pytest.raises(ValueError):
            _ = cfg.fixed_overhead

    def test_one_page_service_time_matches_iops(self):
        ssd = SSD(SSDConfig(max_iops=50_000.0))
        assert ssd.service_time(1) == pytest.approx(1.0 / 50_000.0)


class TestSSDSubmit:
    def test_sequential_requests_queue_fifo(self):
        ssd = SSD()
        t1 = ssd.submit_request(0.0, 1).time
        t2 = ssd.submit_request(0.0, 1).time
        service = ssd.service_time(1)
        latency = ssd.config.read_latency
        assert t1 == pytest.approx(service + latency)
        assert t2 == pytest.approx(2 * service + latency)

    def test_idle_device_starts_at_arrival(self):
        ssd = SSD()
        done = ssd.submit_request(1.0, 1).time
        assert done == pytest.approx(1.0 + ssd.service_time(1) + ssd.config.read_latency)

    def test_large_request_approaches_seq_bandwidth(self):
        cfg = SSDConfig()
        ssd = SSD(cfg)
        pages = 10_000
        done = ssd.submit_request(0.0, pages).time
        effective_bw = pages * FLASH_PAGE_SIZE / (done - cfg.read_latency)
        assert effective_bw > 0.95 * cfg.seq_bandwidth

    def test_random_read_rate_capped_at_iops(self):
        cfg = SSDConfig(max_iops=10_000.0)
        ssd = SSD(cfg)
        last = 0.0
        for _ in range(100):
            last = ssd.submit_request(0.0, 1).time
        achieved_iops = 100 / (last - cfg.read_latency)
        assert achieved_iops == pytest.approx(10_000.0)

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            SSD().submit_request(0.0, 0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            SSD().submit_request(-1.0, 1)

    def test_nan_arrival_rejected_without_poisoning_the_queue(self):
        ssd = SSD()
        with pytest.raises(ValueError):
            ssd.submit_request(float("nan"), 1)
        assert ssd.busy_until == 0.0
        ssd.submit_request(0.0, 1)
        done = ssd.submit_request(0.0, 1).time
        assert done == pytest.approx(2 * ssd.service_time(1) + ssd.config.read_latency)

    def test_stats_accumulate(self):
        stats = StatsCollector()
        ssd = SSD(stats=stats)
        ssd.submit_request(0.0, 3)
        ssd.submit_request(0.0, 2)
        assert stats.get("ssd.requests") == 2
        assert stats.get("ssd.pages_read") == 5
        assert stats.get("ssd.bytes_read") == 5 * FLASH_PAGE_SIZE

    def test_busy_time_tracks_service_only(self):
        ssd = SSD()
        ssd.submit_request(0.0, 1)
        ssd.submit_request(100.0, 1)
        assert ssd.busy_time == pytest.approx(2 * ssd.service_time(1))

    def test_reset_clears_queue(self):
        ssd = SSD()
        ssd.submit_request(0.0, 10)
        ssd.reset()
        assert ssd.busy_until == 0.0
        assert ssd.busy_time == 0.0

    def test_reset_clears_every_mutable_field(self):
        """Regression: reset() once left the attempt ordinal and stall
        total behind, so a reused device replayed fault plans differently
        from a fresh one.  Every non-configuration attribute must return
        to its construction value."""
        ssd = SSD()
        for i in range(5):
            ssd.submit_request(i * 1e-4, 3)
        ssd.reset()
        pristine = {
            k: v
            for k, v in vars(SSD(config=ssd.config, stats=ssd.stats)).items()
        }
        assert vars(ssd) == pristine
