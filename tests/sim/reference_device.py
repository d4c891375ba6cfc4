"""Oracle for the plan-free device read path.

A fault-free array once read an extent through a shortcut of its own:
``SSDArray.submit`` split the extent at stripe boundaries and queued
each run on ``SSD.submit``, a FIFO with one horizon.  The read path is
now one loop, ``IOScheduler._fetch_extent`` driving every run through
the fault-recovery machinery; this module keeps the shortcut's
arithmetic and counter stream verbatim, so a property test can hold the
one loop to it bit for bit on plan-free arrays.
"""

from repro.obs import registry as reg
from repro.safs.io_scheduler import IOScheduler
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.cost_model import CostModel
from repro.sim.parity import ParityLayout
from repro.sim.ssd import FLASH_PAGE_SIZE


class OracleSSD:
    """One device: a FIFO server with pipelined completion latency."""

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        self.busy_until = 0.0
        self.busy_time = 0.0

    def submit(self, arrival_time, num_pages):
        cfg = self.config
        service = cfg.fixed_overhead + num_pages * cfg.page_transfer_time
        start = max(arrival_time, self.busy_until)
        self.busy_until = start + service
        self.busy_time += service
        self.stats.add(reg.SSD_REQUESTS)
        self.stats.add(reg.SSD_PAGES_READ, num_pages)
        self.stats.add(reg.SSD_BYTES_READ, num_pages * FLASH_PAGE_SIZE)
        return self.busy_until + cfg.read_latency


class OracleArray:
    """Round-robin (or rotating-parity) stripes over :class:`OracleSSD`s."""

    def __init__(self, config, stats, parity=False):
        self.config = config
        self.stats = stats
        self.ssds = [OracleSSD(config.ssd_config, stats) for _ in range(config.num_ssds)]
        self.layout = (
            ParityLayout(config.num_ssds, config.stripe_pages) if parity else None
        )

    def device_for_page(self, page_no):
        if self.layout is not None:
            return self.layout.device_for_page(page_no)
        return (page_no // self.config.stripe_pages) % self.config.num_ssds

    def submit(self, arrival_time, first_page, num_pages):
        """Read an extent; it completes when its slowest run does."""
        completion = arrival_time
        stripe = self.config.stripe_pages
        page = first_page
        remaining = num_pages
        while remaining > 0:
            run = min(remaining, (page // stripe + 1) * stripe - page)
            done = self.ssds[self.device_for_page(page)].submit(arrival_time, run)
            if done > completion:
                completion = done
            page += run
            remaining -= run
        self.stats.add(reg.ARRAY_REQUESTS)
        self.stats.add(reg.ARRAY_PAGES_READ, num_pages)
        self.stats.add(reg.ARRAY_BYTES_READ, num_pages * FLASH_PAGE_SIZE)
        return completion


def scheduler_over(array, page_size=FLASH_PAGE_SIZE):
    """An :class:`IOScheduler` over ``array``, sharing its stats."""
    cache = PageCache(PageCacheConfig(capacity_bytes=8 * page_size, page_size=page_size))
    return IOScheduler(array, cache, CostModel(), page_size, array.stats)


def read_extent(array, arrival_time, first_page, num_pages):
    """Read one flash extent through the device read path; its completion."""
    return scheduler_over(array)._fetch_extent(arrival_time, first_page, num_pages)
