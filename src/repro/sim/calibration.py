"""Device-model microbenchmarks (a fio for the simulator).

These routines drive the simulated SSD array exactly the way a storage
engineer profiles real hardware — random-read IOPS versus request size,
sequential bandwidth, completion latency — and report the measured curve.
They exist to *verify the model against its own spec*: the tests assert
the measured numbers land on the configured envelope (60K IOPS/device,
the 1:2.4 random:sequential ratio), and ``docs/cost_model.md`` points
here for the receipts.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.ssd import FLASH_PAGE_SIZE
from repro.sim.ssd_array import SSDArray, SSDArrayConfig


@dataclass(frozen=True)
class ProfilePoint:
    """One measured point of the device profile."""

    request_pages: int
    iops: float
    bandwidth: float
    mean_latency: float


def profile_random_reads(
    array: Optional[SSDArray] = None,
    request_pages_sweep: tuple = (1, 2, 4, 8, 16, 64, 256),
    requests_per_point: int = 2000,
) -> List[ProfilePoint]:
    """Measure the array's read curve across request sizes.

    Requests are spread across the page space so every device participates
    — the access pattern of a well-merged FlashGraph iteration.
    """
    if requests_per_point <= 0:
        raise ValueError("need at least one request per point")
    points: List[ProfilePoint] = []
    for pages in request_pages_sweep:
        if pages <= 0:
            raise ValueError("request sizes must be positive")
        device = array or SSDArray(SSDArrayConfig())
        device.reset()
        # Consecutive requests start on consecutive stripes, so they
        # rotate across the devices instead of aliasing onto one.
        stripe = device.config.stripe_pages
        stripes_per_request = max(1, (pages + stripe - 1) // stripe)
        stride = stripes_per_request * stripe
        completions = []
        for i in range(requests_per_point):
            first = (i * stride) % (1 << 30)
            # A request completes when its slowest per-device run does.
            completion = 0.0
            for index, _, run_pages in device.split_extent_runs(first, pages):
                completion = max(completion, device.submit_run(index, 0.0, run_pages).time)
            completions.append(completion)
        drain = device.drain_time()
        iops = requests_per_point / drain
        bandwidth = iops * pages * FLASH_PAGE_SIZE
        mean_latency = sum(completions) / len(completions)
        points.append(ProfilePoint(pages, iops, bandwidth, mean_latency))
        device.reset()
    return points


def measured_envelope(points: List[ProfilePoint]) -> Dict[str, float]:
    """Summary figures a datasheet would quote."""
    if not points:
        raise ValueError("no profile points")
    by_pages = {p.request_pages: p for p in points}
    smallest = by_pages[min(by_pages)]
    largest = by_pages[max(by_pages)]
    return {
        "random_4k_iops": smallest.iops,
        "random_4k_bandwidth": smallest.bandwidth,
        "sequential_bandwidth": largest.bandwidth,
        "seq_to_random_ratio": largest.bandwidth / smallest.bandwidth,
    }


def expected_envelope(
    config: Optional[SSDArrayConfig] = None,
) -> Dict[str, float]:
    """The configured spec the measurement must land on."""
    config = config or SSDArrayConfig()
    return {
        "random_4k_iops": config.max_iops,
        "random_4k_bandwidth": config.max_iops * FLASH_PAGE_SIZE,
        "sequential_bandwidth": config.max_bandwidth,
        "seq_to_random_ratio": (
            config.ssd_config.seq_bandwidth / config.ssd_config.random_bandwidth
        ),
    }
