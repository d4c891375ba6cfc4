"""Service-time model for a single commodity SSD.

The paper's array is built from OCZ Vertex 4 drives delivering roughly
60,000 random 4KB reads per second each, with sequential throughput only
2–3x higher than random 4KB throughput — the property that lets FlashGraph
prioritise *reading fewer bytes* over *reading sequentially* (§3).

The model is a single FIFO server with pipelined completion latency:

- a request for ``n`` pages occupies the device for
  ``fixed_overhead + n * page_transfer_time`` seconds,
- ``fixed_overhead`` is derived from the device's IOPS limit, so one-page
  random reads sustain exactly ``max_iops``,
- large merged requests asymptotically reach ``seq_bandwidth``,
- every completion is additionally delayed by ``read_latency`` without
  occupying the server (NCQ pipelining), which is what the engine's
  computation/I/O overlap has to hide.
"""

from dataclasses import dataclass
from typing import Optional

from repro.obs import registry as reg
from repro.sim.faults import DeviceCompletion, FaultPlan
from repro.sim.stats import StatsCollector

#: Flash page size: SSDs store and access data at 4KB granularity (§5.4.2).
FLASH_PAGE_SIZE = 4096


@dataclass(frozen=True)
class SSDConfig:
    """Performance envelope of one device.

    Defaults model one OCZ Vertex 4 as reported in the paper: ~60K random
    4KB reads per second, with a sequential stream roughly 2.4x faster.
    """

    #: Sustained random 4KB read operations per second.
    max_iops: float = 60_000.0
    #: Sustained large-request read bandwidth in bytes per second.
    seq_bandwidth: float = 560e6
    #: Pipelined per-request completion latency in seconds.
    read_latency: float = 80e-6

    @property
    def page_transfer_time(self) -> float:
        """Seconds to move one flash page at sequential bandwidth."""
        return FLASH_PAGE_SIZE / self.seq_bandwidth

    @property
    def fixed_overhead(self) -> float:
        """Per-request setup time implied by the IOPS limit."""
        overhead = 1.0 / self.max_iops - self.page_transfer_time
        if overhead <= 0.0:
            raise ValueError(
                "max_iops and seq_bandwidth are inconsistent: a one-page "
                "request would have to take non-positive setup time"
            )
        return overhead

    @property
    def random_bandwidth(self) -> float:
        """Bytes per second sustained by back-to-back one-page reads."""
        return self.max_iops * FLASH_PAGE_SIZE


class SSD:
    """One simulated device with a FIFO service queue.

    SAFS deploys a dedicated I/O thread per SSD; this class *is* that
    thread's view of the device.  :meth:`submit_request` is the only
    operation — writes never happen during computation because the
    semi-external model avoids writing to SSDs (§3, "Minimize write").
    """

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        stats: Optional[StatsCollector] = None,
        name: str = "ssd0",
        fault_plan: Optional[FaultPlan] = None,
        device_index: int = 0,
    ) -> None:
        self.config = config or SSDConfig()
        self.stats = stats if stats is not None else StatsCollector()
        self.name = name
        self.fault_plan = fault_plan
        self.device_index = device_index
        #: Armed observer (see :mod:`repro.obs`); ``None`` = no tracing.
        self.obs = None
        #: Busy-time attribution callback ``(device_index, service)``,
        #: fired for every service charge; the serve layer's tenant
        #: accountant uses it to tile ``busy_time`` across tenants
        #: exactly.  ``None`` = no attribution work.
        self.tenant_sink = None
        self._busy_until = 0.0
        self._busy_time = 0.0
        # Monotone attempt ordinal: seeds the deterministic fault coin, so
        # it is part of the device's replay-relevant mutable state and
        # must be cleared by :meth:`reset`.
        self._attempts = 0
        self._stall_time = 0.0

    @property
    def stall_time(self) -> float:
        """Total seconds arrivals spent stalled in stuck-queue windows."""
        return self._stall_time

    @property
    def busy_until(self) -> float:
        """Virtual time at which the device drains its current queue."""
        return self._busy_until

    @property
    def busy_time(self) -> float:
        """Total seconds the device has spent servicing requests."""
        return self._busy_time

    def service_time(self, num_pages: int) -> float:
        """Seconds the device is occupied by a request for ``num_pages``."""
        if num_pages <= 0:
            raise ValueError("a read request must cover at least one page")
        cfg = self.config
        return cfg.fixed_overhead + num_pages * cfg.page_transfer_time

    def submit_request(self, arrival_time: float, num_pages: int) -> DeviceCompletion:
        """Enqueue a read and return its :class:`DeviceCompletion`.

        The device services requests in arrival order; completion
        additionally includes the pipelined ``read_latency``.  Under a
        fault plan a dead device rejects the attempt immediately (no
        service charged); stuck-queue windows delay the effective
        arrival; latency spikes inflate the service time; transient-error
        windows complete the attempt — charging its full service — but
        flag the data bad so the SAFS layer retries.  Without a plan none
        of those steps runs and the attempt ordinal does not move.
        """
        if not arrival_time >= 0.0:
            raise ValueError(f"arrival_time must be >= 0, got {arrival_time!r}")
        if num_pages < 1:
            raise ValueError("a read request must cover at least one page")
        plan = self.fault_plan
        device = self.device_index
        start = arrival_time
        if plan is not None:
            if plan.is_dead(device, arrival_time):
                self.stats.add(reg.FAULTS_DEAD_REQUESTS)
                if self.obs is not None:
                    self.obs.device_span(
                        self, arrival_time, arrival_time, 0.0, num_pages,
                        "dead", arrival_time,
                    )
                return DeviceCompletion(arrival_time, False, "dead", 0.0, device)
            start = plan.stall_release(device, arrival_time)
            if start > arrival_time:
                stalled = start - arrival_time
                self._stall_time += stalled
                self.stats.add(reg.FAULTS_STALLED_REQUESTS)
                self.stats.add(reg.FAULTS_STALL_TIME, stalled)
            self._attempts += 1
        service = self.service_time(num_pages)
        start = max(start, self._busy_until)
        if plan is not None:
            factor = plan.service_factor(device, start)
            if factor != 1.0:
                service *= factor
                self.stats.add(reg.FAULTS_SPIKED_REQUESTS)
        self._busy_until = start + service
        self._busy_time += service
        if self.tenant_sink is not None:
            self.tenant_sink(device, service)
        self.stats.add(reg.SSD_REQUESTS)
        self.stats.add(reg.SSD_PAGES_READ, num_pages)
        self.stats.add(reg.SSD_BYTES_READ, num_pages * FLASH_PAGE_SIZE)
        done = self._busy_until + self.config.read_latency
        error = None
        if plan is not None and plan.read_error(device, self._attempts, start):
            self.stats.add(reg.FAULTS_TRANSIENT_ERRORS)
            error = "transient"
        if self.obs is not None:
            self.obs.device_span(
                self, arrival_time, start, service, num_pages, error or "ok", done
            )
        return DeviceCompletion(done, error is None, error, service, device)

    def media_rotted(self, first_page: int, num_pages: int, time: float) -> int:
        """Rotted flash pages among ``[first_page, first_page+num_pages)``.

        The device's view of its own media: silent bit rot the drive's
        ECC misses.  The device still reports the read as *good* — only
        the SAFS integrity layer's per-page checksums catch the damage —
        so this is queried by the scheduler at completion time, never by
        :meth:`submit_request` itself.
        """
        plan = self.fault_plan
        if plan is None:
            return 0
        return plan.corrupted_in_run(self.device_index, first_page, num_pages, time)

    def export_state(self) -> dict:
        """Every replay-relevant mutable field, for checkpointing."""
        return {
            "busy_until": self._busy_until,
            "busy_time": self._busy_time,
            "attempts": self._attempts,
            "stall_time": self._stall_time,
        }

    def restore_state(self, state: dict) -> None:
        """Reinstate :meth:`export_state` output bit for bit."""
        self._busy_until = float(state["busy_until"])
        self._busy_time = float(state["busy_time"])
        self._attempts = int(state["attempts"])
        self._stall_time = float(state["stall_time"])

    def reset(self) -> None:
        """Clear all mutable per-run state (not the shared stats).

        Every field :meth:`submit_request` mutates is reset — including
        the attempt ordinal that seeds the fault coin, so a reset device
        replays a fault plan exactly like a freshly built one.
        """
        self._busy_until = 0.0
        self._busy_time = 0.0
        self._attempts = 0
        self._stall_time = 0.0
