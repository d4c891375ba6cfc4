"""A striped array of simulated SSDs.

The paper's testbed attaches 15 SSDs that together deliver ~900,000 reads
per second.  SAFS stripes file pages across the devices and drives each one
from a dedicated I/O thread; here each :class:`~repro.sim.ssd.SSD` carries
its own queue: :meth:`SSDArray.split_extent_runs` splits a request at
stripe boundaries into per-device runs, each submitted through
:meth:`SSDArray.submit_run`, and the SAFS scheduler completes the request
when its latest run completes.

With a :class:`~repro.sim.parity.ParityConfig` attached the array lays
pages out in rotating-parity rows instead of plain round-robin: a lost
data run (dead device, rotted page) is reconstructed from the row's
surviving peers at full DES cost, and a background scrubber rebuilds a
declared-dead device onto a hot spare while reads keep flowing.  Parity
is strictly opt-in — without it every placement and counter matches the
historical array bit for bit.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import registry as reg
from repro.sim.faults import DeviceCompletion, FaultPlan
from repro.sim.health import HealthMonitor
from repro.sim.parity import ParityConfig, ParityLayout, RebuildState
from repro.sim.ssd import FLASH_PAGE_SIZE, SSD, SSDConfig
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class SSDArrayConfig:
    """Array geometry.  Defaults match the paper's 15-SSD chassis."""

    #: Number of devices in the array.
    num_ssds: int = 15
    #: Stripe unit in flash pages (64KB stripes by default).
    stripe_pages: int = 16
    #: Per-device performance envelope.
    ssd_config: SSDConfig = SSDConfig()

    @property
    def max_iops(self) -> float:
        """Aggregate random-read IOPS (paper: ~900K)."""
        return self.num_ssds * self.ssd_config.max_iops

    @property
    def max_bandwidth(self) -> float:
        """Aggregate sequential read bandwidth in bytes per second."""
        return self.num_ssds * self.ssd_config.seq_bandwidth


class SSDArray:
    """Pages striped round-robin (by stripe unit) over the devices."""

    def __init__(
        self,
        config: Optional[SSDArrayConfig] = None,
        stats: Optional[StatsCollector] = None,
        device_configs: Optional[List[SSDConfig]] = None,
        fault_plan: Optional[FaultPlan] = None,
        parity: Optional[ParityConfig] = None,
    ) -> None:
        """``device_configs`` overrides the per-device envelope (one entry
        per device) — used to model stragglers: a degraded drive slows only
        the requests striped onto it, since SAFS drives each device from
        its own I/O thread and queue.  ``fault_plan`` injects scheduled
        faults into every device (see :mod:`repro.sim.faults`); ``parity``
        opts the array into rotating-parity placement with hot spares
        (see :mod:`repro.sim.parity`)."""
        self.config = config or SSDArrayConfig()
        #: Armed observer (see :mod:`repro.obs`); ``None`` = no tracing.
        self.obs = None
        if self.config.num_ssds <= 0:
            raise ValueError("an SSD array needs at least one device")
        if self.config.stripe_pages <= 0:
            raise ValueError("the stripe unit must be at least one page")
        if device_configs is not None and len(device_configs) != self.config.num_ssds:
            raise ValueError("device_configs must have one entry per device")
        self.stats = stats if stats is not None else StatsCollector()
        self.fault_plan = fault_plan
        self.parity = parity
        self.layout: Optional[ParityLayout] = None
        if parity is not None:
            self.layout = ParityLayout(self.config.num_ssds, self.config.stripe_pages)
        #: Health monitor attached by the SAFS layer (see ``sim/health.py``);
        #: consulted by :meth:`reroute_target` so degraded reads skip
        #: quarantined devices, not just dead ones.
        self.health: Optional[HealthMonitor] = None
        configs = device_configs or [self.config.ssd_config] * self.config.num_ssds
        self._ssds: List[SSD] = [
            SSD(cfg, self.stats, name=f"ssd{i}", fault_plan=fault_plan, device_index=i)
            for i, cfg in enumerate(configs)
        ]
        num_spares = parity.hot_spares if parity is not None else 0
        self._spares: List[SSD] = [
            SSD(
                self.config.ssd_config,
                self.stats,
                name=f"spare{j}",
                fault_plan=fault_plan,
                device_index=self.config.num_ssds + j,
            )
            for j in range(num_spares)
        ]
        self._next_spare = 0
        #: Flash pages of data laid out on the array (SAFS reports each
        #: registered file through :meth:`note_capacity`); the rebuild
        #: total is derived from it.
        self._capacity_pages = 0
        self._rebuilds: Dict[int, RebuildState] = {}

    @property
    def ssds(self) -> Tuple[SSD, ...]:
        return tuple(self._ssds)

    @property
    def spares(self) -> Tuple[SSD, ...]:
        """Hot-spare devices (empty without a parity config)."""
        return tuple(self._spares)

    def device(self, index: int) -> SSD:
        """The device (or hot spare) with array index ``index``."""
        if index < self.config.num_ssds:
            return self._ssds[index]
        return self._spares[index - self.config.num_ssds]

    def device_for_page(self, page_no: int) -> int:
        """Index of the device that stores ``page_no``."""
        if page_no < 0:
            raise ValueError("page numbers are non-negative")
        if self.layout is not None:
            return self.layout.device_for_page(page_no)
        return (page_no // self.config.stripe_pages) % self.config.num_ssds

    def split_extent_runs(
        self, first_page: int, num_pages: int
    ) -> List[Tuple[int, int, int]]:
        """Split a page extent into maximal per-device runs.

        Returns ``(device_index, run_first_page, run_pages)`` tuples in
        page order.  Runs on the same device separated by other devices'
        stripes are *not* coalesced: each stripe crossing is a distinct
        sub-request, which is exactly why FlashGraph's conservative
        merging only joins requests on the same or adjacent pages (§3.6).
        The read path needs the page numbers to check silent rot and to
        locate the parity row of a failed run; runs never cross a
        stripe-unit boundary, so each one lies in exactly one parity row.
        """
        if num_pages <= 0:
            raise ValueError("an extent must cover at least one page")
        runs: List[Tuple[int, int, int]] = []
        page = first_page
        remaining = num_pages
        stripe = self.config.stripe_pages
        while remaining > 0:
            device = self.device_for_page(page)
            stripe_end = (page // stripe + 1) * stripe
            run = min(remaining, stripe_end - page)
            runs.append((device, page, run))
            page += run
            remaining -= run
        return runs

    def submit_run(
        self, device: int, arrival_time: float, num_pages: int
    ) -> DeviceCompletion:
        """Submit one per-device run and return its outcome.

        The array's one read entry, driven by the SAFS scheduler once per
        run of :meth:`split_extent_runs`: it touches exactly one device
        queue and reports errors instead of raising, so the caller can
        retry, back off or re-route.  ``device`` may name a hot spare
        (indices past ``num_ssds``).
        """
        return self.device(device).submit_request(arrival_time, num_pages)

    # ------------------------------------------------------------------
    # Degraded mode: reroute, parity reconstruction, rebuild
    # ------------------------------------------------------------------

    def reroute_target(self, device: int, time: float) -> Optional[int]:
        """The surviving device that stands in for unavailable ``device``.

        Degraded mode models a replica read: the striped data of an
        unavailable device is served by the next *usable* device in ring
        order (the mirror placement of a declustered RAID).  Usable means
        not dead under the fault plan **and** not quarantined or declared
        failed by the health monitor — a quarantined device must not
        receive rerouted traffic, or the reroute defeats the quarantine.
        Returns ``None`` when no device is usable at ``time``.
        """
        plan = self.fault_plan
        health = self.health
        num = self.config.num_ssds
        for step in range(1, num):
            candidate = (device + step) % num
            if plan is not None and plan.is_dead(candidate, time):
                continue
            if health is not None and health.avoid(candidate, time):
                continue
            return candidate
        return None

    def note_capacity(self, num_pages: int) -> None:
        """Record ``num_pages`` of flash laid out on the array.

        The SAFS scheduler reports every registered file; the running
        total sizes the scrubber's rebuild (every device holds exactly
        one stripe unit per parity row, data or parity, so per-device
        capacity is ``rows * stripe_pages``).
        """
        if num_pages < 0:
            raise ValueError("capacity cannot shrink")
        self._capacity_pages += num_pages

    def start_rebuild(self, device: int, time: float) -> Optional[RebuildState]:
        """Begin scrubbing dead ``device`` onto the next hot spare.

        Idempotent: a device already being rebuilt returns its existing
        state.  Returns ``None`` when the array has no parity layout or
        no spare left — degraded reads then stay degraded forever.
        """
        existing = self._rebuilds.get(device)
        if existing is not None:
            return existing
        layout = self.layout
        if layout is None or self.parity is None:
            return None
        if self._next_spare >= len(self._spares):
            return None
        spare_index = self.config.num_ssds + self._next_spare
        self._next_spare += 1
        rows = layout.rows_for_pages(self._capacity_pages)
        rate = (
            self.parity.rebuild_rate_fraction
            * self.config.ssd_config.seq_bandwidth
            / FLASH_PAGE_SIZE
        )
        rebuild = RebuildState(
            device=device,
            spare=spare_index,
            start_time=time,
            total_pages=rows * self.config.stripe_pages,
            rate_pages_per_s=rate,
            stripe_pages=self.config.stripe_pages,
            peer_reads_per_page=self.config.num_ssds - 1,
        )
        self._rebuilds[device] = rebuild
        self.stats.add(reg.SCRUB_REBUILDS_STARTED)
        return rebuild

    def serving_device(self, device: int, first_page: int, time: float) -> int:
        """The device that actually serves a run of ``device`` at ``time``.

        Once the scrubber has rebuilt the run's parity row, the hot spare
        serves it at normal cost; until then the original device index is
        returned (and the caller recovers via reconstruction if it is
        unavailable).  Observing progress also charges the scrub I/O
        accrued so far.
        """
        if self.layout is None:
            return device
        return self._serving_for_row(device, self.layout.row_of(first_page), time)

    def _serving_for_row(self, device: int, row: int, time: float) -> int:
        rebuild = self._rebuilds.get(device)
        if rebuild is None:
            return device
        rebuild.charge(self.stats, time)
        if rebuild.row_covered(row, time):
            return rebuild.spare
        return device

    def reconstruct_run(
        self, device: int, first_page: int, num_pages: int, time: float
    ) -> DeviceCompletion:
        """Serve a lost data run by reading the parity row's survivors.

        Reads the row's other ``N - 2`` data units plus the parity unit,
        each charged to its own device queue (degraded reads are never
        free); the reconstruction completes when the slowest peer read
        does.  Outcomes:

        - ``ok`` — every peer read succeeded; the XOR recovers the run.
        - ``error="double_fault"`` — a peer is dead, rotted or sick too:
          two losses in one row exceed single parity, reported loudly.
        - ``error="transient"`` — a peer read failed transiently; the
          whole reconstruction is retryable with backoff.
        """
        obs = self.obs
        if obs is None:
            return self._reconstruct_run(device, first_page, num_pages, time)
        # Peer reads issued inside the section are traced as recovery
        # work, and the outcome lands on the in-flight io span.
        obs.recovery_begin()
        try:
            outcome = self._reconstruct_run(device, first_page, num_pages, time)
        finally:
            obs.recovery_end()
        if outcome.ok:
            obs.io_event(
                "reconstructed", outcome.time, device=device, pages=num_pages
            )
        else:
            obs.io_event(
                "reconstruction_failed", outcome.time,
                device=device, error=outcome.error,
            )
        return outcome

    def _reconstruct_run(
        self, device: int, first_page: int, num_pages: int, time: float
    ) -> DeviceCompletion:
        layout = self.layout
        if layout is None:
            raise RuntimeError("reconstruction requires a parity layout")
        plan = self.fault_plan
        health = self.health
        completion = time
        row = layout.row_of(first_page)
        peers = layout.peers(first_page, num_pages)
        for peer, peer_first, peer_pages in peers:
            target = self._serving_for_row(peer, row, time)
            if health is not None and health.avoid(target, time):
                # A sick peer is temporarily unusable: the row cannot be
                # reconstructed right now, but may be after the window.
                self.stats.add(reg.PARITY_PEER_UNAVAILABLE)
                return DeviceCompletion(time, False, "transient", 0.0, device)
            if plan is not None and target == peer:
                # Media checks apply to the peer's own flash; a rebuilt
                # spare serves fresh copies, so it skips them.
                if plan.is_dead(target, time):
                    self.stats.add(reg.PARITY_DOUBLE_FAULTS)
                    return DeviceCompletion(time, False, "double_fault", 0.0, device)
                if plan.corrupted_in_run(peer, peer_first, peer_pages, time):
                    # Rot is persistent — a rotted peer block makes this
                    # row's loss permanent, not retryable.
                    self.stats.add(reg.PARITY_DOUBLE_FAULTS)
                    return DeviceCompletion(time, False, "double_fault", 0.0, device)
            outcome = self.device(target).submit_request(time, peer_pages)
            if not outcome.ok:
                if outcome.error == "dead":
                    self.stats.add(reg.PARITY_DOUBLE_FAULTS)
                    return DeviceCompletion(
                        outcome.time, False, "double_fault", 0.0, device
                    )
                return DeviceCompletion(
                    outcome.time, False, "transient", 0.0, device
                )
            if outcome.time > completion:
                completion = outcome.time
        self.stats.add(reg.PARITY_RECONSTRUCTIONS)
        self.stats.add(reg.PARITY_PEER_READS, len(peers))
        self.stats.add(reg.PARITY_PAGES_RECONSTRUCTED, num_pages)
        return DeviceCompletion(completion, True, None, 0.0, device)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def busy_time(self) -> float:
        """Total device-seconds spent servicing requests across the array."""
        return sum(ssd.busy_time for ssd in self._ssds) + sum(
            spare.busy_time for spare in self._spares
        )

    def drain_time(self) -> float:
        """Virtual time at which every device queue is empty."""
        drain = max(ssd.busy_until for ssd in self._ssds)
        for spare in self._spares:
            if spare.busy_until > drain:
                drain = spare.busy_until
        return drain

    def utilization(self, wall_time: float) -> float:
        """Fraction of aggregate device time busy over ``wall_time``."""
        if wall_time <= 0.0:
            return 0.0
        return self.busy_time() / (wall_time * self.config.num_ssds)

    def export_state(self) -> Dict:
        """Every replay-relevant mutable field, for checkpointing."""
        return {
            "devices": [ssd.export_state() for ssd in self._ssds],
            "spares": [spare.export_state() for spare in self._spares],
            "next_spare": self._next_spare,
            "capacity_pages": self._capacity_pages,
            "rebuilds": {
                str(device): rebuild.export_state()
                for device, rebuild in self._rebuilds.items()
            },
        }

    def restore_state(self, state: Dict) -> None:
        """Reinstate :meth:`export_state` output bit for bit."""
        devices = state["devices"]
        spares = state["spares"]
        if len(devices) != len(self._ssds) or len(spares) != len(self._spares):
            raise ValueError("array state does not match this array's geometry")
        for ssd, ssd_state in zip(self._ssds, devices):
            ssd.restore_state(ssd_state)
        for spare, spare_state in zip(self._spares, spares):
            spare.restore_state(spare_state)
        self._next_spare = int(state["next_spare"])
        self._capacity_pages = int(state["capacity_pages"])
        self._rebuilds = {
            int(device): RebuildState.from_state(rebuild_state)
            for device, rebuild_state in state["rebuilds"].items()
        }

    def reset(self) -> None:
        """Clear all device queues and rebuild state (not the shared stats
        or the registered capacity, which belongs to the file layout)."""
        for ssd in self._ssds:
            ssd.reset()
        for spare in self._spares:
            spare.reset()
        self._next_spare = 0
        self._rebuilds = {}
