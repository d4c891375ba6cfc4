"""Rotating-parity striping and rebuild for the simulated SSD array.

FlashGraph's array is cheap because it is wide — 15 commodity SSDs — and
wide arrays fail.  This module adds a RAID-5-style layer under SAFS:
every parity row holds ``N - 1`` data stripe units plus one parity unit,
with the parity device rotating across rows so parity traffic spreads
over the whole array.  A page lost to whole-device death or silent bit
rot is reconstructed by XOR-ing the surviving ``N - 1`` blocks of its
row, each read charged to that peer's queue at full DES cost — degraded
reads are never free.

Parity is opt-in (:class:`ParityConfig` on the array).  Without it the
array keeps the historical round-robin placement bit for bit, which is
what preserves the golden counter stream for legacy stacks.

Layout (``N`` devices, stripe unit ``S`` pages)::

    unit   u = page // S                 # stripe unit of a page
    row    r = u // (N - 1)              # parity row of the unit
    slot   k = u %  (N - 1)              # data slot within the row
    pdev     = r % N                     # rotating parity device
    device   = k if k < pdev else k + 1  # data slot skips the parity device

Parity blocks have no logical page number; they are addressed with
*negative* flash-page ids (:meth:`ParityLayout.parity_run`) so the fault
plan's silent-corruption coin can rot parity just like data.

The background scrubber (:class:`RebuildState`) re-materialises a dead
device onto a hot spare while the engine keeps running.  It is modelled
lazily: progress is a pure function of elapsed simulated time at a fixed
fraction of one device's sequential bandwidth, and its I/O is charged to
dedicated integer counters (``scrub.pages_read`` / ``scrub.pages_written``)
via telescoping deltas — exact under any query order — rather than
occupying the peer queues, modelling a scrubber confined to idle
bandwidth.  Once a parity row is rebuilt, reads of the dead device's
share of that row are served by the spare's queue at normal cost.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.obs import registry as reg
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class ParityConfig:
    """Opt-in parity protection for an :class:`~repro.sim.ssd_array.SSDArray`.

    The defaults give one rotating parity unit per row and one hot spare,
    with the scrubber consuming a quarter of a single device's sequential
    bandwidth — wide enough to finish rebuilds within a long analytics
    run, narrow enough not to starve foreground reads.
    """

    #: Hot spares standing by for rebuilds (0 disables rebuild).
    hot_spares: int = 1
    #: Fraction of one device's sequential bandwidth the scrubber uses.
    rebuild_rate_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.hot_spares < 0:
            raise ValueError("hot_spares cannot be negative")
        if not 0.0 < self.rebuild_rate_fraction <= 1.0:
            raise ValueError("rebuild_rate_fraction must lie in (0, 1]")


class ParityLayout:
    """Pure placement arithmetic for rotating parity over ``N`` devices."""

    def __init__(self, num_devices: int, stripe_pages: int) -> None:
        if num_devices < 3:
            raise ValueError(
                "rotating parity needs at least 3 devices "
                "(2 data + 1 parity per row)"
            )
        if stripe_pages <= 0:
            raise ValueError("the stripe unit must be at least one page")
        self.num_devices = num_devices
        self.stripe_pages = stripe_pages
        #: Data stripe units per parity row.
        self.data_per_row = num_devices - 1

    def unit_of(self, page_no: int) -> int:
        """Stripe unit holding logical flash page ``page_no``."""
        if page_no < 0:
            raise ValueError("page numbers are non-negative")
        return page_no // self.stripe_pages

    def row_of(self, page_no: int) -> int:
        """Parity row of logical flash page ``page_no``."""
        return self.unit_of(page_no) // self.data_per_row

    def parity_device(self, row: int) -> int:
        """Device holding ``row``'s parity unit (rotates across rows)."""
        return row % self.num_devices

    def device_for_page(self, page_no: int) -> int:
        """Device holding the *data* of logical page ``page_no``."""
        unit = self.unit_of(page_no)
        row = unit // self.data_per_row
        slot = unit % self.data_per_row
        pdev = self.parity_device(row)
        return slot if slot < pdev else slot + 1

    def parity_run(self, row: int, offset: int, num_pages: int) -> Tuple[int, int]:
        """Negative flash-page run addressing ``row``'s parity block.

        ``offset`` is the page offset within the stripe unit.  The ids are
        ``-(1 + row*S + offset) ... -(1 + row*S + offset + n - 1)``;
        the returned pair is ``(smallest_id, num_pages)`` so it plugs
        straight into :meth:`~repro.sim.faults.FaultPlan.corrupted_in_run`.
        """
        if not 0 <= offset < self.stripe_pages:
            raise ValueError("offset must lie within the stripe unit")
        if num_pages <= 0 or offset + num_pages > self.stripe_pages:
            raise ValueError("a parity run must stay within one stripe unit")
        first = -(1 + row * self.stripe_pages + offset + num_pages - 1)
        return first, num_pages

    def peers(
        self, first_page: int, num_pages: int
    ) -> List[Tuple[int, int, int]]:
        """The surviving reads that reconstruct a lost data run.

        The run must lie within one stripe unit.  Returns
        ``(device, peer_first_page, num_pages)`` for the row's other
        ``N - 2`` data units (positive page ids at the same intra-unit
        offsets) plus the parity unit (negative ids), in device order.
        """
        stripe = self.stripe_pages
        unit = self.unit_of(first_page)
        offset = first_page - unit * stripe
        if num_pages <= 0 or offset + num_pages > stripe:
            raise ValueError("a data run must stay within one stripe unit")
        row = unit // self.data_per_row
        row_base = row * self.data_per_row
        reads: List[Tuple[int, int, int]] = []
        for slot in range(self.data_per_row):
            peer_unit = row_base + slot
            if peer_unit == unit:
                continue
            pdev = self.parity_device(row)
            device = slot if slot < pdev else slot + 1
            reads.append((device, peer_unit * stripe + offset, num_pages))
        parity_first, _ = self.parity_run(row, offset, num_pages)
        reads.append((self.parity_device(row), parity_first, num_pages))
        return reads

    def rows_for_pages(self, total_pages: int) -> int:
        """Parity rows needed to hold ``total_pages`` of data."""
        if total_pages <= 0:
            return 0
        units = -(-total_pages // self.stripe_pages)
        return -(-units // self.data_per_row)


class RebuildState:
    """Lazy model of one dead device being scrubbed onto a hot spare.

    Progress is ``rate_pages_per_s * (now - start_time)`` capped at the
    device's allocated capacity — a pure function of simulated time, so
    two replays (or a checkpoint resume) observe identical progress.
    Scrub I/O is charged through :meth:`charge` as integer deltas.
    """

    def __init__(
        self,
        device: int,
        spare: int,
        start_time: float,
        total_pages: int,
        rate_pages_per_s: float,
        stripe_pages: int,
        peer_reads_per_page: int,
    ) -> None:
        if total_pages < 0:
            raise ValueError("total_pages cannot be negative")
        if rate_pages_per_s <= 0.0:
            raise ValueError("the rebuild rate must be positive")
        self.device = device
        self.spare = spare
        self.start_time = start_time
        self.total_pages = total_pages
        self.rate_pages_per_s = rate_pages_per_s
        self.stripe_pages = stripe_pages
        self.peer_reads_per_page = peer_reads_per_page
        self._charged_pages = 0

    def pages_rebuilt(self, time: float) -> int:
        """Device pages re-materialised on the spare by ``time``."""
        if time <= self.start_time:
            return 0
        done = int((time - self.start_time) * self.rate_pages_per_s)
        return min(done, self.total_pages)

    def rows_rebuilt(self, time: float) -> int:
        """Whole parity rows of the device rebuilt by ``time``.

        The scrubber works row by row (it must read the full row to XOR
        the lost unit back), so a row serves from the spare only once
        every one of its pages is rebuilt.
        """
        return self.pages_rebuilt(time) // self.stripe_pages

    def row_covered(self, row: int, time: float) -> bool:
        """Whether parity row ``row`` of the device serves from the spare."""
        return row < self.rows_rebuilt(time)

    def complete(self, time: float) -> bool:
        """Whether the whole device has been re-materialised."""
        return self.pages_rebuilt(time) >= self.total_pages

    def charge(self, stats: StatsCollector, time: float) -> None:
        """Charge scrub I/O counters up to ``time`` (telescoping deltas).

        Integer additions commute exactly, so any interleaving of charge
        points yields the same final counters as one lump charge — the
        property that keeps checkpoint resume counter-identical.
        """
        done = self.pages_rebuilt(time)
        delta = done - self._charged_pages
        if delta <= 0:
            return
        self._charged_pages = done
        stats.add(reg.SCRUB_PAGES_WRITTEN, delta)
        stats.add(reg.SCRUB_PAGES_READ, delta * self.peer_reads_per_page)

    def export_state(self) -> Dict:
        """Every field needed to resume the rebuild bit-identically."""
        return {
            "device": self.device,
            "spare": self.spare,
            "start_time": self.start_time,
            "total_pages": self.total_pages,
            "rate_pages_per_s": self.rate_pages_per_s,
            "stripe_pages": self.stripe_pages,
            "peer_reads_per_page": self.peer_reads_per_page,
            "charged_pages": self._charged_pages,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "RebuildState":
        """Rebuild a :class:`RebuildState` from :meth:`export_state`."""
        rebuild = cls(
            device=int(state["device"]),
            spare=int(state["spare"]),
            start_time=float(state["start_time"]),
            total_pages=int(state["total_pages"]),
            rate_pages_per_s=float(state["rate_pages_per_s"]),
            stripe_pages=int(state["stripe_pages"]),
            peer_reads_per_page=int(state["peer_reads_per_page"]),
        )
        rebuild._charged_pages = int(state["charged_pages"])
        return rebuild

    def __repr__(self) -> str:
        return (
            f"RebuildState(device={self.device}, spare={self.spare}, "
            f"total_pages={self.total_pages})"
        )
