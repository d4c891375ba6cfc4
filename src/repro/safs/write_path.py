"""The SAFS write path: loading graph images onto the array.

FlashGraph's design minimises writes — SSDs wear out, and consumer drives
write slower than they read (§3).  The only bulk write in the system's
life is *graph construction*: serialising the edge-list files onto the
array once, after which a single external-memory structure serves every
algorithm (§3.5.2).

This module models that construction: sequential streaming writes striped
over the devices and a write-amplification factor for the FTL, counted in
``write.*`` counters that no computation moves.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs import registry as reg
from repro.sim.ssd import FLASH_PAGE_SIZE
from repro.sim.ssd_array import SSDArray
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class WriteModel:
    """Write-side performance of the array's devices.

    Consumer SSDs of the paper's era wrote at roughly half their read
    bandwidth; the FTL's write amplification consumes additional flash
    program cycles that cost no host time.
    """

    #: Sustained sequential write bandwidth per device, bytes/second.
    seq_write_bandwidth: float = 250e6
    #: Flash pages programmed per host page written (FTL overhead).
    write_amplification: float = 1.1


class GraphLoader:
    """Streams graph files onto the simulated array and counts the writes."""

    def __init__(
        self,
        array: SSDArray,
        model: Optional[WriteModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.array = array
        self.model = model or WriteModel()
        self.stats = stats if stats is not None else StatsCollector()

    def write_time(self, num_bytes: int) -> float:
        """Seconds to stream ``num_bytes`` sequentially across the array."""
        if num_bytes < 0:
            raise ValueError("cannot write a negative byte count")
        aggregate = self.array.config.num_ssds * self.model.seq_write_bandwidth
        return num_bytes / aggregate

    def load_image(self, image) -> Tuple[float, int]:
        """Write a :class:`~repro.graph.builder.GraphImage`'s files.

        Returns ``(seconds, flash_pages_programmed)`` and accumulates
        ``write.*`` counters.  Pages programmed include FTL write
        amplification — the number that matters for wear.
        """
        total_bytes = image.storage_bytes()
        seconds = self.write_time(total_bytes)
        host_pages = (total_bytes + FLASH_PAGE_SIZE - 1) // FLASH_PAGE_SIZE
        programmed = int(host_pages * self.model.write_amplification)
        self.stats.add(reg.WRITE_BYTES, total_bytes)
        self.stats.add(reg.WRITE_HOST_PAGES, host_pages)
        self.stats.add(reg.WRITE_FLASH_PAGES_PROGRAMMED, programmed)
        self.stats.add(reg.WRITE_SECONDS, seconds)
        return seconds, programmed
