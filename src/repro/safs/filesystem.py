"""The SAFS facade the graph engine talks to.

Responsibilities:

- file namespace (create/open of simulated on-SSD files),
- the asynchronous submit path: one wave of merged page spans in, one
  completion time per span out, with CPU issue costs accounted,
- the kernel-path surcharge of the Figure 12 ablation — a wave merged with
  the engine's global view is issued as is; one merged only within the
  bounded ``fs_merge_window`` (filesystem/block-level merging), or not at
  all, pays kernel-like CPU per raw request.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import registry as reg
from repro.safs.io_request import MergedSpans
from repro.safs.io_scheduler import IOScheduler
from repro.safs.page import DEFAULT_PAGE_SIZE, SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.faults import FaultPolicy
from repro.sim.health import HealthMonitor, HealthPolicy
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class SAFSConfig:
    """Filesystem-wide knobs."""

    #: SAFS page size in bytes (Figure 13 sweeps 4KB → 1MB).
    page_size: int = DEFAULT_PAGE_SIZE
    #: Page cache capacity in bytes (Figure 14 sweeps 1GB → 32GB).
    cache_bytes: int = 1 << 30
    #: Pages per cache slot.
    cache_associativity: int = 8
    #: Per-slot eviction policy ("lru" or "gclock", cf. [31]).
    cache_eviction: str = "lru"
    #: Queue window for filesystem-level merging (requests the FS can see
    #: at once; FlashGraph's engine has a global view instead).
    fs_merge_window: int = 64


class SAFS:
    """Set-associative file system over a simulated SSD array."""

    def __init__(
        self,
        array: Optional[SSDArray] = None,
        config: Optional[SAFSConfig] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
        fault_policy: Optional[FaultPolicy] = None,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        """``fault_policy`` governs retries, timeouts and degraded-mode
        rerouting of every device read; the default policy is inert on a
        fault-free array.  ``health_policy`` attaches a
        device health monitor (see :mod:`repro.sim.health`) that
        quarantines flapping devices and declares repeat offenders
        failed; without one, no device is ever benched."""
        self.config = config or SAFSConfig()
        self.stats = stats if stats is not None else StatsCollector()
        #: Armed observer (see :mod:`repro.obs`); ``None`` = no tracing.
        self.obs = None
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.array = array or SSDArray(SSDArrayConfig(), self.stats)
        self.health: Optional[HealthMonitor] = None
        if health_policy is not None:
            self.health = HealthMonitor(health_policy, self.array.config.num_ssds)
            self.array.health = self.health
        self.cache = PageCache(
            PageCacheConfig(
                capacity_bytes=self.config.cache_bytes,
                page_size=self.config.page_size,
                associativity=self.config.cache_associativity,
                eviction=self.config.cache_eviction,
            ),
            self.stats,
        )
        self.scheduler = IOScheduler(
            self.array,
            self.cache,
            self.cost_model,
            self.config.page_size,
            self.stats,
            fault_policy=fault_policy,
        )
        self._files: Dict[str, SAFSFile] = {}
        self._file_formats: Dict[str, str] = {}

    @property
    def fault_policy(self) -> FaultPolicy:
        """The recovery policy the scheduler applies to device faults."""
        return self.scheduler.fault_policy

    @property
    def page_size(self) -> int:
        return self.config.page_size

    def create_file(
        self,
        name: str,
        data: Union[bytes, bytearray, memoryview],
        fmt: str = "v1",
    ) -> SAFSFile:
        """Store ``data`` as a new file striped across the array.

        ``fmt`` records the file's logical layout ("v1" fixed-width edge
        lists or other raw data, "v2" delta+varint compressed edge lists)
        so readers can check they parse what was written — SAFS itself is
        format-agnostic and serves byte ranges either way.
        """
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        file = SAFSFile(name, data, file_id=len(self._files))
        self.scheduler.register_file(file)
        self._files[name] = file
        self._file_formats[name] = fmt
        return file

    def open_file(self, name: str) -> SAFSFile:
        """Look up an existing file by name."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"SAFS has no file named {name!r}") from None

    def file_format(self, name: str) -> str:
        """The layout tag ``create_file`` recorded for ``name``."""
        if name not in self._files:
            raise FileNotFoundError(f"SAFS has no file named {name!r}")
        return self._file_formats.get(name, "v1")

    def file_names(self) -> List[str]:
        """All file names, in creation order."""
        return list(self._files)

    def submit_spans(
        self,
        spans: MergedSpans,
        files: Dict[int, "SAFSFile"],
        issue_time: float,
        kernel_requests: int = 0,
    ) -> Tuple[np.ndarray, float, np.ndarray, Optional[List[int]]]:
        """Issue one wave of merged page spans.

        Spans are issued back-to-back: each one's device arrival time
        includes the CPU spent issuing its predecessors, modelling a worker
        thread pushing its batch into SAFS.  ``kernel_requests`` is the
        number of raw requests that crossed the kernel path unmerged (the
        Figure 12 counterfactuals, where the caller merged within
        ``fs_merge_window`` or not at all): each costs kernel-path CPU
        before the first span is issued.

        Returns ``(done, cpu, issued, io_ids)``: the completion and issue
        time of every span, the total CPU cost of the wave, and — under an
        armed observer — the io-span id of every span.  Fan-out to the
        constituent requests is the caller's, which holds the wave as
        arrays (``spans.span_of_part``).
        """
        cm = self.cost_model
        extra_cpu = kernel_requests * (
            cm.cpu_per_io_request_kernel - cm.cpu_per_io_request
        )
        cursor = issue_time + extra_cpu
        total_cpu = 0.0
        obs = self.obs
        io_ids = None
        if obs is not None:
            part_counts = np.bincount(
                spans.span_of_part, minlength=spans.num_spans
            ).tolist()
            io_ids = []
        done_at = np.empty(spans.num_spans)
        issued_at = np.empty(spans.num_spans)
        dispatch_span = self.scheduler.dispatch_span
        for i, (fid, first, last) in enumerate(
            zip(spans.file_ids.tolist(), spans.first_pages.tolist(), spans.last_pages.tolist())
        ):
            if obs is not None:
                io_ids.append(obs.begin_io(fid, first, last, part_counts[i], cursor))
            issued_at[i] = cursor
            done, cpu, _ = dispatch_span(files[fid], first, last, cursor)
            cursor += cpu
            total_cpu += cpu
            if done < cursor:
                done = cursor
            if obs is not None:
                obs.end_io(done)
            done_at[i] = done
        self.stats.add(reg.IO_REQUESTS_ISSUED, spans.num_spans)
        self.stats.add(reg.IO_CPU_ISSUE_TIME, total_cpu)
        if kernel_requests:
            self.stats.add(reg.IO_CPU_ISSUE_TIME, extra_cpu)
        return done_at, total_cpu + extra_cpu, issued_at, io_ids

    def cached_bytes(self) -> int:
        """Bytes the resident pages stand for (the cache's modelled
        footprint; it holds keys, not data)."""
        return len(self.cache) * self.config.page_size

    def reset_timing(self) -> None:
        """Clear device queues, rebuilds, health history, the cache and
        the shared counters for a fresh timed run.

        Resetting the :class:`StatsCollector` is load-bearing for
        back-to-back jobs in one process: float counters that keep
        accumulating across jobs make ``diff`` from a non-zero base
        round differently than accumulation from zero, so the second
        job's counter stream would drift from a fresh stack's in the
        last few ulps (``tests/core/test_sequential_jobs.py``).
        Histograms and gauges reset with it; snapshot a
        :class:`~repro.obs.spans.Observer` first if you need them.
        """
        self.array.reset()
        if self.health is not None:
            self.health.reset()
        self.cache.clear()
        self.stats.reset()
