"""Engine configuration."""

import enum
from dataclasses import dataclass, replace


class ExecutionMode(enum.Enum):
    """Where edge lists live during execution."""

    #: Semi-external memory: vertex state in RAM, edge lists on SSDs (SAFS).
    SEMI_EXTERNAL = "semi-external"
    #: Everything in RAM (the paper's "FG-mem" comparison build).
    IN_MEMORY = "in-memory"


class ExecutionKind(enum.Enum):
    """How the engine drives vertex programs to convergence.

    ``SYNC`` is the classic BSP superstep loop: every active vertex runs
    once per iteration and messages buffer to the global barrier.  It is
    the default.

    ``ASYNC`` is the priority-driven mode (ACGraph-style): each *round*
    schedules the vertices whose residual is above the program's floor,
    hottest blocks first, messages deliver eagerly inside the round, and
    convergence is detected without a global barrier — quiescence of the
    above-floor active set plus an optional global residual threshold.
    Requires a vertex program with a ``residuals`` hook (see
    :mod:`repro.core.execution`).
    """

    SYNC = "sync"
    ASYNC = "async"


class PartitionStrategy(enum.Enum):
    """Horizontal partitioning function (§3.8)."""

    #: ``(vid >> r) % n`` — SSD-adjacent ranges per thread (the paper's).
    RANGE = "range"
    #: Multiplicative hash — the locality-destroying counterfactual.
    HASH = "hash"


class ScheduleOrder(enum.Enum):
    """Per-thread vertex execution order (§3.7, Figure 12)."""

    #: Ascending vertex ID — matches the on-SSD layout, maximises merging.
    BY_ID = "by-id"
    #: Random order — the Figure 12 counterfactual.
    RANDOM = "random"
    #: Algorithm-supplied ordering (e.g. scan statistics' degree-descending).
    CUSTOM = "custom"


@dataclass(frozen=True)
class EngineConfig:
    """All engine-level knobs, with the paper's defaults.

    Immutable; derive variants with :meth:`with_overrides`.
    """

    #: Execution mode (semi-external vs in-memory).
    mode: ExecutionMode = ExecutionMode.SEMI_EXTERNAL
    #: Worker threads (the paper uses 32 everywhere).
    num_threads: int = 32
    #: Vertices kept in the running state per thread; merging gains plateau
    #: above ~4000 (§3.7).
    max_running_vertices: int = 4000
    #: Right-shift of the range-partitioning function
    #: ``partition_id = (vid >> r) % n`` (§3.8; 12–18 works well at 100M+
    #: vertices — smaller graphs want smaller ranges).
    range_shift: int = 10
    #: Horizontal partitioning function (range vs hash ablation).
    partition_strategy: PartitionStrategy = PartitionStrategy.RANGE
    #: Merge I/O requests inside the engine before submitting to SAFS.
    merge_in_engine: bool = True
    #: When the engine does not merge, let SAFS merge within its bounded
    #: queue window (the Figure 12 middle bar).
    merge_in_fs: bool = True
    #: Vertex execution order.
    schedule_order: ScheduleOrder = ScheduleOrder.BY_ID
    #: Alternate the scan direction between iterations so pages touched at
    #: the end of one iteration are touched first in the next (§3.7).
    alternate_scan_direction: bool = True
    #: Work stealing between threads (§3.8.1).
    load_balance: bool = True
    #: Split a request for more than this many edge lists into vertex parts
    #: spread over all threads (vertical partitioning, §3.8); 0 disables.
    vertical_part_threshold: int = 0
    #: Edge lists per vertex part when vertical partitioning triggers.
    vertical_part_size: int = 512
    #: Buffered messages per thread before a flush is charged (§3.4.1).
    message_flush_threshold: int = 4096
    #: Processor sockets the workers are pinned across (§3.8 NUMA
    #: locality; the paper's machine has 4).
    num_sockets: int = 4
    #: How the run loop is driven (sync BSP supersteps vs async
    #: priority rounds).
    execution: ExecutionKind = ExecutionKind.SYNC
    #: Async convergence: stop once the global residual sum falls to or
    #: below this value (0 relies on quiescence alone — the active set
    #: of above-floor vertices emptying out).
    async_threshold: float = 0.0

    def with_overrides(self, **overrides) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if self.max_running_vertices <= 0:
            raise ValueError("max_running_vertices must be positive")
        if self.range_shift < 0:
            raise ValueError("range_shift cannot be negative")
        if self.vertical_part_threshold < 0:
            raise ValueError("vertical_part_threshold cannot be negative")
        if self.vertical_part_size <= 0:
            raise ValueError("vertical_part_size must be positive")
        if self.message_flush_threshold <= 0:
            raise ValueError("message_flush_threshold must be positive")
        if self.num_sockets <= 0:
            raise ValueError("num_sockets must be positive")
        if self.async_threshold < 0:
            raise ValueError("async_threshold cannot be negative")
