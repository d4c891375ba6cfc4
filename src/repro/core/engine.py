"""The FlashGraph execution engine (§3.2–§3.8).

The engine executes real vertex programs while advancing virtual time:

- a graph is range-partitioned over virtual worker threads (§3.8); each
  thread runs its active vertices in scheduler order, in batches of at
  most ``max_running_vertices`` (§3.7);
- edge-list requests buffered by a batch are conservatively merged and
  submitted to SAFS asynchronously; the worker's clock then chases the
  completion stream, charging ``run_on_vertex`` CPU as data arrives — this
  is how computation/I/O overlap is modelled (§3.1, §3.6);
- requests issued *from* ``run_on_vertex`` (triangle counting's neighbor
  reads) feed follow-up waves within the same batch;
- vertical partitioning splits huge multi-list requests into vertex parts
  any thread may pick up (§3.8), and idle threads steal batches from
  loaded ones (§3.8.1);
- messages buffer per iteration and deliver at the barrier with a
  combiner; activations are data-free multicasts (§3.4.1).

The scheduling loop always advances the worker with the smallest virtual
clock, so device-queue contention between threads is simulated fairly.
"""

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import EngineConfig, ExecutionMode, PartitionStrategy, ScheduleOrder
from repro.core.execution import make_execution_policy
from repro.core.messages import MessageBuffer, check_vertex_ids
from repro.core.partition import HashPartitioner, RangePartitioner, split_into_parts
from repro.core.scheduler import make_scheduler
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.obs import registry as reg
from repro.graph.builder import GraphImage
from repro.graph.format import FORMAT_V2
from repro.graph.page_vertex import (
    DIRECTIONS as _DIRECTIONS,
    PageVertexBatch,
    gather_ranges,
    scatter_positions,
)
from repro.graph.types import EdgeType
from repro.safs.filesystem import SAFS
from repro.safs.io_request import merge_request_arrays
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.faults import UnrecoverableIOError
from repro.sim.numa import NumaTopology
from repro.sim.stats import StatsCollector

#: Estimated bytes per buffered message (dest id + payload).
MESSAGE_BYTES = 16

#: The direction codes one ``request_self`` of each edge type fetches.
_DIRECTION_CODES = {
    edge_type: np.array([_DIRECTIONS.index(d) for d in edge_type.directions()])
    for edge_type in EdgeType
}

#: Wave element kinds: an edge list, an edge list that is delivered
#: together with its attribute block, and that attribute block.
_EDGES, _EDGES_WITH_ATTRS, _ATTRS = 0, 1, 2
_KIND_NAMES = ("edges", "edges", "attrs")

#: Sort key of the worker pick: a worker's simulated clock.
_CLOCK = attrgetter("time")
#: Sort key of the steal-victim pick: vertices a worker has not claimed.
_REMAINING = attrgetter("remaining")


@dataclass
class _Wave:
    """One wave of edge-list requests as parallel arrays, a row per element.

    The engine buffers rows in request order; a servicer reads them, puts
    every column into delivery order and fills in the delivery columns.
    """

    #: The vertex whose ``run_on_vertex`` the row's list is delivered to.
    requesters: np.ndarray
    #: The vertex whose data the row reads.
    targets: np.ndarray
    #: Index into ``DIRECTIONS``.
    dirs: np.ndarray
    #: ``_EDGES``, ``_EDGES_WITH_ATTRS`` or ``_ATTRS``.
    kinds: np.ndarray
    #: Each row's row of the image's list table, ``lane * n + target`` for
    #: lane ``2 * dir + (kind == _ATTRS)`` (``None`` once served).
    rows: Optional[np.ndarray] = None
    #: Neighbors per row (0 for an attribute block) ...
    degrees: Optional[np.ndarray] = None
    #: ... and every row's neighbors, row after row.
    edges: Optional[np.ndarray] = None
    #: When each row's data is in the page cache (``None``: in memory).
    times: Optional[np.ndarray] = None
    #: Compressed bytes each list decodes from (``None`` under format v1).
    decode_sizes: Optional[np.ndarray] = None
    #: Row of the other half of an edges+attrs pair, -1 for a row without
    #: one; the list is delivered once both arrived (``None``: no pairs).
    mate: Optional[np.ndarray] = None

    def take(self, rows: np.ndarray) -> "_Wave":
        """The request columns of ``rows`` (an index or mask), in that order."""
        return _Wave(
            self.requesters[rows], self.targets[rows], self.dirs[rows], self.kinds[rows]
        )


class IterationAborted(RuntimeError):
    """A run hit an unrecoverable I/O error and stopped cleanly.

    The engine never hangs on a dead array and never returns wrong
    values: when SAFS exhausts its retry/reroute budget the iteration
    aborts, and this exception carries the partial-progress
    :class:`RunResult` (clocks, counters and utilisation up to the
    abort) plus the failed iteration and the root cause.
    """

    def __init__(
        self, iteration: int, cause: UnrecoverableIOError, partial: "RunResult"
    ) -> None:
        super().__init__(
            f"iteration {iteration} aborted after unrecoverable I/O: {cause}"
        )
        self.iteration = iteration
        self.cause = cause
        self.partial = partial


class JobCancelled(RuntimeError):
    """The cause recorded when a job is cancelled from outside.

    Mirrors the :class:`~repro.sim.faults.UnrecoverableIOError` surface
    the abort path reads (``reason`` and ``time``), so a cancellation
    flows through :class:`IterationAborted` exactly like an I/O abort
    does — same partial result, same reporting — and callers above the
    engine (the serving layer's deadline enforcement) need no second
    code path.
    """

    def __init__(self, reason: str, time: float) -> None:
        super().__init__(f"job cancelled at t={time:.6f}: {reason}")
        self.reason = reason
        self.time = time


@dataclass
class RunResult:
    """Everything one engine run reports."""

    #: Simulated wall-clock seconds.
    runtime: float
    #: Iterations executed.
    iterations: int
    #: Total CPU-busy seconds summed over workers.
    cpu_busy: float
    #: Fraction of machine CPU busy over the run.
    cpu_utilization: float
    #: Bytes read from the SSD array during the run.
    bytes_read: float
    #: Aggregate device read bandwidth achieved (bytes/second).
    io_throughput: float
    #: Fraction of aggregate device time busy.
    io_utilization: float
    #: SAFS cache hit rate over the run.
    cache_hit_rate: float
    #: Simulated resident memory, by component.
    memory: Dict[str, float] = field(default_factory=dict)
    #: Raw counter deltas for the run.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def memory_bytes(self) -> float:
        """Total simulated resident memory."""
        return sum(self.memory.values())


class _Worker:
    """One virtual worker thread."""

    __slots__ = ("index", "time", "busy", "queue", "pos")

    def __init__(self, index: int) -> None:
        self.index = index
        self.time = 0.0
        self.busy = 0.0
        self.queue: np.ndarray = np.zeros(0, dtype=np.int64)
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.queue) - self.pos

    def take(self, count: int) -> np.ndarray:
        batch = self.queue[self.pos : self.pos + count]
        self.pos += len(batch)
        return batch

    def steal_from_tail(self, count: int) -> np.ndarray:
        count = min(count, self.remaining)
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        stolen = self.queue[len(self.queue) - count :]
        self.queue = self.queue[: len(self.queue) - count]
        return stolen


class EngineJob:
    """One in-flight engine run, advanced one barrier at a time.

    Produced by :meth:`GraphEngine.start_job`; a batch :meth:`GraphEngine.run`
    is exactly ``while job.step(): pass`` over one of these, so a
    single-job service run replays the batch code path operation for
    operation.  The service layer (``repro.serve``) interleaves many
    jobs by always stepping the one with the smallest :attr:`clock`.
    """

    def __init__(
        self, engine, steps, base, start_time: float, span_context=None
    ) -> None:
        self._engine = engine
        self._steps = steps
        self._base = base
        self.start_time = start_time
        #: Query span context (``{"query", "tenant", "app"}``) installed
        #: on the armed observer around every step, so all spans the
        #: step produces join into one per-query trace; ``None`` (every
        #: batch run) records exactly the pre-context spans.
        self.span_context = span_context
        self._result: Optional[RunResult] = None
        self._done = False

    @property
    def clock(self) -> float:
        """The job's current simulated time (max worker clock)."""
        if self._done and self._result is not None:
            return self.start_time + self._result.runtime
        return max(
            (w.time for w in self._engine._workers), default=self.start_time
        )

    @property
    def iteration(self) -> int:
        return self._engine.iteration

    @property
    def done(self) -> bool:
        return self._done

    @property
    def frontier_size(self) -> int:
        """Active-vertex count at the last iteration barrier.

        Updated by the execution policy before every barrier yield; the
        serving layer's deadline estimator uses it to decide whether an
        uncapped traversal still has work left.
        """
        return self._engine._barrier_frontier

    def cancel(self, reason: str) -> "IterationAborted":
        """Cancel the job at its current iteration barrier.

        The job is suspended at a barrier ``yield`` (between
        :meth:`step` calls), so its transient queues are empty and the
        worker clocks are consistent; closing the step generator there
        is a clean stop.  Returns the :class:`IterationAborted` carrying
        the partial :class:`RunResult` — the same shape an I/O abort
        produces — with a :class:`JobCancelled` cause holding
        ``reason``.  The engine object stays reusable.  Raises
        ``RuntimeError`` if the job already finished.
        """
        if self._done:
            raise RuntimeError("cannot cancel a finished job")
        engine = self._engine
        self._steps.close()
        cause = JobCancelled(reason, self.clock)
        self._done = True
        return engine._abort_run(
            cause,
            self._base,
            engine._peak_messages,
            self.start_time,
            record_fault=False,
        )

    def step(self) -> bool:
        """Advance one iteration/round; ``False`` once the job finished.

        Raises :class:`IterationAborted` (carrying the partial result)
        when the underlying run hits an unrecoverable I/O error; the
        job is finished afterwards.
        """
        if self._done:
            return False
        engine = self._engine
        obs = engine.obs if self.span_context is not None else None
        if obs is not None:
            obs.set_query_context(self.span_context)
        try:
            next(self._steps)
        except StopIteration:
            self._done = True
            barrier = max(
                (w.time for w in engine._workers), default=self.start_time
            )
            busy = sum(w.busy for w in engine._workers)
            self._result = engine._make_result(
                barrier - self.start_time, busy, self._base, engine._peak_messages
            )
            return False
        except UnrecoverableIOError as exc:
            self._done = True
            raise engine._abort_run(
                exc, self._base, engine._peak_messages, self.start_time
            ) from exc
        finally:
            if obs is not None:
                obs.clear_query_context()
        return True

    def result(self) -> RunResult:
        if self._result is None:
            raise RuntimeError(
                "the job has not finished cleanly (still running or aborted)"
            )
        return self._result


class GraphEngine:
    """Runs a :class:`VertexProgram` over a :class:`GraphImage`."""

    def __init__(
        self,
        image: GraphImage,
        safs: Optional[SAFS] = None,
        config: Optional[EngineConfig] = None,
        cost_model: Optional[CostModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.image = image
        self.config = config or EngineConfig()
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        if stats is None and safs is not None:
            # Share the filesystem's collector so one report covers both.
            stats = safs.stats
        self.stats = stats if stats is not None else StatsCollector()
        if self.config.mode is ExecutionMode.SEMI_EXTERNAL:
            if safs is None:
                safs = SAFS(stats=self.stats)
            elif safs.stats is not self.stats:
                raise ValueError(
                    "the engine and its SAFS must share one StatsCollector"
                )
            self.safs = safs
        else:
            self.safs = None

        self.numa = NumaTopology(
            num_sockets=min(self.config.num_sockets, self.config.num_threads),
            num_threads=self.config.num_threads,
        )
        if self.config.partition_strategy is PartitionStrategy.HASH:
            self.partitioner = HashPartitioner(self.config.num_threads)
        else:
            self.partitioner = RangePartitioner(
                self.config.num_threads, self.config.range_shift
            )
        self.program: Optional[VertexProgram] = None
        self.iteration = 0
        self._ctx = GraphContext(self)
        self._workers: List[_Worker] = []
        # The wave buffer: edge-list requests issued since the last wave
        # was serviced, as chunks of the four request columns of a _Wave.
        self._wave: List[Tuple[np.ndarray, ...]] = []
        self._part_queue: Deque[Tuple[int, np.ndarray, EdgeType, bool]] = deque()
        # Workers whose queue still holds unclaimed vertices this
        # iteration, in index order (what ``_pick_worker`` chooses among).
        self._queued: List[_Worker] = []
        # The charge log of the hook call in progress (see ``_replay``), in
        # call order; extra edges are logged apart, by a wave stage only.
        self._stage_items = 0
        self._log_items: List[int] = []
        self._log_charges: List[float] = []
        self._log_columns: List[np.ndarray] = []
        self._edge_items: Optional[List[int]] = None
        self._edge_counts: Optional[List[int]] = None
        # The SAFS file behind each lane of the image's list table, by id
        # and by lane (-1: no file); set when the files are attached.
        self._lane_files: Dict[int, "SAFSFile"] = {}
        self._lane_fids: Tuple[int, ...] = ()
        self._activations: List[np.ndarray] = []
        self._messages: Optional[MessageBuffer] = None
        self._iteration_end_requested = False
        # Iteration-barrier checkpointing (see repro.core.checkpoint):
        # a manager plus interval arm capture; a pending resume state is
        # consumed by the next run() call.
        self._checkpoint_manager = None
        self._checkpoint_every = 0
        self._resume_state: Optional[dict] = None
        #: Largest message-buffer occupancy seen this run (memory
        #: accounting); maintained by the execution policy's loop.
        self._peak_messages = 0
        #: Active-set size at the last barrier; maintained by the
        #: execution policy, read through :attr:`EngineJob.frontier_size`.
        self._barrier_frontier = 0
        #: Armed observer (see :mod:`repro.obs`); ``None`` keeps every
        #: layer on the exact legacy path with zero tracing work.
        self.obs = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        program: VertexProgram,
        initial_active: Optional[np.ndarray] = None,
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """Execute ``program`` to quiescence (or ``max_iterations``).

        ``initial_active`` defaults to every vertex (PageRank/WCC style);
        traversals pass their start vertex.
        """
        job = self.start_job(program, initial_active, max_iterations)
        while job.step():
            pass
        return job.result()

    def start_job(
        self,
        program: VertexProgram,
        initial_active: Optional[np.ndarray] = None,
        max_iterations: Optional[int] = None,
        start_time: float = 0.0,
        span_context: Optional[dict] = None,
    ) -> "EngineJob":
        """Set up a run and return it as a steppable :class:`EngineJob`.

        Performs everything :meth:`run` does up to the loop (file
        attachment, program install, base counter snapshot, worker and
        scheduler construction, resume handling), then hands back a job
        whose :meth:`EngineJob.step` advances one iteration/round at a
        time.  ``start_time`` seeds every worker clock, so a service can
        start jobs mid-timeline on the shared DES clock; the returned
        result's ``runtime`` is still relative to the job's own start.
        ``span_context`` (a ``{"query", "tenant", "app"}`` dict) tags
        every span an armed observer records during the job's steps —
        the serving layer's end-to-end query tracing.
        One engine drives one job at a time — the job borrows the
        engine's mutable state until it finishes.  An ``initial_active``
        id that is not a vertex raises ``ValueError`` before any of that
        state is touched.
        """
        if initial_active is None:
            frontier = np.arange(self.image.num_vertices, dtype=np.int64)
        else:
            ids = np.atleast_1d(np.asarray(initial_active, dtype=np.int64))
            frontier = self._frontier_of(ids, "initial active vertex")
        if self.config.mode is ExecutionMode.SEMI_EXTERNAL:
            self._ensure_files_attached()
        self.program = program
        self._messages = MessageBuffer(program.combiner, self.image.num_vertices)
        base = self.stats.snapshot()
        if (
            self.config.mode is ExecutionMode.SEMI_EXTERNAL
            and self.image.fmt == FORMAT_V2
        ):
            # Set-once, after the base snapshot, so the run's counter diff
            # reports the ratio; v1 runs never touch the name.
            self.stats.set(reg.GRAPH_COMPRESSION_RATIO, self.image.compression_ratio())
        self._workers = [_Worker(i) for i in range(self.config.num_threads)]
        if start_time:
            for worker in self._workers:
                worker.time = start_time
        custom = None
        if self.config.schedule_order is ScheduleOrder.CUSTOM:
            custom = program.custom_order
        scheduler = make_scheduler(self.config, custom)

        self.iteration = 0
        self._peak_messages = 0
        policy = make_execution_policy(self.config)

        resume = self._resume_state
        self._resume_state = None
        if resume is not None:
            frontier, peak_messages, base = self._apply_checkpoint(
                resume, program, scheduler
            )
            self._peak_messages = peak_messages
            exec_state = resume.get("execution")
            if exec_state is not None or policy.export_state() is not None:
                # Sync checkpoints (including every pre-policy one) carry
                # no execution entry; async checkpoints must round-trip
                # their priority state for a bit-identical continuation.
                policy.restore_state(exec_state)

        self._barrier_frontier = int(frontier.size)
        steps = policy.steps(
            self, frontier, scheduler, max_iterations, base,
            self._checkpoint_manager, self._checkpoint_every,
        )
        return EngineJob(self, steps, base, start_time, span_context)

    def _abort_run(
        self,
        cause,
        base: Dict[str, float],
        peak_messages: int,
        start_time: float = 0.0,
        record_fault: bool = True,
    ) -> "IterationAborted":
        """Build the clean abort for an unrecoverable I/O error.

        Clocks stop where the failure was detected, in-flight state is
        dropped so the engine object stays reusable, and the partial
        result reports everything accumulated up to the abort — the
        caller gets progress stats, never a wrong answer.  ``cause`` is
        an :class:`~repro.sim.faults.UnrecoverableIOError` or a
        :class:`JobCancelled`; cancellations pass ``record_fault=False``
        because they are policy decisions, not faults, and the fault
        counter must not move.  An armed observer's open iteration row
        closes at the abort time.
        """
        self._wave.clear()
        self._part_queue.clear()
        self._activations.clear()
        self._log_items, self._log_charges, self._log_columns = [], [], []
        if self._messages is not None:
            self._messages.clear()
        if record_fault:
            self.stats.add(reg.FAULTS_ABORTED_ITERATIONS)
        barrier = max((w.time for w in self._workers), default=start_time)
        barrier = max(barrier, cause.time)
        if self.obs is not None:
            self.obs.abort_iteration(barrier, self._workers, self.stats)
        busy = sum(w.busy for w in self._workers)
        partial = self._make_result(barrier - start_time, busy, base, peak_messages)
        return IterationAborted(self.iteration, cause, partial)

    # ------------------------------------------------------------------
    # Checkpoint/restore (see repro.core.checkpoint)
    # ------------------------------------------------------------------

    def enable_checkpoints(self, manager, every: int = 1) -> None:
        """Save a checkpoint through ``manager`` every ``every`` barriers.

        Checkpointing is pure observation: it never touches the shared
        stats, device queues or worker clocks, so an armed run stays
        bit-identical to an unarmed one.
        """
        if every < 1:
            raise ValueError("the checkpoint interval must be at least 1")
        self._checkpoint_manager = manager
        self._checkpoint_every = every

    def resume_from(self, source) -> int:
        """Arm the next :meth:`run` call to resume from a checkpoint.

        ``source`` may be a loaded state dict, a path, or a
        :class:`~repro.core.checkpoint.CheckpointManager` (its latest
        checkpoint is used).  The resumed run must be configured exactly
        like the original (same graph, program construction, thread
        count and ``max_iterations``); validation failures raise before
        any state is mutated.  Returns the iteration the run will resume
        from.
        """
        from repro.core.checkpoint import CheckpointError, CheckpointManager

        if isinstance(source, CheckpointManager):
            latest = source.latest()
            if latest is None:
                raise CheckpointError(
                    f"no checkpoint to resume from in {source.directory}"
                )
            state = source.load(latest)
        elif isinstance(source, dict):
            state = source
        else:
            state = CheckpointManager(Path(source).parent).load(source)
        self._resume_state = state
        return int(state["iteration"])

    def _capture_checkpoint(
        self,
        frontier: np.ndarray,
        peak_messages: int,
        base: Dict[str, float],
        scheduler,
        execution: Optional[dict] = None,
    ) -> dict:
        """Serialize the engine at an iteration/round barrier.

        Every transient queue is empty here (requests, parts, batches,
        activations, messages), so the capture is the program state, the
        next frontier, the DES clocks and counters, and the SAFS stack's
        mutable state — everything :meth:`_apply_checkpoint` needs for a
        bit-identical continuation.  Async rounds additionally pass
        their ``execution`` state (residuals, deferral counters); sync
        captures omit the key entirely so sync checkpoints keep the
        pre-policy shape.
        """
        from repro.core.checkpoint import CHECKPOINT_VERSION

        state: dict = {
            "version": CHECKPOINT_VERSION,
            "image": {
                "name": self.image.name,
                "num_vertices": int(self.image.num_vertices),
            },
            "engine": {
                "num_threads": int(self.config.num_threads),
                "mode": self.config.mode.value,
            },
            "iteration": int(self.iteration),
            "frontier": np.asarray(frontier, dtype=np.int64).copy(),
            "peak_messages": int(peak_messages),
            "peak_pending": int(self._messages.peak_pending),
            "base": dict(base),
            "counters": self.stats.snapshot(),
            "worker_time": np.asarray([w.time for w in self._workers]),
            "worker_busy": np.asarray([w.busy for w in self._workers]),
            "scheduler_rng": scheduler._rng.bit_generator.state,
            "program": {
                "class": type(self.program).__name__,
                "state": self.program.snapshot_state(),
            },
        }
        if execution is not None:
            state["engine"]["execution"] = self.config.execution.value
            state["execution"] = execution
        if self.safs is not None:
            health = self.safs.health
            state["safs"] = {
                "files": {
                    name: self.safs.open_file(name).file_id
                    for name in self.safs.file_names()
                },
                "array": self.safs.array.export_state(),
                "health": None if health is None else health.export_state(),
                "cache": self.safs.cache.export_state(),
            }
        else:
            state["safs"] = None
        return state

    def _apply_checkpoint(self, state: dict, program: VertexProgram, scheduler):
        """Reinstate a captured barrier state onto this engine.

        Returns ``(frontier, peak_messages, base)`` for the run loop.
        The engine must have been built exactly like the checkpointed
        one; mismatches raise :class:`CheckpointError` before mutation.
        """
        from repro.core.checkpoint import CheckpointError

        image = state["image"]
        if (
            image["name"] != self.image.name
            or image["num_vertices"] != self.image.num_vertices
        ):
            raise CheckpointError(
                f"checkpoint is for graph {image['name']!r} "
                f"({image['num_vertices']} vertices), not "
                f"{self.image.name!r} ({self.image.num_vertices})"
            )
        meta = state["engine"]
        if meta["num_threads"] != self.config.num_threads:
            raise CheckpointError(
                f"checkpoint ran {meta['num_threads']} threads, "
                f"this engine has {self.config.num_threads}"
            )
        if meta["mode"] != self.config.mode.value:
            raise CheckpointError(
                f"checkpoint ran in {meta['mode']} mode, this engine "
                f"is {self.config.mode.value}"
            )
        # Sync checkpoints (including pre-policy ones) omit the key.
        if meta.get("execution", "sync") != self.config.execution.value:
            raise CheckpointError(
                f"checkpoint ran under {meta.get('execution', 'sync')} "
                f"execution, this engine is {self.config.execution.value}"
            )
        prog_meta = state["program"]
        if prog_meta["class"] != type(program).__name__:
            raise CheckpointError(
                f"checkpoint holds {prog_meta['class']} state, the run "
                f"was given {type(program).__name__}"
            )
        safs_state = state["safs"]
        if (safs_state is None) != (self.safs is None):
            raise CheckpointError(
                "checkpoint and engine disagree about semi-external mode"
            )
        if safs_state is not None:
            files = {
                name: self.safs.open_file(name).file_id
                for name in self.safs.file_names()
            }
            if files != safs_state["files"]:
                raise CheckpointError(
                    "the SAFS file table does not match the checkpoint "
                    "(file names or ids differ; rebuild the stack the "
                    "same way as the checkpointed run)"
                )
            if (safs_state["health"] is None) != (self.safs.health is None):
                raise CheckpointError(
                    "checkpoint and engine disagree about health monitoring"
                )

        # Validation passed — reinstate, counters first.
        self.stats.reset()
        self.stats.merge(state["counters"])
        base = dict(state["base"])
        self.iteration = int(state["iteration"])
        frontier = np.asarray(state["frontier"], dtype=np.int64).copy()
        for worker, time, busy in zip(
            self._workers, state["worker_time"], state["worker_busy"]
        ):
            worker.time = float(time)
            worker.busy = float(busy)
        scheduler._rng.bit_generator.state = state["scheduler_rng"]
        program.restore_state(prog_meta["state"])
        self._messages.restore_peak(state["peak_pending"])
        if safs_state is not None:
            self.safs.array.restore_state(safs_state["array"])
            if safs_state["health"] is not None:
                self.safs.health.restore_state(safs_state["health"])
            self.safs.cache.restore_state(safs_state["cache"])
        return frontier, int(state["peak_messages"]), base

    def simulate_init_time(self) -> float:
        """Seconds to load the graph and set up execution (the "Init
        time" column of Table 2): one sequential scan of the image to
        distill the compact index, plus per-thread setup."""
        from repro.graph.construction import init_time

        array = self.safs.array if self.safs is not None else None
        return init_time(self.image, array) + 0.002 * self.config.num_threads

    # ------------------------------------------------------------------
    # Iteration machinery
    # ------------------------------------------------------------------

    def _run_iteration(
        self,
        frontier: np.ndarray,
        scheduler,
        priorities: Optional[np.ndarray] = None,
    ) -> None:
        """One sync superstep or, given ``priorities``, one async round.

        An async round orders worker queues by the priority-aware
        scheduler (``priorities`` indexes by vertex ID) and delivers
        messages *eagerly* — the buffer drains whenever occupancy reaches
        §3.4.1's per-thread flush threshold (the first thread to fill its
        buffer flushes) instead of waiting for the barrier, so receivers
        fold fresh state in mid-round and each round propagates further
        than a BSP superstep would.
        """
        config = self.config
        start = max((w.time for w in self._workers), default=0.0)
        for worker in self._workers:
            worker.time = start
        queues = self.partitioner.split(frontier)
        for worker, queue in zip(self._workers, queues):
            worker.queue = scheduler.schedule(
                queue,
                self.iteration,
                priorities=None if priorities is None else priorities[queue],
            )
            worker.pos = 0
        self._queued = [w for w in self._workers if w.remaining]
        self.stats.add(reg.ENGINE_ACTIVE_VERTICES, frontier.size)
        obs = self.obs
        if obs is not None:
            obs.begin_iteration(
                self.iteration, int(frontier.size), start, self._workers,
                self.stats,
            )

        # A batch is atomic in the simulation, so cap it at a quarter of
        # the thread's queue: real FlashGraph steals at vertex granularity
        # from a still-running thread (§3.8.1), which a whole-queue batch
        # would make impossible here.
        largest_queue = max((w.remaining for w in self._workers), default=0)
        batch_size = min(
            config.max_running_vertices, max(1, largest_queue // 4)
        )
        while True:
            worker = self._pick_worker()
            if worker is None:
                break
            if worker.remaining:
                batch = worker.take(batch_size)
                if not worker.remaining:
                    self._queued.remove(worker)
                self._process_batch(worker, batch)
            elif self._part_queue:
                requester, targets, direction, with_attrs = self._part_queue.popleft()
                self._process_part(worker, requester, targets, direction, with_attrs)
            else:
                # The fullest queue, ties to the lowest index (``_queued``
                # is in index order and holds no empty queue).
                victim = max(self._queued, key=_REMAINING, default=None)
                if victim is None:
                    break
                stolen = victim.steal_from_tail(
                    min(batch_size, max(1, victim.remaining // 2))
                )
                if not victim.remaining:
                    self._queued.remove(victim)
                self.stats.add(reg.ENGINE_STOLEN_VERTICES, stolen.size)
                if self.numa.is_remote(worker.index, victim.index):
                    self.stats.add(reg.NUMA_REMOTE_STEALS, stolen.size)
                self._process_batch(worker, stolen, victim.index)
            if priorities is not None and self._messages.flush_due(
                config.message_flush_threshold
            ):
                self.stats.add(reg.ENGINE_EAGER_FLUSHES)
                self._deliver_messages()

        self._deliver_messages()
        if self._iteration_end_requested:
            self._iteration_end_requested = False
            self._begin_stage(1, item=0)
            self.program.run_on_iteration_end(self._ctx)
            self._replay(self._workers[0], after=[self.cost_model.cpu_per_vertex_run])
        barrier = max(w.time for w in self._workers) + self.cost_model.iteration_barrier
        for worker in self._workers:
            worker.time = barrier
        if obs is not None:
            obs.end_iteration(barrier, self._workers, self)

    def _pick_worker(self) -> Optional[_Worker]:
        """The eligible worker with the earliest clock, ties to the lowest
        index; ``None`` once no work is left.  Vertex parts can run
        anywhere and an idle worker can steal (``load_balance``);
        otherwise only a worker with vertices of its own is eligible."""
        if self._part_queue or (self.config.load_balance and self._queued):
            return min(self._workers, key=_CLOCK)
        return min(self._queued, key=_CLOCK, default=None)

    def _process_batch(
        self, worker: _Worker, batch: np.ndarray, victim: Optional[int] = None
    ) -> None:
        """``run_batch`` on vertices from ``worker``'s queue, or stolen
        from ``victim``'s."""
        cm = self.cost_model
        run_cost = cm.cpu_per_vertex_run
        if victim is not None:
            # Stolen vertex state lives on the victim's socket (§3.8.1):
            # the NUMA hop scales the base steal penalty.
            run_cost += cm.cpu_steal_penalty * self.numa.remote_factor(worker.index, victim)
        self._begin_stage(batch.size)
        self.program.run_batch(self._ctx, batch)
        self._replay(worker, before=[run_cost])
        self._service_request_waves(worker)

    def _process_part(
        self,
        worker: _Worker,
        requester: int,
        targets: np.ndarray,
        direction: EdgeType,
        with_attrs: bool = False,
    ) -> None:
        self._append_wave(requester, targets, direction, with_attrs)
        self.stats.add(reg.ENGINE_VERTEX_PARTS)
        self._service_request_waves(worker)

    def _service_request_waves(self, worker: _Worker) -> None:
        """Service buffered edge-list requests until none are left.

        Everything buffered since the last wave is serviced as one wave,
        which is what gives the engine its global view for merging (§3.6);
        requests issued from the delivery hooks feed the next wave.
        """
        while self._wave:
            chunks, self._wave = self._wave, []
            if len(chunks) == 1:
                wave = _Wave(*chunks[0])
            else:
                wave = _Wave(*(np.concatenate(column) for column in zip(*chunks)))
            if wave.targets.size:
                self._service_wave(worker, wave)

    def _service_wave(self, worker: _Worker, wave: _Wave) -> None:
        """Read one wave and deliver it, in either execution mode.

        Every row of the wave is a row of the image's list table
        (:meth:`GraphImage.list_rows`), so one gather locates the whole
        wave.  In memory the lists are delivered in request order, at
        zero latency, and an attribute block needs no read of its own;
        semi-externally they are read through SAFS
        (:meth:`_submit_wave`) and delivered in completion order.  Either
        way they are read in one gather, in delivery order, out of the
        image's one neighbor array (:meth:`GraphImage.edge_words`).
        """
        source = self.image.edge_words()
        sizes, degrees, positions = self.image.list_rows()[:, wave.rows]
        if self.safs is not None:
            wave, arrived = self._submit_wave(worker, wave, sizes)
            degrees, positions = degrees[arrived], positions[arrived]
        elif wave.kinds.any():
            keep = (wave.kinds != _ATTRS).nonzero()[0]
            wave, degrees, positions = wave.take(keep), degrees[keep], positions[keep]
        wave.degrees = degrees
        wave.edges = gather_ranges(source, positions, degrees)
        self._deliver_wave(worker, wave)

    def _submit_wave(self, worker: _Worker, wave: _Wave, sizes: np.ndarray):
        """Merge and issue one wave through SAFS; returns the wave's rows
        in completion order and their indices in ``wave``.

        The wave is keyed by its rows of :meth:`GraphImage.list_keys` and
        merged as arrays — over the whole wave with engine merging,
        within SAFS's bounded queue window or not at all for the two
        Figure 12 counterfactuals — then issued span by span.  Its
        elements complete with their span and are put in the stable
        completion-time order.
        """
        image, safs, config = self.image, self.safs, self.config
        keyed, band = image.list_keys(self._lane_fids, safs.page_size)
        keys, last = keyed[:, wave.rows]
        # A zero-degree vertex's attribute block is empty: nothing to read.
        io = sizes.nonzero()[0]
        if config.merge_in_engine:
            window, kernel_requests = None, 0
        else:
            window = safs.config.fs_merge_window if config.merge_in_fs else 1
            kernel_requests = io.size
        spans = merge_request_arrays(keys[io], last[io], safs.page_size, band, window=window)
        span_done, cpu, span_issued, io_ids = safs.submit_spans(
            spans, self._lane_files, worker.time, kernel_requests
        )
        worker.time += cpu
        worker.busy += cpu
        self.stats.add(reg.ENGINE_IO_REQUESTS, io.size)

        part_done = span_done[spans.span_of_part]
        by_completion = part_done.argsort(kind="stable")
        arrived = io[spans.order[by_completion]]
        mate = None
        if wave.kinds.any():
            # The k-th list requested with attributes pairs with the k-th
            # attribute block; a block that was read is a row of its own.
            row = np.full(wave.targets.size, -1, dtype=np.int64)
            row[arrived] = np.arange(arrived.size)
            lists = row[wave.kinds == _EDGES_WITH_ATTRS]
            blocks = row[wave.kinds == _ATTRS]
            read = blocks >= 0
            mate = np.full(arrived.size, -1, dtype=np.int64)
            mate[lists[read]] = blocks[read]
            mate[blocks[read]] = lists[read]

        wave = wave.take(arrived)
        wave.mate = mate
        wave.times = part_done[by_completion]
        if io_ids is not None:
            span = spans.span_of_part[by_completion].tolist()
            issued = span_issued.tolist()
            self.obs.request_events_batch(
                wave.requesters.tolist(),
                wave.targets.tolist(),
                [_DIRECTIONS[code] for code in wave.dirs.tolist()],
                [_KIND_NAMES[kind] for kind in wave.kinds.tolist()],
                [io_ids[s] for s in span],
                [issued[s] for s in span],
                wave.times.tolist(),
            )

        # Attribute rows ride along: their degree is 0.
        if image.fmt == FORMAT_V2:
            wave.decode_sizes = sizes[arrived] * (wave.kinds != _ATTRS)
        return wave, arrived

    def _deliver_wave(self, worker: _Worker, wave: _Wave) -> None:
        """Hand one decoded wave to ``run_on_vertices``, then replay its
        charges: per list, after the wait for its data and the charges the
        hook logged, the ``run_on_vertex`` charge (its edges plus any
        ``charge_edges``, at the mode's per-edge rate) and, under format
        v2, the per-byte decode charge.  A list requested with attributes
        is delivered once its attribute block arrived too."""
        cm = self.cost_model
        in_memory = self.config.mode is ExecutionMode.IN_MEMORY
        edge_rate = cm.cpu_per_edge_mem if in_memory else cm.cpu_per_edge_sem
        if wave.decode_sizes is not None:
            self.stats.add(reg.GRAPH_DECODE_BYTES, int(wave.decode_sizes.sum()))
        self.stats.add(reg.ENGINE_EDGES_DELIVERED, int(wave.edges.size))
        times, sizes, degrees, edges = wave.times, wave.decode_sizes, wave.degrees, wave.edges
        if wave.mate is not None:
            # Rows whose pair is complete; an attribute row stands for its list.
            at = np.flatnonzero(wave.mate < np.arange(wave.mate.size))
            rows = np.where(wave.kinds[at] == _ATTRS, wave.mate[at], at)
            times = times[at]
            edges = gather_ranges(edges, (np.cumsum(degrees) - degrees)[rows], degrees[rows])
            degrees = degrees[rows]
            if sizes is not None:
                sizes = sizes[rows]
            wave = wave.take(rows)
        batch = PageVertexBatch(
            wave.requesters, wave.targets, wave.dirs, degrees, edges,
            *self._attrs_of(wave.targets, wave.dirs, wave.kinds, degrees),
        )
        self._begin_stage(batch.num_lists, lists=True)
        self.program.run_on_vertices(self._ctx, batch)
        if self._edge_items:
            # Integer edge work per list, summed before the one multiply.
            degrees = degrees.copy()
            np.add.at(degrees, self._edge_items, self._edge_counts)
        after = [cm.cpu_per_vertex_run + degrees * edge_rate]
        if sizes is not None:
            after.append(sizes * cm.cpu_per_decode_byte)
        self._replay(worker, after=after, times=times)

    def _attrs_of(self, owners, dirs, kinds, degrees):
        """Which lists were requested with attributes, and those lists'
        attributes (one float32 per edge) laid out beside their edges,
        NaN elsewhere; ``(None, None)`` when none was."""
        has_attrs = kinds == _EDGES_WITH_ATTRS
        if not has_attrs.any():
            return None, None
        starts = np.cumsum(degrees) - degrees
        attrs = np.full(int(degrees.sum()), np.nan, dtype=np.float32)
        # Each list's attribute block: its row in the attribute lane.
        first = self.image.list_rows()[2, (2 * dirs + 1) * self.image.num_vertices + owners]
        for code, direction in enumerate(_DIRECTIONS):
            lane = has_attrs & (dirs == code)
            if lane.any():
                values = np.frombuffer(self.image.attr_bytes[direction], dtype="<f4")
                attrs[scatter_positions(starts[lane], degrees[lane])] = gather_ranges(
                    values, first[lane], degrees[lane]
                )
        return has_attrs, attrs

    def _deliver_messages(self) -> None:
        """Hand each worker's share of the buffered messages to
        ``run_on_messages``, then replay per delivery the receive charge
        and the charges the hook logged for it."""
        dests, values, counts = self._messages.deliver()
        if dests.size == 0:
            return
        cm = self.cost_model
        # Group by owning worker, each group in delivery order.
        order, bounds = self.partitioner.group(dests)
        dests, values, counts = dests[order], values[order], counts[order]
        # Message *processing* is local by design: buffers are copied
        # once per thread (multicast, §3.4.1) and consumed on the
        # owner's socket.  Only the bundled copy crosses sockets, so
        # the NUMA penalty applies to the per-copy transfer cost, not
        # to per-message processing — this is exactly the localisation
        # the paper's message passing buys.
        remote_share = 1.0 - 1.0 / self.numa.num_sockets
        per_message = cm.cpu_per_message + (
            cm.cpu_per_multicast_recipient
            * self.numa.remote_penalty
            * remote_share
        )
        # Receive cost is per *logical* message: the combiner saves buffer
        # space, not the per-message processing (§3.4.1).
        receive = counts * per_message
        bounds = bounds.tolist()
        for p in np.flatnonzero(np.diff(bounds)).tolist():
            mine = slice(bounds[p], bounds[p + 1])
            self._begin_stage(bounds[p + 1] - bounds[p])
            self.program.run_on_messages(self._ctx, dests[mine], values[mine])
            self._replay(self._workers[p], before=[receive[mine]])
        self.stats.add(reg.MSG_DELIVERED, int(counts.sum()))
        self.stats.add(
            reg.NUMA_REMOTE_MESSAGE_SHARE,
            0.0 if self.numa.num_sockets == 1 else counts.sum() * (1.0 - 1.0 / self.numa.num_sockets),
        )

    def _begin_stage(self, count: int, item: Optional[int] = None, lists: bool = False) -> None:
        """Open a hook call over ``count`` items: batch calls report one
        count per item, scalar calls charge ``item`` (the default batch
        hooks move it), and ``lists`` (a wave) admits ``charge_edges``."""
        self._stage_items = count
        self._ctx._item = item
        self._edge_items, self._edge_counts = ([], []) if lists else (None, None)

    def _replay(self, worker: _Worker, before=(), after=(), times=None) -> None:
        """Advance ``worker`` through the hook call's charges, item by item.

        Each item waits for its data (``times``, completion-ordered), then
        is charged the stage's ``before`` charges, the charges its hook
        logged in call order, and the stage's ``after`` charges — each
        column a float or an array of one per item.  Every charge is one
        float add in the order charging it on the spot would have made,
        so a batch hook and the scalar hooks it stands for land clocks on
        the same bits.  A batch hook's calls are columns of their own; a
        scalar hook's were logged item by item, in item order.
        """
        count = self._stage_items
        items, charges = self._log_items, self._log_charges
        before = [*before, *self._log_columns]
        self._log_items, self._log_charges, self._log_columns = [], [], []
        t, b = worker.time, worker.busy
        if times is None and not items:
            columns = before + list(after)
            if all(isinstance(column, float) for column in columns):
                for charge in columns * count:  # the same adds for every item
                    t += charge
                    b += charge
                worker.time, worker.busy = t, b
                return
            # One sequence of adds, and ``cumsum`` adds strictly left to right.
            steps = np.empty(1 + count * len(columns))
            grid = steps[1:].reshape(count, len(columns))
            for j, column in enumerate(columns):
                grid[:, j] = column
            steps[0] = t
            worker.time = float(np.cumsum(steps)[-1])
            steps[0] = b
            worker.busy = float(np.cumsum(steps)[-1])
            return
        before = [c.tolist() if isinstance(c, np.ndarray) else [c] * count for c in before]
        after = [c.tolist() if isinstance(c, np.ndarray) else [c] * count for c in after]
        if times is not None:
            times = times.tolist()
        k, end = 0, len(items)
        for i in range(count):
            if times is not None and times[i] > t:
                t = times[i]  # waiting for data is not busy time
            for column in before:
                t += column[i]
                b += column[i]
            while k < end and items[k] == i:
                t += charges[k]
                b += charges[k]
                k += 1
            for column in after:
                t += column[i]
                b += column[i]
        worker.time, worker.busy = t, b

    def _drain_activations(self) -> np.ndarray:
        if not self._activations:
            return np.zeros(0, dtype=np.int64)
        activated = np.concatenate(self._activations)
        self._activations.clear()
        return self._frontier_of(activated, "activated vertex")

    def _frontier_of(self, ids: np.ndarray, what: str) -> np.ndarray:
        """The distinct vertex ids in ``ids``, ascending; a non-vertex id
        raises ``ValueError`` naming it as ``what``."""
        if ids.size == 0:
            return ids
        check_vertex_ids(ids, self.image.num_vertices, what)
        # One dense slot per vertex, as ``MessageBuffer.deliver`` keeps:
        # cheaper than the sort inside ``np.unique``.
        active = np.zeros(self.image.num_vertices, dtype=bool)
        active[ids] = True
        return np.flatnonzero(active)

    # ------------------------------------------------------------------
    # Context plumbing (called via GraphContext)
    # ------------------------------------------------------------------

    def _buffer_request(
        self,
        requester: int,
        targets: np.ndarray,
        direction: EdgeType,
        with_attrs: bool = False,
    ) -> None:
        if targets.size:
            check_vertex_ids(targets, self.image.num_vertices, "requested vertex")
        threshold = self.config.vertical_part_threshold
        if threshold and targets.size > threshold:
            parts = split_into_parts(requester, targets, self.config.vertical_part_size)
            targets = parts[0].targets
            for part in parts[1:]:
                self._part_queue.append(
                    (requester, part.targets, direction, with_attrs)
                )
        self._append_wave(requester, targets, direction, with_attrs)

    def _buffer_batch_request(self, vertices: np.ndarray, edge_type: EdgeType) -> None:
        """Buffer a whole wave of self-requests from ``run_batch``:
        per-vertex ``request_self`` calls in ``vertices`` order, a vertex's
        directions adjacent."""
        n = self.image.num_vertices
        check_vertex_ids(vertices, n, "requested vertex")
        codes = _DIRECTION_CODES[edge_type]
        lists = vertices.repeat(codes.size)
        dirs = np.empty((vertices.size, codes.size), dtype=np.int64)
        dirs[:] = codes
        dirs = dirs.ravel()
        kinds = np.zeros(lists.size, dtype=np.int64)  # all ``_EDGES``
        self._wave.append((lists, lists, dirs, kinds, dirs * (2 * n) + lists))

    def _append_wave(
        self, requester: int, targets: np.ndarray, direction: EdgeType, with_attrs: bool
    ) -> None:
        """Add one request's edge-list rows — followed, ``with_attrs``, by
        an attribute-block row per target — to the wave buffer."""
        if with_attrs and direction not in self.image.attr_offsets:
            raise ValueError(f"the graph has no {direction.value}-edge attributes")
        code, n = _DIRECTIONS.index(direction), self.image.num_vertices
        requesters = np.full(targets.size, requester)
        dirs = np.full(targets.size, code)
        kinds = np.full(targets.size, _EDGES_WITH_ATTRS if with_attrs else _EDGES)
        rows = targets + 2 * code * n
        self._wave.append((requesters, targets, dirs, kinds, rows))
        if with_attrs:
            self._wave.append((requesters, targets, dirs, np.full(targets.size, _ATTRS), rows + n))

    def _item_counts(self, name: str, counts) -> np.ndarray:
        """A batch call's ``counts``, checked to hold one per item."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self._stage_items,):
            raise ValueError(
                f"{name} counts must have one entry per item of the hook "
                f"call ({counts.size} != {self._stage_items})"
            )
        return counts

    def _buffer_message_batch(self, dests, values, counts) -> None:
        """Buffer the runs per-item ``send_message`` calls would have."""
        counts = self._item_counts("send_message_batch", counts)
        total = self._messages.send(dests, values, counts)
        self._log_columns.append(counts * self.cost_model.cpu_per_multicast_recipient)
        if total:
            self.stats.add(reg.MSG_SENT, total)

    def _buffer_activation_batch(self, vertices, counts) -> None:
        """Buffer a batch hook call's activations in one chunk."""
        vertices = np.asarray(vertices, dtype=np.int64)
        counts = self._item_counts("activate_batch", counts)
        total = int(counts.sum())
        if total != vertices.size:
            raise ValueError(
                f"activate_batch counts sum to {total}, not the "
                f"{vertices.size} vertices activated"
            )
        self._activations.append(vertices)
        self._log_columns.append(counts * self.cost_model.cpu_per_multicast_recipient)
        self.stats.add(reg.MSG_ACTIVATIONS, vertices.size)

    def _buffer_activation(self, item: int, vertices: np.ndarray) -> None:
        self._activations.append(vertices)
        self._log_items.append(item)
        self._log_charges.append(vertices.size * self.cost_model.cpu_per_multicast_recipient)
        self.stats.add(reg.MSG_ACTIVATIONS, vertices.size)

    def _buffer_message(self, item: int, dests: np.ndarray, values) -> None:
        count = self._messages.send(dests, values)
        self._log_items.append(item)
        self._log_charges.append(count * self.cost_model.cpu_per_multicast_recipient)
        self.stats.add(reg.MSG_SENT, count)

    def _request_iteration_end(self) -> None:
        self._iteration_end_requested = True

    def _charge_edges(self, item: int, count: int) -> None:
        if self._edge_items is None:
            raise ValueError(
                "charge_edges prices work on a delivered edge list: call it "
                "from run_on_vertex (or charge_edges_batch from run_on_vertices)"
            )
        self._edge_items.append(item)
        self._edge_counts.append(count)

    def _charge_edges_batch(self, counts) -> None:
        for item, count in enumerate(self._item_counts("charge_edges_batch", counts).tolist()):
            self._charge_edges(item, count)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _make_result(
        self, runtime: float, busy: float, base: Dict[str, float], peak_messages: int
    ) -> RunResult:
        counters = self.stats.diff(base)
        bytes_read = counters.get("ssd.bytes_read", 0.0)
        hits = counters.get("cache.hits", 0.0)
        misses = counters.get("cache.misses", 0.0)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        if self.safs is not None and runtime > 0:
            io_util = self.safs.array.utilization(runtime)
        else:
            io_util = 0.0
        cpu_util = (
            busy / (runtime * self.cost_model.num_cores) if runtime > 0 else 0.0
        )
        # Real FlashGraph flushes message buffers once a thread accumulates
        # message_flush_threshold messages (§3.4.1); the simulation delivers
        # at the barrier, so cap the modelled footprint at the flush level.
        buffered = min(
            peak_messages,
            self.config.num_threads * self.config.message_flush_threshold,
        )
        memory = {
            "vertex_state": self.image.num_vertices
            * self.program.state_bytes_per_vertex,
            "messages": buffered * MESSAGE_BYTES,
        }
        if self.config.mode is ExecutionMode.IN_MEMORY:
            # The one neighbor array and each direction's list starts.
            csrs = (self.image.out_csr, self.image.in_csr)[: 1 + self.image.directed]
            memory["edge_lists"] = self.image.words.nbytes + sum(
                csr.indptr.nbytes for csr in csrs
            )
            memory["graph_index"] = 0
            memory["page_cache"] = 0
        else:
            memory["graph_index"] = self.image.index_memory_bytes()
            memory["page_cache"] = self.safs.cache.config.capacity_bytes
        return RunResult(
            runtime=runtime,
            iterations=self.iteration,
            cpu_busy=busy,
            cpu_utilization=min(1.0, cpu_util),
            bytes_read=bytes_read,
            io_throughput=bytes_read / runtime if runtime > 0 else 0.0,
            io_utilization=io_util,
            cache_hit_rate=hit_rate,
            memory=memory,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _ensure_files_attached(self) -> None:
        image, safs = self.image, self.safs
        name = image.file_name(EdgeType.OUT)
        if name not in safs.file_names():
            image.attach_to_safs(safs)
        elif safs.file_format(name) != image.fmt:
            # A same-named file written under the other layout would parse
            # as garbage; fail fast instead.
            raise ValueError(
                f"SAFS file {name!r} was created as format "
                f"{safs.file_format(name)!r} but the image expects "
                f"{image.fmt!r}"
            )
        # File ids are numbered per SAFS, so the lane -> file map is the
        # engine's.  An undirected image's in-lists are its one edge file.
        files = []
        for direction in _DIRECTIONS:
            edges = image.file_name(direction if image.directed else EdgeType.OUT)
            attrs = f"{image.name}.{direction.value}-attrs"
            files.append(safs.open_file(edges))
            files.append(safs.open_file(attrs) if direction in image.attr_offsets else None)
        self._lane_files = {file.file_id: file for file in files if file is not None}
        self._lane_fids = tuple(-1 if file is None else file.file_id for file in files)
