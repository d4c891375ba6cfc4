"""The FlashGraph execution engine (§3.2–§3.8): workers and the run loop.

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

The engine's other mechanisms are modules of their own: the wave reader
(:mod:`repro.core.reader`) buffers and reads edge-list requests, the
charge log (:mod:`repro.core.charges`) replays each hook call's CPU
charges onto a worker clock, :mod:`repro.core.checkpoint` captures and
applies barrier state, and :mod:`repro.core.execution` holds the async
mode's residuals.
"""

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.core.charges import ChargeLog
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    apply_checkpoint,
    capture_checkpoint,
    load_checkpoint,
)
from repro.core.config import (
    EngineConfig,
    ExecutionKind,
    ExecutionMode,
    PartitionStrategy,
    ScheduleOrder,
)
from repro.core.execution import AsyncResiduals
from repro.core.messages import MessageBuffer, check_vertex_ids
from repro.core.partition import HashPartitioner, RangePartitioner
from repro.core.reader import WaveReader
from repro.core.scheduler import make_scheduler
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.obs import registry as reg
from repro.graph.builder import GraphImage
from repro.graph.format import FORMAT_V2
from repro.safs.filesystem import SAFS
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.sim.faults import UnrecoverableIOError
from repro.sim.numa import NumaTopology
from repro.sim.stats import StatsCollector

#: Estimated bytes per buffered message (dest id + payload).
MESSAGE_BYTES = 16

#: Sort key of the worker pick: a worker's simulated clock.
_CLOCK = attrgetter("time")
#: Sort key of the steal-victim pick: vertices a worker has not claimed.
_REMAINING = attrgetter("remaining")


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
        return self._engine._clock(self.start_time)

    @property
    def iteration(self) -> int:
        return self._engine.iteration

    @property
    def done(self) -> bool:
        return self._done

    @property
    def frontier_size(self) -> int:
        """Active-vertex count at the last iteration barrier.

        Updated by the run loop before every barrier yield; the
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
        self._steps.close()
        cause = JobCancelled(reason, self.clock)
        self._done = True
        return self._engine._abort_run(
            cause, self._base, self.start_time, record_fault=False
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
            runtime = engine._clock(self.start_time) - self.start_time
            self._result = engine._make_result(runtime, self._base)
            return False
        except UnrecoverableIOError as exc:
            self._done = True
            raise engine._abort_run(exc, self._base, self.start_time) from exc
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
        #: Buffers every edge-list request and reads it, wave by wave.
        self.reader = WaveReader(image, self.safs, self.config, self.stats)
        #: Logs the charges of the hook call in progress and replays them.
        self.charges = ChargeLog()
        #: Activations buffered this iteration: the next frontier.
        self.activations: List[np.ndarray] = []
        #: The run's message buffer (one per run, see :meth:`start_job`).
        self.messages: Optional[MessageBuffer] = None
        #: Set by ``notify_iteration_end``; consumed at the barrier.
        self.iteration_end_requested = False
        self._ctx = GraphContext(self)
        self._workers: List[_Worker] = []
        # Workers whose queue still holds unclaimed vertices this
        # iteration, in index order (what ``_pick_worker`` chooses among).
        self._queued: List[_Worker] = []
        # Iteration-barrier checkpointing (see repro.core.checkpoint):
        # a manager plus interval arm capture; a pending resume state is
        # consumed by the next run() call.
        self._checkpoint_manager = None
        self._checkpoint_every = 0
        self._resume_state: Optional[dict] = None
        #: Largest message-buffer occupancy seen this run (memory
        #: accounting).
        self._peak_messages = 0
        #: Active-set size at the last barrier, read through
        #: :attr:`EngineJob.frontier_size`.
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
        if self.safs is not None:
            self.reader.open_files()
        self._reset_transients()
        self.program = program
        self.messages = MessageBuffer(program.combiner, self.image.num_vertices)
        base = self.stats.snapshot()
        if self.safs is not None and self.image.fmt == FORMAT_V2:
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
        residuals = None
        if self.config.execution is ExecutionKind.ASYNC:
            residuals = AsyncResiduals(self.image.num_vertices, self.config.async_threshold)
        self.iteration = 0
        self._peak_messages = 0
        resume, self._resume_state = self._resume_state, None
        if resume is not None:
            frontier, base = apply_checkpoint(self, resume, program, scheduler)
            if residuals is not None:
                residuals.restore_state(resume["execution"])
        self._barrier_frontier = int(frontier.size)
        steps = self._steps(frontier, scheduler, max_iterations, base, residuals)
        return EngineJob(self, steps, base, start_time, span_context)

    def _steps(self, frontier, scheduler, max_iterations, base, residuals):
        """The run loop, one ``yield`` per barrier.

        Sync runs BSP supersteps: every vertex of the frontier runs once,
        messages buffer to the barrier, and the activated vertices are
        the next frontier.  Given ``residuals`` (async), each round runs
        the vertices above the residual floor in priority order, and the
        run ends when they quiesce (see :mod:`repro.core.execution`).
        Both share the barrier tail.  Yielding there is what lets a
        service interleave many jobs on one DES clock — a batch run just
        drains the generator.
        """
        if residuals is not None:
            residuals.start(self.program, frontier, self.stats)
        manager, every = self._checkpoint_manager, self._checkpoint_every
        while max_iterations is None or self.iteration < max_iterations:
            if residuals is None:
                if not (frontier.size or self.messages.pending):
                    break
                self._run_iteration(frontier, scheduler)
                frontier = self._drain_activations()
                self._barrier_frontier = int(frontier.size)
            else:
                active = residuals.select(self.stats, self.messages.pending)
                if active is None:
                    break
                self._run_iteration(active, scheduler, residuals.residual)
                frontier = residuals.rescore(active, self._drain_activations(), self.stats)
                self._barrier_frontier = residuals.frontier_size()
            self._peak_messages = max(self._peak_messages, self.messages.peak_pending)
            self.iteration += 1
            if manager is not None and self.iteration % every == 0:
                # Saving never touches the shared stats: the counter
                # stream of a checkpointed run must stay bit-identical
                # to an unmonitored one.
                execution = None if residuals is None else residuals.export_state()
                manager.save(
                    capture_checkpoint(self, frontier, base, scheduler, execution)
                )
            if self.obs is not None:
                # Emits only under a query span context (serving runs),
                # so batch traces stay byte-identical.
                self.obs.job_barrier(
                    self.iteration, self._clock(), self._barrier_frontier
                )
            yield self.iteration

    def _reset_transients(self) -> None:
        """Drop everything a run holds between barriers: buffered requests
        and vertex parts, logged charges, activations, undelivered
        messages and a pending iteration-end callback.  Every run starts
        from here, and an abort comes back here."""
        self.reader.clear()
        self.charges.clear()
        self.activations.clear()
        if self.messages is not None:
            self.messages.clear()
        self.iteration_end_requested = False

    def _abort_run(
        self, cause, base: Dict[str, float], start_time: float = 0.0, record_fault: bool = True
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
        self._reset_transients()
        if record_fault:
            self.stats.add(reg.FAULTS_ABORTED_ITERATIONS)
        barrier = max(self._clock(start_time), cause.time)
        if self.obs is not None:
            self.obs.abort_iteration(barrier, self._workers, self.stats)
        partial = self._make_result(barrier - start_time, base)
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
            state = load_checkpoint(source)
        self._resume_state = state
        return int(state["iteration"])

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
        config, reader = self.config, self.reader
        start = self._clock()
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
            elif reader.parts:
                reader.next_part()
                self._service_request_waves(worker)
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
            if priorities is not None and self.messages.flush_due(
                config.message_flush_threshold
            ):
                self.stats.add(reg.ENGINE_EAGER_FLUSHES)
                self._deliver_messages()

        self._deliver_messages()
        if self.iteration_end_requested:
            self.iteration_end_requested = False
            self.charges.begin(1, item=0)
            self.program.run_on_iteration_end(self._ctx)
            self.charges.replay(
                self._workers[0], after=[self.cost_model.cpu_per_vertex_run]
            )
        barrier = self._clock() + self.cost_model.iteration_barrier
        for worker in self._workers:
            worker.time = barrier
        if obs is not None:
            obs.end_iteration(barrier, self._workers, self)

    def _pick_worker(self) -> Optional[_Worker]:
        """The eligible worker with the earliest clock, ties to the lowest
        index; ``None`` once no work is left.  Vertex parts can run
        anywhere and an idle worker can steal (``load_balance``);
        otherwise only a worker with vertices of its own is eligible."""
        if self.reader.parts or (self.config.load_balance and self._queued):
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
        self.charges.begin(batch.size)
        self.program.run_batch(self._ctx, batch)
        self.charges.replay(worker, before=[run_cost])
        self._service_request_waves(worker)

    def _service_request_waves(self, worker: _Worker) -> None:
        """Read and deliver buffered waves on ``worker`` until none is left."""
        for wave in self.reader.waves(worker):
            self._deliver_wave(worker, wave)

    def _deliver_wave(self, worker: _Worker, wave) -> None:
        """Hand one read wave to ``run_on_vertices``, then replay its
        charges: per list, after the wait for its data and the charges the
        hook logged, the ``run_on_vertex`` charge (its edges plus any
        ``charge_edges``, at the mode's per-edge rate) and, under format
        v2, the per-byte decode charge."""
        cm, charges = self.cost_model, self.charges
        in_memory = self.config.mode is ExecutionMode.IN_MEMORY
        edge_rate = cm.cpu_per_edge_mem if in_memory else cm.cpu_per_edge_sem
        batch, times, sizes = self.reader.lists(wave)
        charges.begin(batch.num_lists, lists=True)
        self.program.run_on_vertices(self._ctx, batch)
        after = [cm.cpu_per_vertex_run + charges.edge_work(batch.degrees) * edge_rate]
        if sizes is not None:
            after.append(sizes * cm.cpu_per_decode_byte)
        charges.replay(worker, after=after, times=times)

    def _deliver_messages(self) -> None:
        """Hand each worker's share of the buffered messages to
        ``run_on_messages``, then replay per delivery the receive charge
        and the charges the hook logged for it."""
        dests, values, counts = self.messages.deliver()
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
            self.charges.begin(bounds[p + 1] - bounds[p])
            self.program.run_on_messages(self._ctx, dests[mine], values[mine])
            self.charges.replay(self._workers[p], before=[receive[mine]])
        self.stats.add(reg.MSG_DELIVERED, int(counts.sum()))
        self.stats.add(
            reg.NUMA_REMOTE_MESSAGE_SHARE,
            0.0 if self.numa.num_sockets == 1 else counts.sum() * (1.0 - 1.0 / self.numa.num_sockets),
        )

    def _drain_activations(self) -> np.ndarray:
        if not self.activations:
            return np.zeros(0, dtype=np.int64)
        activated = np.concatenate(self.activations)
        self.activations.clear()
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
    # Accounting
    # ------------------------------------------------------------------

    def _clock(self, default: float = 0.0) -> float:
        """The latest worker clock (``default`` before there are workers)."""
        return max((w.time for w in self._workers), default=default)

    def _make_result(self, runtime: float, base: Dict[str, float]) -> RunResult:
        busy = sum(w.busy for w in self._workers)
        counters = self.stats.diff(base)
        bytes_read = counters.get("ssd.bytes_read", 0.0)
        hits = counters.get("cache.hits", 0.0)
        misses = counters.get("cache.misses", 0.0)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        if self.safs is not None and runtime > 0:
            io_util = self.safs.array.utilization(runtime)
        else:
            io_util = 0.0
        cpu_util = busy / (runtime * self.cost_model.num_cores) if runtime > 0 else 0.0
        # Real FlashGraph flushes message buffers once a thread accumulates
        # message_flush_threshold messages (§3.4.1); the simulation delivers
        # at the barrier, so cap the modelled footprint at the flush level.
        buffered = min(
            self._peak_messages,
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
