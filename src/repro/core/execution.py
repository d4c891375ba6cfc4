"""Pluggable execution policies: synchronous BSP vs async priority rounds.

The engine's run loop used to be hard-wired to bulk-synchronous-parallel
supersteps: every active vertex runs once per iteration, messages buffer
to the global barrier, and the whole frontier waits for its slowest
member even when most of it has already converged.  SAFS's user-task
interface is inherently asynchronous (paper §3), so the loop itself is
the only thing standing between the engine and ACGraph-style asynchronous
execution — this module makes that loop a *policy*.

:class:`SyncExecution` is the extracted BSP loop, operation for
operation: a sync run's counters, clocks and results are bit-identical
to the pre-policy engine (the golden-result tests pin this).

:class:`AsyncExecution` replaces supersteps with **priority rounds**:

- every vertex carries a *residual* — how much unpropagated work it
  holds (PageRank's pending delta, WCC's label improvement since the
  last broadcast, SSSP's tentative-distance improvement) — reported by
  the program's ``residuals`` hook;
- each round schedules every vertex whose residual is above the
  program's floor, ordered by the priority-aware
  :class:`~repro.core.scheduler.VertexScheduler` so hot blocks run
  first while batches still merge into large sequential reads (a
  sparser top-residual slice was measured and lost: it still touches
  almost every page, see ``docs/execution_modes.md``);
- messages deliver *eagerly*: the round drains the buffer whenever
  occupancy reaches the flush threshold (§3.4.1) instead of waiting
  for a barrier; each drain combines canonically (see
  :mod:`repro.core.messages`), a function of the multiset it holds, so
  fault recovery stays deterministic;
- convergence needs no barrier: the run ends when the above-floor
  active set quiesces, or when the global residual sum drops to
  ``async_threshold``.

Leaving a vertex below the floor alone until its residual has grown
means each edge-list read propagates more accumulated work, so the same
fixpoint is reached with fewer I/O bytes — the ACGraph observation this
mode reproduces (``benchmarks/bench_async_vs_sync.py`` records the win).
"""

from typing import Optional

import numpy as np

from repro.core.checkpoint import CheckpointError
from repro.core.config import EngineConfig, ExecutionKind
from repro.obs import registry as reg

#: Residuals are clamped here so priority bucketing (frexp) and the
#: global sum stay finite even for "never announced" sentinels like
#: SSSP's ``inf - dist``.
MAX_RESIDUAL = 1e18


class ExecutionPolicy:
    """Drives one :meth:`GraphEngine.run` call to convergence."""

    kind: ExecutionKind

    def steps(
        self, engine, frontier, scheduler, max_iterations, base, manager, every
    ):
        """Generator over iterations/rounds: one ``yield`` per barrier.

        Mutates ``engine`` (clocks, counters, ``iteration``,
        ``_peak_messages``) exactly as the pre-policy loop did; the
        engine turns the aftermath into a :class:`RunResult`.  Yielding
        at the barrier is what lets a service interleave many jobs on
        one DES clock — a batch run just drains the generator.
        """
        raise NotImplementedError

    def export_state(self) -> Optional[dict]:
        """Policy state a checkpoint must carry (``None`` = stateless)."""
        return None

    def restore_state(self, state: Optional[dict]) -> None:
        """Reinstate :meth:`export_state` output on resume.

        Called with the checkpoint's ``execution`` entry (``None`` for
        checkpoints written by a sync run, including every pre-policy
        checkpoint).  Raises :class:`CheckpointError` on a policy
        mismatch before anything is mutated.
        """
        if state is not None:
            raise CheckpointError(
                f"checkpoint carries {state.get('policy')!r} execution "
                f"state, this engine runs {self.kind.value!r}"
            )


class SyncExecution(ExecutionPolicy):
    """The classic BSP superstep loop, bit-identical to the pre-policy
    engine: full-frontier iterations, barrier-buffered messages."""

    kind = ExecutionKind.SYNC

    def steps(
        self, engine, frontier, scheduler, max_iterations, base, manager, every
    ):
        while frontier.size or engine._messages.pending:
            if max_iterations is not None and engine.iteration >= max_iterations:
                break
            engine._run_iteration(frontier, scheduler)
            engine._peak_messages = max(
                engine._peak_messages, engine._messages.peak_pending
            )
            frontier = engine._drain_activations()
            # Published for EngineJob.frontier_size: the serving layer's
            # deadline estimator reads the upcoming frontier at the
            # barrier.  Observation only — no engine state depends on it.
            engine._barrier_frontier = int(frontier.size)
            engine.iteration += 1
            if manager is not None and every and engine.iteration % every == 0:
                # Saving never touches the shared stats: the counter
                # stream of a checkpointed run must stay bit-identical
                # to an unmonitored one.
                manager.save(
                    engine._capture_checkpoint(
                        frontier, engine._peak_messages, base, scheduler
                    )
                )
            obs = engine.obs
            if obs is not None:
                # Emits only under a query span context (serving runs),
                # so batch traces stay byte-identical.
                obs.job_barrier(
                    engine.iteration,
                    max(w.time for w in engine._workers),
                    engine._barrier_frontier,
                )
            yield engine.iteration


class AsyncExecution(ExecutionPolicy):
    """Barrier-free priority rounds over the program's residuals."""

    kind = ExecutionKind.ASYNC

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        #: Current residual per vertex (the priority).
        self._residual: Optional[np.ndarray] = None
        self._resumed = False

    # -- the round loop -------------------------------------------------

    def steps(
        self, engine, frontier, scheduler, max_iterations, base, manager, every
    ):
        program = engine.program
        if program.residuals is None:
            raise ValueError(
                f"{type(program).__name__} does not support async "
                "execution: it declares no residuals hook (see "
                "docs/execution_modes.md)"
            )
        cfg = self.config
        floor = float(program.async_floor)
        stats = engine.stats
        if not self._resumed:
            n = engine.image.num_vertices
            self._residual = np.zeros(n)
            if frontier.size:
                self._residual[frontier] = self._score(program, frontier)
                stats.add(reg.ENGINE_PRIORITY_UPDATES, frontier.size)

        while True:
            if max_iterations is not None and engine.iteration >= max_iterations:
                break
            active = np.nonzero(self._residual > floor)[0]
            total = float(self._residual.sum())
            stats.set(reg.ENGINE_RESIDUAL, total)
            if active.size == 0 and not engine._messages.pending:
                break  # quiescence: nothing above the floor, nothing in flight
            if cfg.async_threshold > 0.0 and total <= cfg.async_threshold:
                break  # global residual threshold reached
            engine._run_iteration(active, scheduler, self._residual)
            engine._peak_messages = max(
                engine._peak_messages, engine._messages.peak_pending
            )
            activated = engine._drain_activations()
            touched = np.union1d(active, activated)
            self._residual[touched] = self._score(program, touched)
            stats.add(reg.ENGINE_PRIORITY_UPDATES, touched.size)
            stats.add(reg.ENGINE_ASYNC_ROUNDS)
            # The async analogue of the sync frontier: vertices still
            # above the residual floor after this round (see
            # EngineJob.frontier_size).
            engine._barrier_frontier = int(
                np.count_nonzero(self._residual > floor)
            )
            engine.iteration += 1
            if manager is not None and every and engine.iteration % every == 0:
                manager.save(
                    engine._capture_checkpoint(
                        touched,
                        engine._peak_messages,
                        base,
                        scheduler,
                        execution=self.export_state(),
                    )
                )
            obs = engine.obs
            if obs is not None:
                # Same query-context-gated barrier event as the sync
                # loop: a round boundary is the async job's barrier.
                obs.job_barrier(
                    engine.iteration,
                    max(w.time for w in engine._workers),
                    engine._barrier_frontier,
                )
            yield engine.iteration

    def _score(self, program, vertices: np.ndarray) -> np.ndarray:
        """Clamped, validated residuals for ``vertices``."""
        if vertices.size == 0:
            return np.zeros(0)
        residual = np.asarray(program.residuals(vertices), dtype=np.float64)
        if residual.shape != vertices.shape:
            raise ValueError(
                "residuals must return one value per vertex "
                f"({residual.shape} != {vertices.shape})"
            )
        return np.clip(residual, 0.0, MAX_RESIDUAL)

    # -- checkpoint plumbing --------------------------------------------

    def export_state(self) -> dict:
        return {
            "policy": self.kind.value,
            "residual": self._residual.copy(),
        }

    def restore_state(self, state: Optional[dict]) -> None:
        if state is None or state.get("policy") != self.kind.value:
            have = None if state is None else state.get("policy")
            raise CheckpointError(
                f"checkpoint carries {have!r} execution state, this "
                f"engine runs {self.kind.value!r}"
            )
        self._residual = np.asarray(state["residual"], dtype=np.float64).copy()
        self._resumed = True


def make_execution_policy(config: EngineConfig) -> ExecutionPolicy:
    """The policy :class:`~repro.core.config.EngineConfig` asks for."""
    if config.execution is ExecutionKind.ASYNC:
        return AsyncExecution(config)
    return SyncExecution()
