"""Async priority rounds: the residual state behind ``execution="async"``.

The engine's run loop (:meth:`GraphEngine.start_job`) runs either
bulk-synchronous supersteps — every active vertex runs once per
iteration, messages buffer to the barrier — or, under
``ExecutionKind.ASYNC``, **priority rounds**, whose frontier selection
lives here:

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

from repro.obs import registry as reg

#: Residuals are clamped here so priority bucketing (frexp) and the
#: global sum stay finite even for "never announced" sentinels like
#: SSSP's ``inf - dist``.
MAX_RESIDUAL = 1e18


class AsyncResiduals:
    """Every vertex's residual: selects each round's active set and
    rescores the vertices a round touched."""

    def __init__(self, num_vertices: int, threshold: float) -> None:
        self.num_vertices = num_vertices
        #: Global residual sum at which the run stops (0: quiescence only).
        self.threshold = threshold
        #: Current residual per vertex (the priority).
        self.residual: Optional[np.ndarray] = None
        self._program = None
        self._floor = 0.0

    def start(self, program, frontier: np.ndarray, stats) -> None:
        """Bind ``program``; seed the residuals from ``frontier`` unless a
        checkpoint restored them."""
        if program.residuals is None:
            raise ValueError(
                f"{type(program).__name__} does not support async "
                "execution: it declares no residuals hook (see "
                "docs/execution_modes.md)"
            )
        self._program = program
        self._floor = float(program.async_floor)
        if self.residual is None:
            self.residual = np.zeros(self.num_vertices)
            if frontier.size:
                self.residual[frontier] = self._score(frontier)
                stats.add(reg.ENGINE_PRIORITY_UPDATES, frontier.size)

    def select(self, stats, pending: int) -> Optional[np.ndarray]:
        """The next round's active set, or ``None`` once the run is done."""
        active = np.nonzero(self.residual > self._floor)[0]
        total = float(self.residual.sum())
        stats.set(reg.ENGINE_RESIDUAL, total)
        if active.size == 0 and not pending:
            return None  # quiescence: nothing above the floor, nothing in flight
        if self.threshold > 0.0 and total <= self.threshold:
            return None  # global residual threshold reached
        return active

    def rescore(self, active: np.ndarray, activated: np.ndarray, stats) -> np.ndarray:
        """Rescore the vertices a round ran or activated; returns them."""
        touched = np.union1d(active, activated)
        self.residual[touched] = self._score(touched)
        stats.add(reg.ENGINE_PRIORITY_UPDATES, touched.size)
        stats.add(reg.ENGINE_ASYNC_ROUNDS)
        return touched

    def frontier_size(self) -> int:
        """Vertices still above the residual floor: the async analogue of
        the sync frontier (see ``EngineJob.frontier_size``)."""
        return int(np.count_nonzero(self.residual > self._floor))

    def _score(self, vertices: np.ndarray) -> np.ndarray:
        """Clamped, validated residuals for ``vertices``."""
        if vertices.size == 0:
            return np.zeros(0)
        residual = np.asarray(self._program.residuals(vertices), dtype=np.float64)
        if residual.shape != vertices.shape:
            raise ValueError(
                "residuals must return one value per vertex "
                f"({residual.shape} != {vertices.shape})"
            )
        return np.clip(residual, 0.0, MAX_RESIDUAL)

    # -- checkpoint plumbing ------------------------------------------------

    def export_state(self) -> dict:
        return {"policy": "async", "residual": self.residual.copy()}

    def restore_state(self, state: dict) -> None:
        self.residual = np.asarray(state["residual"], dtype=np.float64).copy()
