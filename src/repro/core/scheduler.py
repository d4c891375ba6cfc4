"""Per-thread vertex scheduling (§3.7).

The default scheduler orders active vertices by ID — the order edge lists
are laid out on SSDs — so requests from one batch merge into large
sequential reads.  For algorithms insensitive to ordering it alternates the
scan direction each iteration, re-touching the pages cached at the end of
the previous iteration first.  Algorithms may install a custom order
(scan statistics runs largest-degree-first).

The async execution mode (see :mod:`repro.core.execution`) additionally
passes per-vertex *priorities* (accumulated residuals): the scheduler then
orders contiguous ID *blocks* by their hottest resident's priority bucket
— so high-residual regions are batched first — and keeps ascending-ID
order within and across same-bucket blocks.  Ordering blocks rather than
individual vertices is deliberate: a vertex-granular priority sort
interleaves the ID space into one partial scan per bucket, and with a
cache smaller than the edge file every extra scan re-reads the same pages
from SSD (measured: ~2-3x the bytes of a single sweep on twitter-sim).
Block granularity matches the engine's range partitioning
(``config.range_shift``), the unit requests merge at (§3.6).
"""

from typing import Callable, Optional

import numpy as np

from repro.core.config import ScheduleOrder

#: A custom ordering: ``(active_ids, iteration) -> ordered_ids``.
OrderFn = Callable[[np.ndarray, int], np.ndarray]


class VertexScheduler:
    """Orders one thread's active vertices for an iteration."""

    def __init__(
        self,
        order: ScheduleOrder = ScheduleOrder.BY_ID,
        alternate: bool = True,
        custom_order: Optional[OrderFn] = None,
        seed: int = 0,
        block_shift: int = 8,
    ) -> None:
        if order is ScheduleOrder.CUSTOM and custom_order is None:
            raise ValueError("CUSTOM order needs a custom_order function")
        if block_shift < 0:
            raise ValueError("block_shift must be non-negative")
        self.order = order
        self.alternate = alternate
        self.custom_order = custom_order
        self.block_shift = block_shift
        self._rng = np.random.default_rng(seed)

    def export_state(self) -> dict:
        """The random order's RNG state, for a checkpoint."""
        return self._rng.bit_generator.state

    def restore_state(self, state: dict) -> None:
        """Reinstate :meth:`export_state` output."""
        self._rng.bit_generator.state = state

    def schedule(
        self,
        active: np.ndarray,
        iteration: int,
        priorities: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The execution order for ``active`` in ``iteration``.

        ``priorities``, when given (async mode), must align with
        ``active``; it overrides the configured order with the bucketed
        priority order described in the module docstring.
        """
        active = np.asarray(active, dtype=np.int64)
        if active.size == 0:
            return active
        if priorities is not None:
            return self._schedule_by_priority(active, priorities)
        if self.order is ScheduleOrder.CUSTOM:
            ordered = np.asarray(self.custom_order(active, iteration), dtype=np.int64)
            if ordered.size != active.size or not np.array_equal(
                np.sort(ordered), np.sort(active)
            ):
                # A custom order returning duplicates, dropped entries or
                # foreign vertex IDs would silently corrupt the run (some
                # vertices executed twice, others never); require a true
                # permutation of the input.
                raise ValueError("custom order must be a permutation of the input")
            return ordered
        if self.order is ScheduleOrder.RANDOM:
            return self._rng.permutation(active)
        ordered = np.sort(active)
        if self.alternate and iteration % 2 == 1:
            ordered = ordered[::-1]
        return ordered

    def _schedule_by_priority(
        self, active: np.ndarray, priorities: np.ndarray
    ) -> np.ndarray:
        """Descending block-priority buckets, ascending IDs otherwise.

        Each contiguous ``1 << block_shift`` ID block inherits its
        hottest resident's priority, bucketed by binary exponent
        (priorities within a factor of two tie).  Blocks run hottest
        bucket first; same-bucket blocks and the vertices inside a block
        stay in ascending-ID order, so each block's edge lists still
        merge into one large sequential read (§3.6) and every page is
        fetched at most once per round.
        """
        priorities = np.asarray(priorities, dtype=np.float64)
        if priorities.shape != active.shape:
            raise ValueError("priorities must align with the active set")
        # frexp is undefined for non-finite values; clamp first (the
        # async residuals are finite and non-negative already).
        bucket = np.frexp(np.clip(priorities, 0.0, np.finfo(np.float64).max))[1]
        blocks, inverse = np.unique(active >> self.block_shift, return_inverse=True)
        block_bucket = np.full(blocks.size, np.iinfo(np.int64).min)
        np.maximum.at(block_bucket, inverse, bucket)
        order = np.lexsort((active, -block_bucket[inverse]))
        return active[order]


def make_scheduler(config, custom_order: Optional[OrderFn] = None) -> VertexScheduler:
    """Build the scheduler an :class:`~repro.core.config.EngineConfig` asks for."""
    return VertexScheduler(
        order=config.schedule_order,
        alternate=config.alternate_scan_direction,
        custom_order=custom_order,
        block_shift=config.range_shift,
    )
