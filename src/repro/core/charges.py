"""The charge log: what a hook call charges, replayed onto a worker clock.

While the engine's hook for a stage runs, every charged
:class:`~repro.core.vertex_program.GraphContext` call is logged against
the item it is for; :meth:`ChargeLog.replay` then adds the charges to a
worker's clock in the order charging them on the spot would have made
(see ``docs/architecture.md``, "One hook per stage, one replay").
"""

from typing import List, Optional

import numpy as np


class ChargeLog:
    """The charges of the hook call in progress, in call order."""

    def __init__(self) -> None:
        #: Items of the hook call in progress.
        self.items = 0
        #: The item the running scalar hook was called for; ``None``
        #: inside a batch hook.
        self.item: Optional[int] = None
        # Scalar calls' charges, item by item; batch calls' columns.
        self._items: List[int] = []
        self._charges: List[float] = []
        self._columns: List[np.ndarray] = []
        # A wave stage admits ``charge_edges``: extra edges per list,
        # summed as integers (``None`` until the first is charged).
        self._lists = False
        self._extra: Optional[np.ndarray] = None

    def begin(self, count: int, item: Optional[int] = None, lists: bool = False) -> None:
        """Open a hook call over ``count`` items: batch calls report one
        count per item, scalar calls charge ``item`` (the default batch
        hooks move it), and ``lists`` (a wave) admits ``charge_edges``."""
        self.items, self.item = count, item
        self._lists, self._extra = lists, None

    def clear(self) -> None:
        """Drop whatever an interrupted hook call logged."""
        self._items, self._charges, self._columns = [], [], []
        self._lists, self._extra = False, None

    # -- logging (called by GraphContext) ----------------------------------

    def log(self, item: int, charge: float) -> None:
        """One scalar call's charge for ``item``."""
        self._items.append(item)
        self._charges.append(charge)

    def log_column(self, charges: np.ndarray) -> None:
        """One batch call's charges, one per item."""
        self._columns.append(charges)

    def item_counts(self, name: str, counts) -> np.ndarray:
        """A batch call's ``counts``, checked to hold one per item."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.items,):
            raise ValueError(
                f"{name} counts must have one entry per item of the hook "
                f"call ({counts.size} != {self.items})"
            )
        return counts

    def log_edges(self, item: int, count: int) -> None:
        """Extra edges of work on delivered list ``item``."""
        self._extra_edges()[item] += count

    def log_edges_batch(self, counts) -> None:
        """Extra edges of work on every delivered list at once."""
        counts = self.item_counts("charge_edges_batch", counts)
        self._extra_edges()[:] += counts

    def _extra_edges(self) -> np.ndarray:
        if not self._lists:
            raise ValueError(
                "charge_edges prices work on a delivered edge list: call it "
                "from run_on_vertex (or charge_edges_batch from run_on_vertices)"
            )
        if self._extra is None:
            self._extra = np.zeros(self.items, dtype=np.int64)
        return self._extra

    def edge_work(self, degrees: np.ndarray) -> np.ndarray:
        """Edges of work per delivered list: ``degrees`` plus the extra
        edges charged, an integer sum before any rate multiplies it."""
        return degrees if self._extra is None else degrees + self._extra

    # -- replay ------------------------------------------------------------

    def replay(self, worker, before=(), after=(), times=None) -> None:
        """Advance ``worker`` through the hook call's charges, item by item.

        Each item waits for its data (``times``, completion-ordered), then
        is charged the stage's ``before`` charges, the charges its hook
        logged in call order, and the stage's ``after`` charges — each
        column a float or an array of one per item.  Every charge is one
        float add in the order charging it on the spot would have made.
        A batch hook's calls are columns of their own; a scalar hook's
        were logged item by item, in item order.
        """
        count = self.items
        items, charges = self._items, self._charges
        before = [*before, *self._columns]
        self._items, self._charges, self._columns = [], [], []
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
