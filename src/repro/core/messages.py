"""Buffered message passing between vertices (§3.4.1).

Vertices never write each other's state — they send messages, which the
worker threads buffer and deliver in batches, avoiding both races on
vertex state and per-message synchronisation.  Multicast sends one copy of
a message per *thread* rather than per recipient; vertex activation is a
data-free multicast.  The buffer keeps a multicast as it was sent — a
*run*, one ``(value, count)`` beside its ``count`` destinations — so a
barrier handles one value per edge list, not one per edge.

Most algorithms' messages are commutative aggregations, so the buffer
supports *combiners* (sum/min): logical messages are counted and
charged individually, but deliveries to the same destination are combined
before ``run_on_message`` fires — the same trick Pregel-style systems use
to keep buffers small.

Canonical accumulation.  Buffered sends arrive in completion order, which
device faults (and their retries) legitimately perturb, so what a barrier
delivers must be a function of the message *multiset* only — otherwise
float sums would differ in the last bits between a fault-free run and a
recovered one.  The contract, per combiner:

- ``sum``: each destination's values are added one at a time in
  ascending value order, starting from ``+0.0``;
- ``min``: exact and order-free (up to the sign of a zero:
  ``0.0`` and ``-0.0`` compare equal);
- no combiner: deliveries are grouped by destination, ascending, and
  each destination's values are ascending.
"""

from typing import List, Optional, Tuple

import numpy as np

#: Supported combiners: how concurrent messages to one vertex collapse.
COMBINERS = ("sum", "min")


def check_vertex_ids(ids: np.ndarray, num_vertices: Optional[int], what: str) -> None:
    """Reject a non-empty ``ids`` holding something that is not a vertex id.

    A negative id would otherwise wrap around to the last vertices'
    state in the receiver (``state[-1] += value``), silently.  Only
    negative ids are rejected when ``num_vertices`` is unknown.
    """
    low = int(ids.min())
    high = int(ids.max())
    if low < 0 or (num_vertices is not None and high >= num_vertices):
        raise ValueError(
            f"{what} {low if low < 0 else high} is not a "
            f"vertex id (num_vertices={num_vertices})"
        )


class MessageBuffer:
    """Accumulates one iteration's messages until the barrier delivery."""

    def __init__(
        self, combiner: Optional[str] = None, num_vertices: Optional[int] = None
    ) -> None:
        if combiner is not None and combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {combiner!r}; pick from {COMBINERS}")
        self.combiner = combiner
        #: Size of the vertex id space; destinations are checked against
        #: it at delivery (only negative ids are rejected when unknown).
        self.num_vertices = num_vertices
        self._dest_chunks: List[np.ndarray] = []
        #: One value and one count per run; counts sum to the dests.
        self._value_chunks: List[np.ndarray] = []
        self._count_chunks: List[np.ndarray] = []
        self._pending = 0
        self._peak_pending = 0

    def send(self, dests: np.ndarray, values, counts=None) -> int:
        """Buffer one chunk of messages; returns how many.

        The buffer stores *runs* — ``(value, count)``: one value multicast
        to the next ``count`` destinations.  A scalar ``values`` is one
        run over all of ``dests``; with ``counts``, ``values`` holds one
        value per run (a zero-count run delivers nothing); an array
        aligned with ``dests`` is runs of length 1.
        """
        dests = np.atleast_1d(np.asarray(dests, dtype=np.int64))
        values = np.asarray(values, dtype=np.float64)
        if counts is None:
            if values.ndim == 0:
                values = values.reshape(1)
                counts = np.asarray(dests.shape)
            elif values.shape == dests.shape:
                counts = np.ones(dests.size, dtype=np.int64)
            else:
                raise ValueError("values must be scalar or match dests in shape")
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if values.shape != counts.shape or counts.ndim != 1:
                raise ValueError("values and counts must hold one entry per run")
            if counts.sum() != dests.size:
                raise ValueError(
                    f"counts sum to {int(counts.sum())}, not the {dests.size} destinations"
                )
        if dests.size == 0:
            return 0
        self._dest_chunks.append(dests)
        self._value_chunks.append(values)
        self._count_chunks.append(counts)
        self._pending += dests.size
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending
        return int(dests.size)

    @property
    def pending(self) -> int:
        """Messages buffered and not yet delivered."""
        return self._pending

    def flush_due(self, threshold: int) -> bool:
        """Whether eager (in-iteration) delivery should fire.

        The async execution mode drains the buffer as soon as occupancy
        reaches ``threshold`` instead of waiting for the round barrier —
        the same per-thread flush rule real FlashGraph applies at
        ``message_flush_threshold`` messages (§3.4.1).  Delivery itself
        still goes through :meth:`deliver`, whose canonical accumulation
        order makes each drain a function of the multiset it holds.
        """
        return self._pending >= threshold > 0

    @property
    def peak_pending(self) -> int:
        """The largest buffer occupancy seen (memory accounting)."""
        return self._peak_pending

    def deliver(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain the buffer, combining per destination.

        Returns ``(dests, values, counts)`` with ``dests`` unique and
        sorted and ``counts[i]`` the number of logical messages combined
        into delivery ``i`` (the receiver is charged per logical message).
        With no combiner, messages to the same destination stay separate
        (``dests`` may repeat, grouped and sorted, each destination's
        values ascending; counts are all 1).

        The combined value is a function of the message *multiset* only
        (see the module docstring).  Raises ``ValueError`` for a
        destination outside ``[0, num_vertices)``.
        """
        if not self._dest_chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0), empty
        dests = np.concatenate(self._dest_chunks)
        values = np.concatenate(self._value_chunks)
        counts = np.concatenate(self._count_chunks)
        self.clear()
        check_vertex_ids(dests, self.num_vertices, "message destination")
        if counts.min() < 0:
            raise ValueError(f"a run of {int(counts.min())} messages was sent")
        if self.combiner != "sum":
            values = np.repeat(values, counts)
        if self.combiner is None:
            order = np.lexsort((values, dests))
            return dests[order], values[order], np.ones(dests.size, dtype=np.int64)
        # One dense slot per vertex id up to the largest destination: the
        # O(max id) term is cheaper than grouping by a sort even on
        # near-empty barriers.
        dense_counts = np.bincount(dests)
        unique = np.flatnonzero(dense_counts)
        if self.combiner == "sum":
            # ``bincount`` adds in array order, so visiting the runs in
            # ascending value order gives every destination its
            # ascending-value sum (equal values are interchangeable): one
            # sort of the run values, then one gather that lays each run's
            # destinations out where the sorted order puts the run.
            order = np.argsort(values)
            sorted_counts = counts[order]
            run_ends = np.cumsum(counts)
            sorted_ends = np.cumsum(sorted_counts)
            where = np.repeat(run_ends[order] - sorted_ends, sorted_counts)
            where += np.arange(dests.size)
            dense = np.bincount(
                dests[where],
                weights=np.repeat(values[order], sorted_counts),
                minlength=dense_counts.size,
            )
        else:  # min
            dense = np.full(dense_counts.size, np.inf)
            np.minimum.at(dense, dests, values)
        return unique, dense[unique], dense_counts[unique]

    def restore_peak(self, peak: int) -> None:
        """Reinstate the peak-occupancy gauge from a checkpoint.

        At an iteration barrier the buffer itself is empty (delivery
        happened inside the iteration), so the monotone peak is the only
        state a resume needs to carry over for memory accounting.
        """
        if self._pending:
            raise RuntimeError("cannot restore the peak of a non-empty buffer")
        self._peak_pending = int(peak)

    def clear(self) -> None:
        """Drop everything without delivering."""
        self._dest_chunks.clear()
        self._value_chunks.clear()
        self._count_chunks.clear()
        self._pending = 0
