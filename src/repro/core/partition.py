"""2D graph partitioning (§3.8).

Horizontal: vertex ``v`` belongs to partition ``(v >> r) % n``.  The right
shift keeps *ranges* of consecutive IDs together, so the edge lists of one
partition's vertices sit adjacently on SSDs and the per-thread scheduler
can issue large merged reads.  The modulo spreads ranges round-robin so no
thread owns only the head of the ID space.

Vertical: a vertex that requests many edge lists can be split into *vertex
parts*, each requesting one ID range, schedulable on any thread — the load
balancer moves parts of a hub vertex across the machine.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Knuth's multiplicative constant, used by the hash partitioner.
_HASH_MULTIPLIER = 2654435761


class RangePartitioner:
    """The horizontal range-partitioning function."""

    def __init__(self, num_partitions: int, range_shift: int) -> None:
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        if range_shift < 0:
            raise ValueError("range_shift cannot be negative")
        self.num_partitions = num_partitions
        self.range_shift = range_shift

    def partition_of(self, vertex: int) -> int:
        """``partition_id = (vid >> r) % n``."""
        if vertex < 0:
            raise ValueError("vertex ids are non-negative")
        return (vertex >> self.range_shift) % self.num_partitions

    def partition_many(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`partition_of`."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return (vertices >> self.range_shift) % self.num_partitions

    def group(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One stable sort by owner: returns ``(order, bounds)`` such that
        ``order[bounds[p]:bounds[p + 1]]`` indexes partition ``p``'s
        members of ``vertices`` in their input order."""
        parts = self.partition_many(vertices)
        order = np.argsort(parts, kind="stable")
        bounds = np.searchsorted(parts[order], np.arange(self.num_partitions + 1))
        return order, bounds

    def split(self, vertices: np.ndarray) -> List[np.ndarray]:
        """Group ``vertices`` by partition; index ``p`` holds partition
        ``p``'s members in their input order."""
        vertices = np.asarray(vertices, dtype=np.int64)
        order, bounds = self.group(vertices)
        return np.split(vertices[order], bounds[1:-1])

    @property
    def range_size(self) -> int:
        """Consecutive vertex IDs per range (``2**r``)."""
        return 1 << self.range_shift


class HashPartitioner(RangePartitioner):
    """The counterfactual to §3.8's range partitioning.

    Hashing scatters consecutive IDs across threads, destroying the
    SSD-adjacency of each thread's edge lists; the per-thread scheduler
    can no longer issue large merged reads.  Exists for the partitioning
    ablation — production FlashGraph uses range partitioning.
    """

    def __init__(self, num_partitions: int, range_shift: int = 0) -> None:
        super().__init__(num_partitions, range_shift)

    def partition_of(self, vertex: int) -> int:
        if vertex < 0:
            raise ValueError("vertex ids are non-negative")
        return ((vertex * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.num_partitions

    def partition_many(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        return ((vertices * _HASH_MULTIPLIER) & 0xFFFFFFFF) % self.num_partitions


@dataclass(frozen=True)
class VertexPart:
    """One vertical slice of a large vertex's multi-edge-list request.

    ``targets`` is the slice of edge lists this part must fetch; parts of
    the same vertex share the (replicated) vertex state and communicate by
    message passing only, so the engine may run them on any thread.
    """

    vertex: int
    part_index: int
    num_parts: int
    targets: np.ndarray


def split_into_parts(
    vertex: int, targets: np.ndarray, part_size: int
) -> List[VertexPart]:
    """Split a request for ``targets`` edge lists into ID-sorted parts.

    Sorting by target ID before slicing means each part requests one
    contiguous-on-SSD range — the property that raises cache hit rates
    when multiple threads process parts concurrently (§3.8).
    """
    if part_size <= 0:
        raise ValueError("part_size must be positive")
    targets = np.sort(np.asarray(targets, dtype=np.int64))
    num_parts = max(1, (targets.size + part_size - 1) // part_size)
    return [
        VertexPart(
            vertex=vertex,
            part_index=i,
            num_parts=num_parts,
            targets=targets[i * part_size : (i + 1) * part_size],
        )
        for i in range(num_parts)
    ]
