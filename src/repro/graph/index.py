"""The compact in-memory graph index (§3.5.1).

Storing the location *and* size of every edge list would cost 12 bytes per
undirected vertex (24 directed).  FlashGraph instead stores:

- one **degree byte** per vertex (degrees ≥ 255 spill to a hash table —
  power-law graphs have few such vertices),
- one exact byte offset for every 32nd edge list (a *checkpoint*),

and computes any edge list's location by walking degrees forward from the
nearest checkpoint — slightly over 1.25 bytes per vertex per direction.
"""

from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.format import EDGE_BYTES, HEADER_BYTES

#: Degrees at or above this value live in the large-vertex hash table.
LARGE_DEGREE = 255
#: An exact location is stored once per this many edge lists.
CHECKPOINT_INTERVAL = 32
#: v2 record sizes at or above this value spill to the hash table (the
#: compact per-vertex size slot is a u16).
LARGE_SIZE = 0xFFFF


class GraphIndex:
    """Maps a vertex ID to its degree and on-SSD edge-list location."""

    def __init__(
        self,
        degrees: np.ndarray,
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
        header_bytes: int = HEADER_BYTES,
        edge_bytes: int = EDGE_BYTES,
    ) -> None:
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.ndim != 1:
            raise ValueError("degrees must be a 1-D array")
        if degrees.size and degrees.min() < 0:
            raise ValueError("degrees cannot be negative")
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self._num_vertices = int(degrees.size)
        self._interval = checkpoint_interval
        self._header_bytes = header_bytes
        self._edge_bytes = edge_bytes

        # The degree-byte array with the hash-table spill for hubs.
        self._degree_bytes = np.minimum(degrees, LARGE_DEGREE).astype(np.uint8)
        large = np.nonzero(degrees >= LARGE_DEGREE)[0]
        self._large_degrees: Dict[int, int] = {
            int(v): int(degrees[v]) for v in large
        }

        # Checkpoints: exact offsets of vertices 0, interval, 2*interval, ...
        sizes = header_bytes + degrees * edge_bytes
        offsets = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self._file_size = int(offsets[-1])
        self._checkpoints = offsets[:-1:checkpoint_interval].copy()
        self._total_edges = int(degrees.sum())

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Total stored edges (sum of degrees)."""
        return self._total_edges

    @property
    def file_size(self) -> int:
        """Size in bytes of the on-SSD edge-list file this index describes."""
        return self._file_size

    def degree(self, vertex: int) -> int:
        """The degree of ``vertex``."""
        self._check(vertex)
        small = int(self._degree_bytes[vertex])
        if small < LARGE_DEGREE:
            return small
        return self._large_degrees[vertex]

    def edge_list_size(self, vertex: int) -> int:
        """On-SSD bytes of ``vertex``'s edge list."""
        return self._header_bytes + self.degree(vertex) * self._edge_bytes

    def locate(self, vertex: int) -> Tuple[int, int]:
        """``(offset, size)`` of ``vertex``'s edge list, computed at runtime.

        Walks degrees forward from the nearest checkpoint — the
        computation/memory trade the paper tunes with the interval of 32.
        """
        self._check(vertex)
        checkpoint = vertex // self._interval
        offset = int(self._checkpoints[checkpoint])
        for v in range(checkpoint * self._interval, vertex):
            offset += self._header_bytes + self.degree(v) * self._edge_bytes
        return offset, self.edge_list_size(vertex)

    def locate_many(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised ``locate`` for a batch of vertices.

        Semantically identical to calling :meth:`locate` per vertex (the
        tests assert this); implemented against a lazily materialised exact
        offset table purely as a CPython-speed shortcut.  The *modelled*
        memory cost in :meth:`memory_bytes` remains the compact index —
        the shortcut table is simulator overhead, not simulated RAM.  The
        same exact tables feed :meth:`GraphImage.list_rows
        <repro.graph.builder.GraphImage.list_rows>`, which the engine's
        read path gathers a whole wave's locations from.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self._num_vertices):
            raise IndexError("vertex id out of range in locate_many")
        exact = self._exact_offsets()
        offsets = exact[vertices]
        sizes = (
            self._header_bytes
            + self.degrees_of(vertices) * self._edge_bytes
        )
        return offsets, sizes

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorised degree lookup.

        A whole wave's degrees resolve as one gather against a lazily
        materialised full-width degree table (hash-table spill folded in).
        Like the ``locate_many`` shortcut table, this is simulator speed
        only — the *modelled* RAM stays the compact 1.25B/vertex index.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        return self._full_degrees()[vertices]

    def _full_degrees(self) -> np.ndarray:
        cached = getattr(self, "_full_degrees_cache", None)
        if cached is None:
            cached = self.degrees_array()
            self._full_degrees_cache = cached
        return cached

    def _exact_offsets(self) -> np.ndarray:
        cached = getattr(self, "_exact_offsets_cache", None)
        if cached is None:
            sizes = self._header_bytes + self._full_degrees() * self._edge_bytes
            cached = np.zeros(self._num_vertices + 1, dtype=np.int64)
            np.cumsum(sizes, out=cached[1:])
            self._exact_offsets_cache = cached
        return cached

    def memory_bytes(self) -> int:
        """Estimated RAM held by this index.

        One byte per vertex, 8 bytes per checkpoint, and roughly 32 bytes
        per large-vertex hash entry — with the default interval this is the
        paper's "slightly larger than 1.25 bytes" per vertex.
        """
        return (
            self._num_vertices
            + 8 * len(self._checkpoints)
            + 32 * len(self._large_degrees)
        )

    def num_large_vertices(self) -> int:
        """Vertices whose degree lives in the hash table."""
        return len(self._large_degrees)

    def degrees_array(self) -> np.ndarray:
        """All degrees as an int64 array (materialised; test/debug helper)."""
        out = self._degree_bytes.astype(np.int64)
        for vertex, degree in self._large_degrees.items():
            out[vertex] = degree
        return out

    def _check(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise IndexError(
                f"vertex {vertex} out of range [0, {self._num_vertices})"
            )


class GraphIndexV2(GraphIndex):
    """The index for compressed (format v2) edge files.

    v2 record sizes depend on the encoded bytes, not just the degree, so
    the index carries a compact per-vertex **size** table alongside the
    degree bytes: a u16 per vertex (sizes ≥ 64 KiB spill to the same kind
    of hash table the degree bytes use) plus the exact-offset checkpoints,
    now accumulated over the true compressed sizes.  Locations remain
    *computed* — walk sizes forward from the nearest checkpoint — and are
    exact for the compressed layout.
    """

    def __init__(
        self,
        degrees: np.ndarray,
        sizes: np.ndarray,
        checkpoint_interval: int = CHECKPOINT_INTERVAL,
    ) -> None:
        super().__init__(degrees, checkpoint_interval=checkpoint_interval)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape != (self._num_vertices,):
            raise ValueError("one size per vertex is required")
        if sizes.size and sizes.min() < HEADER_BYTES:
            raise ValueError("v2 record sizes cannot undercut the header")
        self._size_words = np.minimum(sizes, LARGE_SIZE).astype(np.uint16)
        large = np.nonzero(sizes >= LARGE_SIZE)[0]
        self._large_sizes: Dict[int, int] = {
            int(v): int(sizes[v]) for v in large
        }
        offsets = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self._file_size = int(offsets[-1])
        self._checkpoints = offsets[:-1:checkpoint_interval].copy()
        self._exact_offsets_cache = offsets
        self._exact_sizes = sizes

    def edge_list_size(self, vertex: int) -> int:
        """On-SSD bytes of ``vertex``'s compressed edge list."""
        self._check(vertex)
        small = int(self._size_words[vertex])
        if small < LARGE_SIZE:
            return small
        return self._large_sizes[vertex]

    def locate(self, vertex: int) -> Tuple[int, int]:
        """``(offset, size)`` in the compressed file, walked from the
        nearest checkpoint over the per-vertex size table."""
        self._check(vertex)
        checkpoint = vertex // self._interval
        offset = int(self._checkpoints[checkpoint])
        for v in range(checkpoint * self._interval, vertex):
            offset += self.edge_list_size(v)
        return offset, self.edge_list_size(vertex)

    def locate_many(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`locate` against the exact compressed offsets."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self._num_vertices
        ):
            raise IndexError("vertex id out of range in locate_many")
        return self._exact_offsets_cache[vertices], self._exact_sizes[vertices]

    def memory_bytes(self) -> int:
        """The compact v1 index plus two size bytes per vertex and the
        large-size hash entries."""
        return (
            super().memory_bytes()
            + 2 * self._num_vertices
            + 32 * len(self._large_sizes)
        )


def build_index(degrees: np.ndarray, offsets: Optional[np.ndarray] = None) -> GraphIndex:
    """Build a :class:`GraphIndex` and, when given the serializer's exact
    ``offsets``, verify the computed layout matches them."""
    index = GraphIndex(degrees)
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets[-1] != index.file_size:
            raise ValueError(
                "index layout disagrees with the serialized file size: "
                f"{index.file_size} vs {offsets[-1]}"
            )
    return index


def build_index_v2(
    degrees: np.ndarray, offsets: np.ndarray
) -> GraphIndexV2:
    """Build a :class:`GraphIndexV2` from the v2 serializer's exact
    ``offsets`` (``n + 1`` entries; sizes are their differences)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    index = GraphIndexV2(degrees, np.diff(offsets))
    if offsets[-1] != index.file_size:
        raise ValueError(
            "v2 index layout disagrees with the serialized file size: "
            f"{index.file_size} vs {offsets[-1]}"
        )
    return index
