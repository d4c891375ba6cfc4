"""Building FlashGraph images from raw edge arrays.

A :class:`GraphImage` bundles everything one graph needs:

- the serialized on-SSD edge-list files (out-edges, and in-edges for a
  directed graph) plus optional detached attribute files,
- one compact :class:`~repro.graph.index.GraphIndex` per direction,
- the CSR adjacency kept for in-memory mode and for verification.

The paper amortises construction cost by using a single external-memory
structure for every algorithm; likewise one image serves BFS through scan
statistics unchanged.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.format import (
    FORMAT_V1,
    FORMAT_V2,
    FORMATS,
    EDGE_BYTES,
    HEADER_BYTES,
    check_endpoints,
    csr_from_sorted_keys,
    serialize_adjacency,
    serialize_adjacency_v2,
    serialize_attributes,
)
from repro.graph.index import GraphIndex, build_index, build_index_v2
from repro.graph.types import EdgeType


@dataclass
class CSR:
    """A compressed-sparse-row adjacency."""

    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbor IDs of ``vertex`` (zero-copy slice)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)


@dataclass
class GraphImage:
    """One graph in both representations (in-memory and on-SSD)."""

    name: str
    num_vertices: int
    directed: bool
    out_csr: CSR
    in_csr: CSR
    out_bytes: bytes
    in_bytes: bytes
    out_index: GraphIndex
    in_index: GraphIndex
    attr_bytes: Dict[EdgeType, bytes] = field(default_factory=dict)
    attr_offsets: Dict[EdgeType, np.ndarray] = field(default_factory=dict)
    #: Logical edge count: each directed edge once; each undirected edge
    #: once even though it is stored in both endpoints' lists.
    edge_count: int = 0
    #: On-SSD edge-list format ("v1" fixed u32, "v2" delta+varint).
    fmt: str = FORMAT_V1

    @property
    def num_edges(self) -> int:
        """Logical edge count of the input graph."""
        return self.edge_count

    def csr(self, edge_type: EdgeType) -> CSR:
        """The adjacency for one direction."""
        if edge_type is EdgeType.IN:
            return self.in_csr
        if edge_type is EdgeType.OUT:
            return self.out_csr
        raise ValueError("BOTH must be expanded before picking a CSR")

    def index(self, edge_type: EdgeType) -> GraphIndex:
        """The compact index for one direction."""
        if edge_type is EdgeType.IN:
            return self.in_index
        if edge_type is EdgeType.OUT:
            return self.out_index
        raise ValueError("BOTH must be expanded before picking an index")

    def file_bytes(self, edge_type: EdgeType) -> bytes:
        """The serialized edge-list file for one direction."""
        if edge_type is EdgeType.IN:
            return self.in_bytes
        if edge_type is EdgeType.OUT:
            return self.out_bytes
        raise ValueError("BOTH must be expanded before picking a file")

    def file_name(self, edge_type: EdgeType) -> str:
        """The SAFS name of one direction's edge-list file."""
        return f"{self.name}.{edge_type.value}-edges"

    def storage_bytes(self) -> int:
        """Total on-SSD footprint of the image."""
        total = len(self.out_bytes)
        if self.directed:
            total += len(self.in_bytes)
        total += sum(len(b) for b in self.attr_bytes.values())
        return total

    def index_memory_bytes(self) -> int:
        """RAM held by the compact indexes (in+out for directed graphs)."""
        total = self.out_index.memory_bytes()
        if self.directed:
            total += self.in_index.memory_bytes()
        return total

    def uncompressed_bytes(self) -> int:
        """The edge files' sizes had they been laid out as format v1 —
        the denominator of :meth:`compression_ratio`."""
        total = HEADER_BYTES * self.num_vertices + EDGE_BYTES * int(
            self.out_csr.num_edges
        )
        if self.directed:
            total += HEADER_BYTES * self.num_vertices + EDGE_BYTES * int(
                self.in_csr.num_edges
            )
        return total

    def compression_ratio(self) -> float:
        """v1-equivalent bytes over actual edge-file bytes (1.0 for v1)."""
        actual = len(self.out_bytes) + (len(self.in_bytes) if self.directed else 0)
        return self.uncompressed_bytes() / actual if actual else 1.0

    def attach_to_safs(self, safs) -> None:
        """Create this image's files inside a SAFS instance."""
        safs.create_file(self.file_name(EdgeType.OUT), self.out_bytes, fmt=self.fmt)
        if self.directed:
            safs.create_file(self.file_name(EdgeType.IN), self.in_bytes, fmt=self.fmt)
        for edge_type, data in self.attr_bytes.items():
            safs.create_file(f"{self.name}.{edge_type.value}-attrs", data)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"GraphImage(name={self.name!r}, {kind}, "
            f"V={self.num_vertices}, E={self.num_edges})"
        )


def _build_direction(
    indptr: np.ndarray, indices: np.ndarray, fmt: str = FORMAT_V1
) -> Tuple[CSR, bytes, GraphIndex]:
    """One direction's CSR, file and index.  Callers pass
    ``*csr_from_sorted_keys(keys, n)`` so the keys are freed before the
    serializer's temporaries are allocated."""
    if fmt == FORMAT_V2:
        data, offsets = serialize_adjacency_v2(indptr, indices)
        index = build_index_v2(np.diff(indptr), offsets)
    else:
        data, offsets = serialize_adjacency(indptr, indices)
        index = build_index(np.diff(indptr), offsets)
    return CSR(indptr, indices), data, index


def _check_fmt(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}; pick from {FORMATS}")


def build_directed(
    edges: np.ndarray,
    num_vertices: int,
    name: str = "graph",
    weights: Optional[np.ndarray] = None,
    fmt: str = FORMAT_V1,
) -> GraphImage:
    """Build a directed image from an ``(m, 2)`` src→dst edge array.

    Duplicate edges are dropped (FlashGraph's input graphs are simple).
    ``weights``, when given, become detached out-edge attributes.
    ``fmt`` picks the on-SSD edge-list layout (v1 default, v2 compressed).
    Two sorts build it: the sort-reduce of :func:`_dedup` leaves the
    edges in out-list order, and one transpose sort orders the in-lists.
    """
    _check_fmt(fmt)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges, weights = _dedup(edges, weights, num_vertices)
    src, dst = edges[:, 0], edges[:, 1]
    out_csr, out_bytes, out_index = _build_direction(
        *csr_from_sorted_keys(src * num_vertices + dst, num_vertices), fmt
    )
    in_csr, in_bytes, in_index = _build_direction(
        *csr_from_sorted_keys(np.sort(dst * num_vertices + src), num_vertices), fmt
    )
    image = GraphImage(
        name=name,
        num_vertices=num_vertices,
        directed=True,
        out_csr=out_csr,
        in_csr=in_csr,
        out_bytes=out_bytes,
        in_bytes=in_bytes,
        out_index=out_index,
        in_index=in_index,
        edge_count=int(edges.shape[0]),
        fmt=fmt,
    )
    if weights is not None:
        _attach_weights(image, weights)
    return image


def build_undirected(
    edges: np.ndarray,
    num_vertices: int,
    name: str = "graph",
    weights: Optional[np.ndarray] = None,
    fmt: str = FORMAT_V1,
) -> GraphImage:
    """Build an undirected image: each edge is stored in both endpoints'
    lists, self-loops once.  A single edge-list file serves both
    directions (``in_*`` aliases ``out_*``)."""
    _check_fmt(fmt)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # Canonicalise (u <= v) then deduplicate.
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    edges = np.stack([lo, hi], axis=1)
    edges, weights = _dedup(edges, weights, num_vertices)
    lo, hi = edges[:, 0], edges[:, 1]
    mirrored = lo != hi
    keys = np.concatenate(
        [lo * num_vertices + hi, hi[mirrored] * num_vertices + lo[mirrored]]
    )
    # One sort of the symmetrised keys; the keys are distinct, so carrying
    # the weights along with an argsort orders them like the lists.
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys = keys[order]
        weights = np.concatenate([weights, weights[mirrored]])[order]
    csr, data, index = _build_direction(*csr_from_sorted_keys(keys, num_vertices), fmt)
    image = GraphImage(
        name=name,
        num_vertices=num_vertices,
        directed=False,
        out_csr=csr,
        in_csr=csr,
        out_bytes=data,
        in_bytes=data,
        out_index=index,
        in_index=index,
        edge_count=int(edges.shape[0]),
        fmt=fmt,
    )
    if weights is not None:
        _attach_weights(image, weights)
    return image


def _dedup(
    edges: np.ndarray, weights: Optional[np.ndarray], num_vertices: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sort-reduce an int64 ``(m, 2)`` edge array to its distinct edges.

    One sort of the keys ``src * n + dst`` puts equal edges next to each
    other; the first key of each run survives and decodes back to
    ``(key // n, key % n)``, so the edges come back in ``(src, dst)``
    order.  With ``weights``, an argsort stands in for the sort and each
    kept edge takes the weight of its first occurrence.  ``np.sort`` and
    a run mask rather than ``np.unique``: since numpy 2.3, ``np.unique``
    without ``return_*`` takes a hash path, over an order of magnitude
    slower on these keys.
    """
    if edges.size == 0:
        return edges, weights
    check_endpoints(edges, num_vertices)
    keys = edges[:, 0] * num_vertices + edges[:, 1]
    if weights is None:
        keys.sort()
        keys = keys[_run_starts(keys)]
    else:
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(_run_starts(keys))
        first = np.minimum.reduceat(order, starts)
        weights = np.asarray(weights, dtype=np.float32)[first]
        keys = keys[starts]
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, num_vertices, out=(edges[:, 0], edges[:, 1]))
    return edges, weights


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal ``sorted_keys``."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def _attach_weights(image: GraphImage, weights: np.ndarray) -> None:
    """Store ``weights``, already in out-CSR edge order, as out-attributes."""
    data, offsets = serialize_attributes(image.out_csr.indptr, weights)
    image.attr_bytes[EdgeType.OUT] = data
    image.attr_offsets[EdgeType.OUT] = offsets
