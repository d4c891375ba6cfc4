"""Building FlashGraph images from raw edge arrays.

A :class:`GraphImage` bundles everything one graph needs:

- the serialized on-SSD edge-list files (out-edges, and in-edges for a
  directed graph) plus optional detached attribute files,
- one compact :class:`~repro.graph.index.GraphIndex` per direction,
- the CSR adjacency of each direction, whose neighbors are one array
  (:attr:`GraphImage.words`) that both execution modes read.

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
    csr_from_sorted_keys,
    csr_keys,
    decode_lists_v2,
    edge_keys,
    key_dtype,
    list_runs,
    run_starts,
    serialize_adjacency,
    serialize_adjacency_v2,
    serialize_attributes,
)
from repro.graph.index import GraphIndex, build_index, build_index_v2
from repro.graph.page_vertex import DIRECTIONS
from repro.graph.types import EdgeType

#: Edges per :func:`decode_lists_v2` call as an image checks its v2 files
#: (:meth:`GraphImage.edge_words`): it bounds the int64 temporaries to ~3 MiB.
DECODE_CHUNK_EDGES = 1 << 15


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
    #: Every neighbor id, one u32 each: the out-lists, then a directed
    #: image's in-lists.  Both CSRs' ``indices`` are views into it.
    words: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _list_rows: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _list_keys: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.words is None:
            # A hand-built image: lay its CSRs' neighbors out as one array.
            csrs = (self.out_csr, self.in_csr)[: 1 + self.directed]
            words = np.concatenate([csr.indices for csr in csrs])
            self.words = words.astype(np.uint32, copy=False)
            self.out_csr.indices = self.words[: self.out_csr.num_edges]
            self.in_csr.indices = self.words[self.words.size - self.in_csr.num_edges :]

    def list_rows(self) -> np.ndarray:
        """``rows[:, lane * n + v]``: where vertex ``v``'s edge list or
        attribute block lies, for the engine to read a wave with one
        gather in either execution mode.

        Lane ``2 * d + a`` holds the edge lists (``a = 0``) or attribute
        blocks (``a = 1``) of direction ``DIRECTIONS[d]``.  The three rows
        are the size in bytes in its file, the degree (0 for an attribute
        block) and the position: of the list's first neighbor in
        :attr:`words`, ``base + cumsum(degree) - degree``, or of the
        block's first attribute in its file's float32 values.  So
        ``gather_ranges(words, positions, degrees)`` reads a wave's lists.
        Built once per image; like the indexes' exact tables, it is
        simulator speed, not modelled RAM.
        """
        if self._list_rows is None:
            n = self.num_vertices
            rows = np.zeros((3, 4, n), dtype=np.int64)
            sizes, degrees, positions = rows
            for code, direction in enumerate(DIRECTIONS):
                index = self.index(direction)
                degree = index._full_degrees()
                first = degree.cumsum() - degree
                sizes[2 * code] = np.diff(index._exact_offsets())
                degrees[2 * code] = degree
                # A directed image's in-lists follow its out-lists.
                base = self.out_csr.num_edges if code and self.directed else 0
                positions[2 * code] = base + first
                blocks = self.attr_offsets.get(direction)
                if blocks is not None:
                    sizes[2 * code + 1] = np.diff(blocks)
                    positions[2 * code + 1] = first
            self._list_rows = rows.reshape(3, 4 * n)
        return self._list_rows

    def list_keys(self, file_ids, page_size: int) -> Tuple[np.ndarray, int]:
        """``(keys, band)``: the merge keys of every :meth:`list_rows` row
        for a SAFS stack whose lane ``l`` file has id ``file_ids[l]``.

        ``keys[:, row]`` is the banded byte key ``offset + file_ids[lane] *
        band * page_size`` and banded last page that
        :func:`~repro.safs.io_request.merge_request_arrays` takes.
        ``band`` is the lane files' largest page count plus 3 (the merge's
        adjacency gap of 1, plus 2), so sorting by key sorts by ``(file
        id, offset)`` and no merged span crosses a file.  Only these rows
        depend on the stack, so they are cached for the last ``(file_ids,
        page_size)`` asked for.  Every engine on the image reads the one
        cache and copies none of it: with :meth:`list_rows` it is 5 int64
        per vertex and lane, the largest array the read path holds.
        """
        key = (tuple(file_ids), page_size)
        if self._list_keys is None or self._list_keys[0] != key:
            n = self.num_vertices
            sizes = self.list_rows()[0].reshape(4, n)
            # Every lane's lists and blocks lie end to end in vertex order.
            ends = sizes.cumsum(axis=1)
            band = -(-int(sizes.sum(axis=1).max()) // page_size) + 3
            lift = np.asarray(key[0], dtype=np.int64)[:, None] * band
            keys = np.empty((2, 4, n), dtype=np.int64)
            keys[0] = ends - sizes + lift * page_size
            keys[1] = (ends - 1) // page_size + lift
            self._list_keys = key, (keys.reshape(2, 4 * n), band)
        return self._list_keys[1]

    def edge_words(self) -> np.ndarray:
        """:attr:`words`, once a v2 image's files were checked against it.

        The check decodes each v2 edge file once per image, in chunks of
        lists, and compares it with the words, so a corrupt v2 list
        raises ``ValueError`` at the first wave that reads the image.  A
        v1 file is the words plus headers by construction.
        """
        if not self._checked:
            if self.fmt == FORMAT_V2:
                for direction in DIRECTIONS[: 1 + self.directed]:
                    _decode_file_v2(
                        self.file_bytes(direction),
                        self.index(direction),
                        self.csr(direction).indices,
                    )
            self._checked = True
        return self.words

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


def _decode_file_v2(data: bytes, index: GraphIndex, lists: np.ndarray) -> None:
    """Decode every list of one v2 edge file and compare it with ``lists``,
    the direction's neighbors: one :func:`decode_lists_v2` call per
    :func:`~repro.graph.format.list_runs` run of lists that start within
    the same :data:`DECODE_CHUNK_EDGES` edges, the runs the encoder wrote.
    A list that decodes to other ids raises ``ValueError``."""
    offsets, degrees = index._exact_offsets(), index._full_degrees()
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    data = np.frombuffer(data, dtype=np.uint8)
    for a, b in list_runs(indptr, DECODE_CHUNK_EDGES):
        span = lists[indptr[a] : indptr[b]]
        if not np.array_equal(decode_lists_v2(data, offsets[a:b], degrees[a:b]), span):
            raise ValueError(
                f"corrupt v2 edge list: vertices {a}..{b - 1} decode to "
                "other neighbors than the image holds"
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


def _as_edges(edges: np.ndarray) -> np.ndarray:
    """``edges`` as an integer ``(m, 2)`` array.  Integer edges are taken
    as given, at any width: the keys get their own exact width (see
    :func:`~repro.graph.format.key_dtype`).  Anything else is cast to
    int64, and float endpoints must be finite integers: the cast would
    truncate ``0.5`` to the vertex 0."""
    edges = np.asarray(edges)
    if edges.dtype.kind == "f" and not (
        np.isfinite(edges).all() and (np.floor(edges) == edges).all()
    ):
        raise ValueError("edge endpoints must be integers")
    if edges.dtype.kind not in "iu":
        edges = edges.astype(np.int64)
    return edges.reshape(-1, 2)


def _edge_weights(
    weights: Optional[np.ndarray], num_edges: int
) -> Optional[np.ndarray]:
    """``weights`` as float32, one per input edge, or :class:`ValueError`."""
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=np.float32)
    if weights.shape != (num_edges,):
        raise ValueError(
            f"weights must be 1-D with one entry per edge: got shape "
            f"{weights.shape} for {num_edges} edges"
        )
    return weights


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
    keys in out-list order, and one sort of the transposed keys orders
    the in-lists.  Each key array is freed before the serializer runs.
    """
    _check_fmt(fmt)
    edges = _as_edges(edges)
    weights = _edge_weights(weights, edges.shape[0])
    keys, weights = _dedup(edges, weights, num_vertices)
    edge_count = keys.size
    # Each direction's neighbors go straight into its half of one array.
    words = np.empty(2 * edge_count, dtype=np.uint32)
    out_lists = csr_from_sorted_keys(keys, num_vertices, out=words[:edge_count])
    del keys
    out_csr, out_bytes, out_index = _build_direction(*out_lists, fmt)
    # The in-lists' keys dst * n + src, from the out-CSR.
    keys = csr_keys(
        out_csr.indptr,
        out_csr.indices,
        num_vertices,
        transpose=True,
        dtype=key_dtype(num_vertices),
    )
    keys.sort()
    in_lists = csr_from_sorted_keys(keys, num_vertices, out=words[edge_count:])
    del keys
    in_csr, in_bytes, in_index = _build_direction(*in_lists, fmt)
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
        edge_count=edge_count,
        fmt=fmt,
        words=words,
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
    edges = _as_edges(edges)
    weights = _edge_weights(weights, edges.shape[0])
    # Canonical (u <= v) keys, deduplicated.
    keys, weights = _dedup(edges, weights, num_vertices, canonical=True)
    edge_count = keys.size
    # Every non-loop key lo * n + hi gains its mirror hi * n + lo.
    lo = np.empty(keys.size, dtype=np.uint32)
    hi = np.empty(keys.size, dtype=np.uint32)
    np.floor_divide(keys, num_vertices, out=lo, casting="unsafe")
    np.remainder(keys, num_vertices, out=hi, casting="unsafe")
    mirrored = lo != hi
    symmetric = np.empty(edge_count + int(np.count_nonzero(mirrored)), dtype=keys.dtype)
    symmetric[:edge_count] = keys
    del keys
    mirrors = symmetric[edge_count:]
    np.multiply(hi[mirrored], num_vertices, out=mirrors, dtype=mirrors.dtype)
    mirrors += lo[mirrored]
    del lo, hi, mirrors
    # One sort of the symmetrised keys; the keys are distinct, so carrying
    # the weights along with an argsort orders them like the lists.
    if weights is None:
        symmetric.sort()
    else:
        order = np.argsort(symmetric)
        symmetric = symmetric[order]
        weights = np.concatenate([weights, weights[mirrored]])[order]
        del order
    lists = csr_from_sorted_keys(symmetric, num_vertices)
    del symmetric
    csr, data, index = _build_direction(*lists, fmt)
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
        edge_count=edge_count,
        fmt=fmt,
        words=csr.indices,
    )
    if weights is not None:
        _attach_weights(image, weights)
    return image


def _dedup(
    edges: np.ndarray,
    weights: Optional[np.ndarray],
    num_vertices: int,
    canonical: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sort-reduce an integer ``(m, 2)`` edge array to its distinct keys.

    Returns the ascending distinct keys ``src * n + dst`` (``(min, max)``
    with ``canonical``, see :func:`~repro.graph.format.edge_keys`), of
    the narrowest exact :func:`~repro.graph.format.key_dtype`, and,
    with float32 ``weights``, each kept edge's first-occurrence weight.
    One sort of the keys puts equal edges next to each other and the
    first key of each run survives; with ``weights`` an argsort stands
    in for the sort.  ``np.sort`` and a run mask rather than
    ``np.unique``: since numpy 2.3, ``np.unique`` without ``return_*``
    takes a hash path, over an order of magnitude slower on these keys.
    """
    dtype = key_dtype(num_vertices)
    if edges.size == 0:
        return np.empty(0, dtype=dtype), weights
    keys = edge_keys(edges, num_vertices, canonical, dtype)
    if weights is None:
        keys.sort()
        return keys[run_starts(keys)], None
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(run_starts(keys))
    first = np.minimum.reduceat(order, starts)
    return keys[starts], weights[first]


def _attach_weights(image: GraphImage, weights: np.ndarray) -> None:
    """Store ``weights``, already in out-CSR edge order, as out-attributes."""
    data, offsets = serialize_attributes(image.out_csr.indptr, weights)
    image.attr_bytes[EdgeType.OUT] = data
    image.attr_offsets[EdgeType.OUT] = offsets
