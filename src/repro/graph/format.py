"""The external-memory edge-list format (§3.5.2).

One file holds the edge lists of every vertex, ordered by vertex ID.  Each
edge list is::

    +------------+------------+---------------------------+
    | vertex id  |   degree   |  neighbor ids (u32 each)  |
    |   (u32)    |   (u32)    |                           |
    +------------+------------+---------------------------+

Edge *attributes* are stored in a separate file with the same per-vertex
ordering (one fixed-width value per edge), so algorithms that do not need
attributes never read them — the column-store trick the paper borrows from
database systems.

Everything is little-endian and 4-byte aligned, so a
:class:`~repro.graph.page_vertex.PageVertex` can be parsed zero-copy from
cached SAFS pages with ``numpy.frombuffer``.

Format **v2** keeps the 8-byte header but stores the neighbors of each
vertex as sorted deltas under a stream-split group-varint codec::

    +-----------+--------+-----------------+------------------------+
    | vertex id | degree | tag bytes       | payload bytes          |
    |   (u32)   | (u32)  | ceil(degree/4)  | 1-4 per value, packed  |
    +-----------+--------+-----------------+------------------------+

The values are ``neighbors[0], neighbors[1] - neighbors[0], ...`` (the
lists are sorted, so every delta is non-negative).  Each tag byte packs
four 2-bit length codes (``code = bytes - 1``), value ``k``'s code living
at bits ``2*(k % 4)`` of tag byte ``k // 4``.  Splitting *all* tags ahead
of *all* payload bytes — rather than interleaving tag/group as classic
group varint does — makes every byte position computable from the degree
and a running sum, so both encode and decode vectorise with numpy and
never loop per edge.  See ``docs/graph_format.md`` for worked layouts.
"""

from typing import Tuple

import numpy as np

#: Bytes per edge-list header (vertex id + degree, u32 each).
HEADER_BYTES = 8
#: Bytes per stored edge (a u32 neighbor id).
EDGE_BYTES = 4
#: Bytes per stored edge attribute (a float32 weight by default).
ATTR_BYTES = 4

#: The uncompressed format of §3.5.2 (fixed u32 neighbors).  The default.
FORMAT_V1 = "v1"
#: Delta + stream-split group-varint neighbors (opt-in).
FORMAT_V2 = "v2"
#: All recognised edge-list file formats.
FORMATS = (FORMAT_V1, FORMAT_V2)

#: Neighbors packed per tag byte in v2 (2-bit length codes).
VALUES_PER_TAG = 4


def _ramp(lengths: np.ndarray, total: int) -> np.ndarray:
    """``[0..lengths[0]), [0..lengths[1]), ...`` as one flat array."""
    stops = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) - np.repeat(stops - lengths, lengths)


def gather_ranges(source: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``source[starts[i] : starts[i] + lengths[i]]`` for all
    ``i`` with a single fancy-index gather (no per-range slicing)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    ramp = _ramp(lengths, total)
    return source[np.repeat(starts, lengths) + ramp]


def scatter_positions(out_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat output indices placing range ``i`` at ``out_starts[i]`` — the
    scatter-side twin of :func:`gather_ranges`, used when ranges from
    several source arrays interleave into one concatenation."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(out_starts, lengths) + _ramp(lengths, total)


def edge_list_size(degree: int) -> int:
    """On-SSD bytes of one edge list with ``degree`` edges."""
    if degree < 0:
        raise ValueError("degree cannot be negative")
    return HEADER_BYTES + degree * EDGE_BYTES


def serialize_adjacency(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """Serialise a CSR adjacency into the on-SSD edge-list file.

    ``indptr`` has ``n + 1`` entries; vertex ``v``'s neighbors are
    ``indices[indptr[v]:indptr[v + 1]]`` and must already be sorted by the
    caller if sortedness matters to the algorithm.

    Returns ``(file_bytes, offsets)`` where ``offsets[v]`` is the byte
    offset of vertex ``v``'s edge list and ``offsets[n]`` the file size.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.uint32)
    if indptr.ndim != 1 or indptr.size < 1:
        raise ValueError("indptr must be a 1-D array with at least one entry")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr must start at 0 and end at len(indices)")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    num_vertices = indptr.size - 1
    degrees = np.diff(indptr)
    sizes = HEADER_BYTES + degrees * EDGE_BYTES
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])

    # Build the whole file as one u32 array: headers interleaved with edges.
    words = np.empty(offsets[-1] // 4, dtype="<u4")
    word_offsets = offsets[:-1] // 4
    words[word_offsets] = np.arange(num_vertices, dtype=np.uint32)
    words[word_offsets + 1] = degrees.astype(np.uint32)
    # Scatter the neighbor ids: target word index for each edge is its
    # vertex's data start plus its rank within the vertex.
    if indices.size:
        edge_vertex = np.repeat(np.arange(num_vertices), degrees)
        rank = np.arange(indices.size, dtype=np.int64) - indptr[edge_vertex]
        words[word_offsets[edge_vertex] + 2 + rank] = indices
    return words.tobytes(), offsets


def serialize_attributes(
    indptr: np.ndarray, attrs: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """Serialise per-edge attributes into the detached attribute file.

    ``attrs`` holds one float32 per edge in the same order as the CSR
    ``indices``.  Returns ``(file_bytes, offsets)`` with ``offsets[v]`` the
    byte offset of vertex ``v``'s attribute block.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    attrs = np.asarray(attrs, dtype="<f4")
    if attrs.size != indptr[-1]:
        raise ValueError("one attribute per edge is required")
    degrees = np.diff(indptr)
    offsets = np.zeros(indptr.size, dtype=np.int64)
    np.cumsum(degrees * ATTR_BYTES, out=offsets[1:])
    return attrs.tobytes(), offsets


def parse_edge_list(data: memoryview, offset: int = 0) -> Tuple[int, np.ndarray]:
    """Parse one edge list at ``offset`` of a file view, zero-copy.

    Returns ``(vertex_id, neighbors)``.  Raises :class:`ValueError` on a
    truncated buffer — a header promising more edges than the view holds.
    """
    if offset < 0 or offset + HEADER_BYTES > len(data):
        raise ValueError("buffer too small for an edge-list header")
    header = np.frombuffer(data, dtype="<u4", count=2, offset=offset)
    vertex_id = int(header[0])
    degree = int(header[1])
    end = offset + HEADER_BYTES + degree * EDGE_BYTES
    if end > len(data):
        raise ValueError(
            f"edge list of vertex {vertex_id} truncated: needs {end - offset} "
            f"bytes at offset {offset}, buffer has {len(data) - offset}"
        )
    neighbors = np.frombuffer(
        data, dtype="<u4", count=degree, offset=offset + HEADER_BYTES
    )
    return vertex_id, neighbors


def check_endpoints(edges: np.ndarray, num_vertices: int) -> None:
    """Reject a non-empty edge array with an endpoint outside ``[0, n)``.

    Run it before packing edges into ``src * n + dst`` keys: a key does
    not remember an out-of-range endpoint (``(1, -1)`` packs to the key
    of ``(0, n - 1)``).
    """
    if edges.min() < 0 or edges.max() >= num_vertices:
        raise ValueError("edge endpoints must lie in [0, num_vertices)")


def csr_from_sorted_keys(
    keys: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of ascending edge keys ``src * n + dst``.

    Vertex ``v``'s list starts at the first key ``>= v * n``, and each
    key's neighbor is ``key % n`` — lists come out sorted by neighbor.
    """
    list_starts = np.arange(num_vertices + 1, dtype=np.int64) * num_vertices
    indptr = np.searchsorted(keys, list_starts).astype(np.int64, copy=False)
    return indptr, (keys % num_vertices).astype(np.uint32)


def adjacency_from_edges(
    edges: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Build CSR ``(indptr, indices)`` from an ``(m, 2)`` edge array.

    One sort of the keys ``src * n + dst`` orders the edges by source,
    then neighbor.  Parallel edges are kept (the generators may emit them
    deliberately); callers wanting simple graphs deduplicate first.
    """
    edges = np.asarray(edges)
    if edges.size == 0:
        return np.zeros(num_vertices + 1, dtype=np.int64), np.zeros(0, dtype=np.uint32)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array")
    check_endpoints(edges, num_vertices)
    edges = edges.astype(np.int64, copy=False)
    keys = np.sort(edges[:, 0] * num_vertices + edges[:, 1])
    return csr_from_sorted_keys(keys, num_vertices)


# ---------------------------------------------------------------------------
# Format v2: delta + stream-split group-varint neighbors.
# ---------------------------------------------------------------------------


def _delta_values(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-vertex delta encoding of sorted neighbor lists, as int64.

    The first neighbor of each vertex is stored raw; every later one as
    the difference from its predecessor.  Raises :class:`ValueError` when
    any list is unsorted (a negative delta), since v2 cannot represent it.
    """
    values = indices.astype(np.int64)
    if values.size:
        deltas = np.empty_like(values)
        deltas[0] = values[0]
        deltas[1:] = values[1:] - values[:-1]
        # List-leading positions keep the raw neighbor id.
        starts = indptr[:-1][np.diff(indptr) > 0]
        deltas[starts] = values[starts]
        if deltas.min() < 0:
            raise ValueError(
                "format v2 requires per-vertex sorted neighbor lists"
            )
        values = deltas
    return values


def _value_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length (1-4) of each value under group varint."""
    return (
        1
        + (values > 0xFF).astype(np.int64)
        + (values > 0xFFFF).astype(np.int64)
        + (values > 0xFFFFFF).astype(np.int64)
    )


def v2_edge_list_sizes(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-vertex on-SSD byte sizes under format v2, without encoding.

    ``sizes[v] = 8 + ceil(degree/4) + sum(encoded value bytes)`` — the
    cheap sizing pass `repro graph stats` uses to report compression
    ratios for images that were built as v1.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    degrees = np.diff(indptr)
    tag_counts = (degrees + VALUES_PER_TAG - 1) // VALUES_PER_TAG
    val_len = _value_byte_lengths(_delta_values(indptr, np.asarray(indices)))
    payload_cum = np.concatenate(([0], np.cumsum(val_len)))
    return HEADER_BYTES + tag_counts + np.diff(payload_cum[indptr])


def serialize_adjacency_v2(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """Serialise a CSR adjacency into the compressed v2 edge-list file.

    Neighbor lists must be sorted per vertex (duplicates are fine — they
    encode as delta 0).  Returns ``(file_bytes, offsets)`` with
    ``offsets[v]`` the byte offset of vertex ``v``'s record and
    ``offsets[n]`` the file size.  Encode is pure numpy: byte planes are
    scattered with fancy indexing, tag bytes assembled with one bincount.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.uint32)
    if indptr.ndim != 1 or indptr.size < 1:
        raise ValueError("indptr must be a 1-D array with at least one entry")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr must start at 0 and end at len(indices)")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    num_vertices = indptr.size - 1
    degrees = np.diff(indptr)
    tag_counts = (degrees + VALUES_PER_TAG - 1) // VALUES_PER_TAG

    values = _delta_values(indptr, indices)
    val_len = _value_byte_lengths(values)
    payload_cum = np.concatenate(([0], np.cumsum(val_len)))
    payload_counts = np.diff(payload_cum[indptr])

    sizes = HEADER_BYTES + tag_counts + payload_counts
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)

    # Headers: 8 little-endian byte planes scattered at each record start.
    vids = np.arange(num_vertices, dtype=np.int64)
    for k in range(4):
        out[offsets[:-1] + k] = (vids >> (8 * k)) & 0xFF
        out[offsets[:-1] + 4 + k] = (degrees >> (8 * k)) & 0xFF

    if values.size:
        # Tag bytes: each value contributes its 2-bit code at bits
        # 2*(rank % 4) of tag byte rank // 4 of its vertex.  All values of
        # one tag byte sum disjoint bit ranges, so one bincount builds the
        # whole tag stream exactly.
        rank = _ramp(degrees, values.size)
        vertex_of = np.repeat(vids, degrees)
        tag_cum = np.concatenate(([0], np.cumsum(tag_counts)))
        tag_idx = tag_cum[vertex_of] + rank // VALUES_PER_TAG
        codes = val_len - 1
        tags = np.bincount(
            tag_idx,
            weights=(codes << (2 * (rank % VALUES_PER_TAG))).astype(np.float64),
            minlength=int(tag_cum[-1]),
        ).astype(np.uint8)
        out[scatter_positions(offsets[:-1] + HEADER_BYTES, tag_counts)] = tags

        # Payload: values packed little-endian at 1-4 bytes each.  The
        # concatenated payload stream is in file order, so one scatter per
        # byte plane places every value.
        payload = np.zeros(int(payload_cum[-1]), dtype=np.uint8)
        for k in range(4):
            mask = val_len > k
            payload[payload_cum[:-1][mask] + k] = (values[mask] >> (8 * k)) & 0xFF
        out[
            scatter_positions(
                offsets[:-1] + HEADER_BYTES + tag_counts, payload_counts
            )
        ] = payload
    return out.tobytes(), offsets


def decode_lists_v2(
    file_bytes: np.ndarray, offsets: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """Decode a batch of v2 edge lists straight out of the file's bytes.

    ``file_bytes`` is the whole edge file as a ``uint8`` array;
    ``offsets[i]``/``degrees[i]`` locate list ``i``.  Returns all neighbor
    ids concatenated in list order as ``uint32`` — the batched decode the
    engine's vectorized SEM path runs once per delivered wave.  No Python
    loop touches an edge.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    total = int(degrees.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint32)
    rank = _ramp(degrees, total)
    tag_counts = (degrees + VALUES_PER_TAG - 1) // VALUES_PER_TAG
    bodies = offsets + HEADER_BYTES

    tag_bytes = file_bytes[
        np.repeat(bodies, degrees) + rank // VALUES_PER_TAG
    ].astype(np.int64)
    val_len = ((tag_bytes >> (2 * (rank % VALUES_PER_TAG))) & 3) + 1

    # Payload position of each value: the list's payload start + the
    # within-list running sum of earlier value lengths.
    cum = np.cumsum(val_len)
    excl = cum - val_len
    list_starts = np.concatenate(([0], np.cumsum(degrees)))[:-1]
    safe_starts = np.minimum(list_starts, total - 1)
    payload_pos = np.repeat(bodies + tag_counts - excl[safe_starts], degrees) + excl

    # Every value has a low byte; the wider planes only as far as the
    # widest value of this batch reaches.
    values = file_bytes[payload_pos].astype(np.int64)
    for k in range(1, int(val_len.max())):
        mask = val_len > k
        values[mask] |= file_bytes[payload_pos[mask] + k].astype(np.int64) << (8 * k)

    # Undo the delta encoding with one global prefix sum, re-based per list.
    csum = np.cumsum(values)
    base = np.repeat(csum[safe_starts] - values[safe_starts], degrees)
    neighbors = csum - base
    if neighbors.size and neighbors.max() > 0xFFFFFFFF:
        raise ValueError("corrupt v2 edge list: neighbor id overflows u32")
    return neighbors.astype(np.uint32)


def parse_edge_list_v2(data: memoryview, offset: int = 0) -> Tuple[int, np.ndarray]:
    """Parse one v2 edge list at ``offset`` of a file view.

    The v2 twin of :func:`parse_edge_list`: returns ``(vertex_id,
    neighbors)`` and raises :class:`ValueError` on truncation.  Unlike v1
    the neighbors are decoded (delta + varint), not a zero-copy view.
    """
    if offset < 0 or offset + HEADER_BYTES > len(data):
        raise ValueError("buffer too small for an edge-list header")
    buf = np.frombuffer(data, dtype=np.uint8)
    header = np.frombuffer(data, dtype="<u4", count=2, offset=offset)
    vertex_id = int(header[0])
    degree = int(header[1])
    tag_count = (degree + VALUES_PER_TAG - 1) // VALUES_PER_TAG
    if offset + HEADER_BYTES + tag_count > len(data):
        raise ValueError(
            f"edge list of vertex {vertex_id} truncated: tag bytes run past "
            f"the buffer at offset {offset}"
        )
    if degree == 0:
        return vertex_id, np.empty(0, dtype=np.uint32)
    rank = np.arange(degree, dtype=np.int64)
    tags = buf[
        offset + HEADER_BYTES + rank // VALUES_PER_TAG
    ].astype(np.int64)
    val_len = ((tags >> (2 * (rank % VALUES_PER_TAG))) & 3) + 1
    payload_len = int(val_len.sum())
    end = offset + HEADER_BYTES + tag_count + payload_len
    if end > len(data):
        raise ValueError(
            f"edge list of vertex {vertex_id} truncated: needs {end - offset} "
            f"bytes at offset {offset}, buffer has {len(data) - offset}"
        )
    pos = offset + HEADER_BYTES + tag_count + (np.cumsum(val_len) - val_len)
    values = np.zeros(degree, dtype=np.int64)
    for k in range(4):
        mask = val_len > k
        values[mask] |= buf[pos[mask] + k].astype(np.int64) << (8 * k)
    neighbors = np.cumsum(values)
    if neighbors[-1] > 0xFFFFFFFF:
        raise ValueError("corrupt v2 edge list: neighbor id overflows u32")
    return vertex_id, neighbors.astype(np.uint32)
