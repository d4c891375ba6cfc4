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

Everything is little-endian and 4-byte aligned, so an edge list parses
zero-copy with ``numpy.frombuffer`` (:func:`parse_edge_list`).

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

from typing import List, Optional, Tuple

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
#: Edges per run of lists :func:`serialize_adjacency_v2` encodes at once:
#: it bounds the encoder's temporaries (~17 B per edge of a run) to ~0.5 MiB.
ENCODE_CHUNK_EDGES = 1 << 15


def _ramp(lengths: np.ndarray, total: int) -> np.ndarray:
    """``[0..lengths[0]), [0..lengths[1]), ...`` as one flat array."""
    stops = np.cumsum(lengths)
    return np.arange(total, dtype=np.int64) - np.repeat(stops - lengths, lengths)


def gather_ranges(source: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``source[starts[i] : starts[i] + lengths[i]]`` for all
    ``i`` with a single fancy-index gather (no per-range slicing)."""
    return source[scatter_positions(starts, lengths)]


def scatter_positions(out_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat output indices placing range ``i`` at ``out_starts[i]`` — the
    scatter-side twin of :func:`gather_ranges`, used when ranges from
    several source arrays interleave into one concatenation.  One
    ``repeat`` of each range's shift, plus a ramp."""
    lengths = np.asarray(lengths, dtype=np.int64)
    stops = lengths.cumsum()
    total = int(stops[-1]) if stops.size else 0
    index = (out_starts - stops + lengths).repeat(lengths)
    index += np.arange(total, dtype=np.int64)
    return index


def edge_list_size(degree: int) -> int:
    """On-SSD bytes of one edge list with ``degree`` edges."""
    if degree < 0:
        raise ValueError("degree cannot be negative")
    return HEADER_BYTES + degree * EDGE_BYTES


def _check_csr(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, degrees)`` as int64/u32/int64, or
    :class:`ValueError` when they do not form a CSR adjacency."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype="<u4")
    if indptr.ndim != 1 or indptr.size < 1:
        raise ValueError("indptr must be a 1-D array with at least one entry")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr must start at 0 and end at len(indices)")
    degrees = np.diff(indptr)
    if np.any(degrees < 0):
        raise ValueError("indptr must be non-decreasing")
    return indptr, indices, degrees


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
    indptr, indices, degrees = _check_csr(indptr, indices)
    num_vertices = degrees.size
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(HEADER_BYTES + degrees * EDGE_BYTES, out=offsets[1:])

    # Build the whole file as one u32 array: headers interleaved with
    # edges.  Every word that is not a header word holds the next
    # neighbor id, so one boolean mask places them all in order.
    words = np.empty(offsets[-1] // 4, dtype="<u4")
    is_edge = np.ones(words.size, dtype=bool)
    for k, field in enumerate((np.arange(num_vertices), degrees)):
        word_index = offsets[:-1] // 4 + k
        words[word_index] = field
        is_edge[word_index] = False
    words[is_edge] = indices
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


def key_dtype(num_vertices: int) -> type:
    """The narrowest exact dtype of the keys ``src * n + dst``: u32 when
    every key (below ``n ** 2``) fits 32 bits, else int64."""
    return np.uint32 if num_vertices * num_vertices <= 1 << 32 else np.int64


def edge_keys(
    edges: np.ndarray, num_vertices: int, canonical: bool = False, dtype=np.int64
) -> np.ndarray:
    """The keys ``src * n + dst`` of a non-empty integer ``(m, 2)`` edge
    array, of ``dtype`` (int64, or :func:`key_dtype` for the narrowest).

    ``canonical`` keys each edge as ``(min, max)``, the orientation of an
    undirected edge.  The keys are built in place, one endpoint-sized
    temporary at most.  An endpoint outside ``[0, n)`` raises
    :class:`ValueError`: a key does not remember it (``(1, -1)`` packs
    to the key of ``(0, n - 1)``).
    """
    if edges.min() < 0 or edges.max() >= num_vertices:
        raise ValueError("edge endpoints must lie in [0, num_vertices)")
    src, dst = edges[:, 0], edges[:, 1]
    # The endpoints lie in [0, n), so the unsafe casts are exact.
    head = np.minimum(src, dst) if canonical else src
    keys = np.multiply(head, num_vertices, dtype=dtype, casting="unsafe")
    del head
    tail = np.maximum(src, dst) if canonical else dst
    np.add(keys, tail, out=keys, casting="unsafe")
    return keys


def csr_from_sorted_keys(
    keys: np.ndarray, num_vertices: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of ascending edge keys ``src * n + dst``.

    Vertex ``v``'s list starts at the first key ``>= v * n``, and each
    key's neighbor is ``key % n`` — lists come out sorted by neighbor.
    The neighbors are written into ``out`` (u32, one per key) when given.
    The list starts are searched at the keys' own dtype, so the keys are
    never cast; the last list ends at the last key.
    """
    indptr = np.empty(num_vertices + 1, dtype=np.int64)
    list_starts = np.arange(num_vertices, dtype=keys.dtype) * num_vertices
    indptr[:-1] = np.searchsorted(keys, list_starts)
    indptr[-1] = keys.size
    indices = np.empty(keys.size, dtype=np.uint32) if out is None else out
    np.remainder(keys, num_vertices, out=indices, casting="unsafe")
    return indptr, indices


def csr_keys(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_vertices: int,
    transpose: bool = False,
    dtype=np.int64,
) -> np.ndarray:
    """The keys ``row * n + neighbor`` of a CSR's edges, of ``dtype`` —
    the inverse of :func:`csr_from_sorted_keys` — or, with ``transpose``,
    the keys ``neighbor * n + row`` of the reversed edges."""
    degrees = np.diff(indptr)
    if transpose:
        # The keys before the row temporary: the other order leaves a
        # 4 B/edge higher heap high-water mark behind after the builder.
        keys = np.multiply(indices, num_vertices, dtype=dtype)
        keys += np.repeat(np.arange(num_vertices, dtype=np.uint32), degrees)
    else:
        keys = np.repeat(np.arange(num_vertices, dtype=dtype) * num_vertices, degrees)
        keys += indices
    return keys


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal ``sorted_keys``: with
    ``np.sort`` it is the sort-reduce that stands in for ``np.unique``
    (see ``docs/graph_format.md``)."""
    starts = np.empty(sorted_keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


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
    keys = edge_keys(edges, num_vertices)
    keys.sort()
    return csr_from_sorted_keys(keys, num_vertices)


# ---------------------------------------------------------------------------
# Format v2: delta + stream-split group-varint neighbors.
# ---------------------------------------------------------------------------


def _v2_lengths(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(deltas, codes, payload_counts)`` of a CSR under format v2.

    ``deltas`` holds each list's first neighbor raw and every later one
    as the difference from its predecessor (little-endian u32);
    ``codes[i]`` is value ``i``'s 2-bit length code (``bytes - 1``, u8);
    ``payload_counts[v]`` is vertex ``v``'s payload bytes.  Raises
    :class:`ValueError` when any list is unsorted, since v2 cannot
    represent a negative delta.
    """
    deltas = np.empty(indices.size, dtype="<u4")
    degrees = np.diff(indptr)
    starts = indptr[:-1][degrees > 0]
    if indices.size:
        descents = indices[1:] < indices[:-1]
        # A list's first neighbor may sit below the previous list's last.
        descents[starts[1:] - 1] = False
        if descents.any():
            raise ValueError("format v2 requires per-vertex sorted neighbor lists")
        del descents
        deltas[0] = indices[0]
        np.subtract(indices[1:], indices[:-1], out=deltas[1:])
        deltas[starts] = indices[starts]
    codes = (deltas > 0xFF).view(np.uint8)
    codes += deltas > 0xFFFF
    codes += deltas > 0xFFFFFF
    payload_counts = degrees.copy()
    if starts.size:
        payload_counts[degrees > 0] += np.add.reduceat(codes, starts, dtype=np.int64)
    return deltas, codes, payload_counts


def v2_edge_list_sizes(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-vertex on-SSD byte sizes under format v2, without encoding.

    ``sizes[v] = 8 + ceil(degree/4) + sum(encoded value bytes)`` — the
    cheap sizing pass `repro graph stats` uses to report compression
    ratios for images that were built as v1.
    """
    indptr, indices, degrees = _check_csr(indptr, indices)
    tag_counts = (degrees + VALUES_PER_TAG - 1) // VALUES_PER_TAG
    return HEADER_BYTES + tag_counts + _v2_lengths(indptr, indices)[2]


def list_runs(indptr: np.ndarray, chunk_edges: int) -> List[Tuple[int, int]]:
    """The vertex ranges ``[a, b)`` whose lists start within the same
    ``chunk_edges`` edges of a CSR, in order and covering every vertex:
    runs of whole lists that the v2 encoder and an image's v2 check each
    handle in one call.  A CSR without edges is one run."""
    starts = indptr[:-1]
    marks = np.arange(0, max(int(indptr[-1]), 1), chunk_edges)
    cuts = np.searchsorted(starts, marks).tolist()
    return [(a, b) for a, b in zip(cuts, cuts[1:] + [starts.size]) if a < b]


def serialize_adjacency_v2(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """Serialise a CSR adjacency into the compressed v2 edge-list file.

    Neighbor lists must be sorted per vertex (duplicates are fine — they
    encode as delta 0).  Returns ``(file_bytes, offsets)`` with
    ``offsets[v]`` the byte offset of vertex ``v``'s record and
    ``offsets[n]`` the file size.  Records are self-contained, so the
    file is encoded one :func:`list_runs` run of about
    :data:`ENCODE_CHUNK_EDGES` edges at a time: the encoder's
    temporaries are a run's, not the file's.
    """
    indptr, indices, degrees = _check_csr(indptr, indices)
    pieces, sizes = [], []
    for a, b in list_runs(indptr, ENCODE_CHUNK_EDGES):
        lo, hi = indptr[a], indptr[b]
        piece, piece_sizes = _encode_run_v2(indptr[a : b + 1] - lo, indices[lo:hi], a)
        pieces.append(piece)
        sizes.append(piece_sizes)
    offsets = np.zeros(degrees.size + 1, dtype=np.int64)
    if sizes:
        np.cumsum(np.concatenate(sizes), out=offsets[1:])
    return b"".join(pieces), offsets


def _encode_run_v2(
    indptr: np.ndarray, indices: np.ndarray, first_vertex: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(record bytes, record sizes)`` of the v2 records of vertices
    ``first_vertex, first_vertex + 1, ...`` with lists ``indptr`` /
    ``indices``.  Pure numpy over u32 deltas and u8 codes: the payload is
    one byte-plane mask over the deltas' bytes, the tag stream one
    ``reduceat`` of the shifted codes."""
    degrees = np.diff(indptr)
    num_vertices = degrees.size
    tag_counts = (degrees + VALUES_PER_TAG - 1) // VALUES_PER_TAG
    deltas, codes, payload_counts = _v2_lengths(indptr, indices)
    sizes = HEADER_BYTES + tag_counts + payload_counts
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    out = np.empty(int(offsets[-1]), dtype=np.uint8)
    is_payload = np.ones(out.size, dtype=bool)

    # Headers: 8 little-endian byte planes scattered at each record start.
    vids = np.arange(first_vertex, first_vertex + num_vertices, dtype=np.int64)
    for k in range(4):
        for at, field in ((k, vids), (4 + k, degrees)):
            out[offsets[:-1] + at] = (field >> (8 * k)) & 0xFF
            is_payload[offsets[:-1] + at] = False

    if indices.size:
        # Payload: byte plane k of a value is kept when the value is
        # longer than k bytes.  Row by row, the kept bytes of the deltas'
        # little-endian view are the payload stream in file order.
        keep = np.empty((indices.size, 4), dtype=bool)
        for k in range(4):
            np.greater_equal(codes, k, out=keep[:, k])
        payload = deltas.view(np.uint8)[keep.ravel()]
        del deltas, keep
        # Tag bytes: value ``rank`` of a list puts its code at bits
        # 2*(rank % 4) of tag byte rank // 4.  ``rank % 4`` in u8 is the
        # edge position mod 4 less the list start's, and a tag byte's
        # values are a run from one rank divisible by 4; the shifted
        # codes of a run fill disjoint bits, so a u8 sum ORs them.
        phase = np.empty(indices.size, dtype=np.uint8)
        for k in range(VALUES_PER_TAG):
            phase[k::VALUES_PER_TAG] = k
        phase -= np.repeat((indptr[:-1] % VALUES_PER_TAG).astype(np.uint8), degrees)
        phase &= VALUES_PER_TAG - 1
        runs = np.flatnonzero(phase == 0)
        phase <<= 1
        codes <<= phase
        del phase
        tags = np.add.reduceat(codes, runs, dtype=np.uint8)
        del codes, runs
        tag_positions = scatter_positions(offsets[:-1] + HEADER_BYTES, tag_counts)
        out[tag_positions] = tags
        is_payload[tag_positions] = False
        del tags, tag_positions
        out[is_payload] = payload
    return out, sizes


def decode_lists_v2(
    file_bytes: np.ndarray, offsets: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """Decode a batch of v2 edge lists straight out of the file's bytes.

    ``file_bytes`` is the whole edge file as a ``uint8`` array;
    ``offsets[i]``/``degrees[i]`` locate list ``i``.  Returns all neighbor
    ids concatenated in list order as ``uint32``; raises ``ValueError``
    when a neighbor id overflows u32.  A :class:`GraphImage
    <repro.graph.builder.GraphImage>` runs it once per v2 edge file, over
    chunks of lists, to check the file against its neighbors
    (``GraphImage.edge_words``), not once per wave.  No Python loop
    touches an edge.
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
