"""Reference image construction: the oracle the builder is tested against.

The builder as it was before its sort-reduce: ``np.unique(...,
return_index=True)`` keeps each edge's first occurrence, a two-key
``(src, dst)`` ``lexsort`` orders each direction's lists, and another
``lexsort`` orders the weights.  Five sorts where the builder does two,
and obviously canonical.

The edge-list encoders are the ones the builder had before its
temporaries narrowed: :func:`reference_serialize_adjacency` scatters the
v1 neighbor words by an int64 per-edge rank, and
:func:`reference_serialize_adjacency_v2` encodes int64 deltas, scatters
each payload byte plane by position and assembles the tag bytes with one
float64 ``bincount``.  The attribute serializer and the indexes are
shared with the builder.
"""

from typing import Optional, Tuple

import numpy as np

from repro.graph.format import (
    EDGE_BYTES,
    FORMAT_V2,
    HEADER_BYTES,
    VALUES_PER_TAG,
    _ramp,
    scatter_positions,
    serialize_attributes,
)
from repro.graph.index import build_index, build_index_v2


def _check_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    if indptr.ndim != 1 or indptr.size < 1:
        raise ValueError("indptr must be a 1-D array with at least one entry")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr must start at 0 and end at len(indices)")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")


def reference_serialize_adjacency(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """The v1 edge-list file and its per-vertex byte offsets."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.uint32)
    _check_csr(indptr, indices)
    num_vertices = indptr.size - 1
    degrees = np.diff(indptr)
    sizes = HEADER_BYTES + degrees * EDGE_BYTES
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    words = np.empty(offsets[-1] // 4, dtype="<u4")
    word_offsets = offsets[:-1] // 4
    words[word_offsets] = np.arange(num_vertices, dtype=np.uint32)
    words[word_offsets + 1] = degrees.astype(np.uint32)
    if indices.size:
        edge_vertex = np.repeat(np.arange(num_vertices), degrees)
        rank = np.arange(indices.size, dtype=np.int64) - indptr[edge_vertex]
        words[word_offsets[edge_vertex] + 2 + rank] = indices
    return words.tobytes(), offsets


def _delta_values(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-vertex deltas of sorted neighbor lists, as int64."""
    values = indices.astype(np.int64)
    if values.size:
        deltas = np.empty_like(values)
        deltas[0] = values[0]
        deltas[1:] = values[1:] - values[:-1]
        starts = indptr[:-1][np.diff(indptr) > 0]
        deltas[starts] = values[starts]
        if deltas.min() < 0:
            raise ValueError("format v2 requires per-vertex sorted neighbor lists")
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


def reference_serialize_adjacency_v2(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[bytes, np.ndarray]:
    """The v2 edge-list file and its per-vertex byte offsets."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.uint32)
    _check_csr(indptr, indices)
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

    vids = np.arange(num_vertices, dtype=np.int64)
    for k in range(4):
        out[offsets[:-1] + k] = (vids >> (8 * k)) & 0xFF
        out[offsets[:-1] + 4 + k] = (degrees >> (8 * k)) & 0xFF

    if values.size:
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


def reference_dedup(
    edges: np.ndarray, weights: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Distinct edges in first-occurrence order, each with its first weight."""
    if edges.size == 0:
        return edges, weights
    keys = edges[:, 0] * (edges.max() + 1) + edges[:, 1]
    _, unique_idx = np.unique(keys, return_index=True)
    unique_idx.sort()
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float32)[unique_idx]
    return edges[unique_idx], weights


def reference_adjacency(
    edges: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` by a ``(src, dst)`` lexsort; keeps parallel edges."""
    edges = np.asarray(edges)
    if edges.size == 0:
        return np.zeros(num_vertices + 1, dtype=np.int64), np.zeros(0, dtype=np.uint32)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array")
    if edges.min() < 0 or edges.max() >= num_vertices:
        raise ValueError("edge endpoints must lie in [0, num_vertices)")
    src = edges[:, 0].astype(np.int64)
    dst = edges[:, 1].astype(np.uint32)
    indices = dst[np.lexsort((dst, src))]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


def reference_weight_order(edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights`` in CSR edge order: sorted by ``(src, dst)``."""
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return np.asarray(weights, dtype=np.float32)[order]


def _direction(edges: np.ndarray, num_vertices: int, fmt: str) -> dict:
    indptr, indices = reference_adjacency(edges, num_vertices)
    if fmt == FORMAT_V2:
        data, offsets = reference_serialize_adjacency_v2(indptr, indices)
        index = build_index_v2(np.diff(indptr), offsets)
    else:
        data, offsets = reference_serialize_adjacency(indptr, indices)
        index = build_index(np.diff(indptr), offsets)
    return {
        "indptr": indptr,
        "indices": indices,
        "bytes": data,
        "file_size": index.file_size,
    }


def _attrs(indptr: np.ndarray, edges: np.ndarray, weights) -> dict:
    if weights is None:
        return {}
    data, offsets = serialize_attributes(indptr, reference_weight_order(edges, weights))
    return {"attr_bytes": data, "attr_offsets": offsets}


def reference_build_directed(
    edges: np.ndarray, num_vertices: int, weights=None, fmt: str = "v1"
) -> dict:
    """What ``build_directed`` must produce, as ``{"out", "in", ...}``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges, weights = reference_dedup(edges, weights)
    out = _direction(edges, num_vertices, fmt)
    return {
        "out": out,
        "in": _direction(edges[:, ::-1], num_vertices, fmt),
        "edge_count": int(edges.shape[0]),
        **_attrs(out["indptr"], edges, weights),
    }


def reference_build_undirected(
    edges: np.ndarray, num_vertices: int, weights=None, fmt: str = "v1"
) -> dict:
    """What ``build_undirected`` must produce; ``in`` is ``out``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = np.stack([edges.min(axis=1), edges.max(axis=1)], axis=1)
    edges, weights = reference_dedup(edges, weights)
    loops = edges[:, 0] == edges[:, 1]
    sym = np.concatenate([edges, edges[~loops][:, ::-1]])
    sym_weights = None
    if weights is not None:
        sym_weights = np.concatenate([weights, weights[~loops]])
    out = _direction(sym, num_vertices, fmt)
    return {
        "out": out,
        "in": out,
        "edge_count": int(edges.shape[0]),
        **_attrs(out["indptr"], sym, sym_weights),
    }
