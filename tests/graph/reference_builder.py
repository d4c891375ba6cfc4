"""Reference image construction: the oracle the builder is tested against.

The builder as it was before its sort-reduce: ``np.unique(...,
return_index=True)`` keeps each edge's first occurrence, a two-key
``(src, dst)`` ``lexsort`` orders each direction's lists, and another
``lexsort`` orders the weights.  Five sorts where the builder does two,
and obviously canonical.  The on-SSD serializers and indexes are shared
with the builder: only the edge ordering is under test.
"""

from typing import Optional, Tuple

import numpy as np

from repro.graph.format import (
    FORMAT_V2,
    serialize_adjacency,
    serialize_adjacency_v2,
    serialize_attributes,
)
from repro.graph.index import build_index, build_index_v2


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
        data, offsets = serialize_adjacency_v2(indptr, indices)
        index = build_index_v2(np.diff(indptr), offsets)
    else:
        data, offsets = serialize_adjacency(indptr, indices)
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
