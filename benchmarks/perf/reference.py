"""Independent references the benchmark checks program outputs against.

None of this imports the engine: the PageRank reference is a plain
numpy power iteration over dense vectors, BFS levels come from
``scipy.sparse.csgraph``, and digests are SHA-256 over raw bytes.
"""

import hashlib

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


def edge_arrays(image):
    """``(src, dst)`` of the image's deduplicated out-edges."""
    csr = image.out_csr
    src = np.repeat(np.arange(image.num_vertices, dtype=np.int64), csr.degrees())
    return src, np.asarray(csr.indices, dtype=np.int64)


def pagerank_reference(image, iterations=30, damping=0.85, tolerance=1e-6):
    """Accumulative (delta) PageRank by dense-vector power iteration.

    Each round folds every pending delta into the rank and pushes
    ``damping * delta / out_degree`` along out-edges, dropping pushes at
    or below ``tolerance`` — the algorithm ``repro.algorithms.pagerank``
    documents, re-derived here with ``np.bincount`` as the only kernel.
    """
    n = image.num_vertices
    src, dst = edge_arrays(image)
    out_degree = np.bincount(src, minlength=n)
    rank = np.zeros(n)
    pending = np.full(n, 1.0 - damping)
    for _ in range(iterations):
        rank += pending
        push = damping * pending
        share = np.where(
            (out_degree > 0) & (push > tolerance), push / np.maximum(out_degree, 1), 0.0
        )
        pending = np.bincount(dst, weights=share[src], minlength=n)
    return rank + pending


def bfs_levels_reference(image, source):
    """Hop counts from ``source`` (``-1`` = unreached) via scipy."""
    n = image.num_vertices
    src, dst = edge_arrays(image)
    graph = csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n))
    hops = shortest_path(graph, method="D", unweighted=True, indices=source)
    return np.where(np.isfinite(hops), hops, -1).astype(np.int64)


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
