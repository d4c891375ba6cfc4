"""The neighborhood utilities as loops over vertices: the oracle.

``np.union1d`` / ``np.intersect1d`` / ``np.unique`` per list: slow, but
each line reads as its definition.
The properties in ``test_reference_traces.py`` hold the vectorised
functions to these bodies exactly — totals, work counts, degrees,
modularity and the diameter estimate.
"""

from typing import Tuple

import numpy as np

from repro.baselines.common import IterationStats, WorkloadTrace
from repro.graph.builder import CSR, GraphImage
from repro.graph.types import EdgeType


def _neighbor_sets(image: GraphImage):
    out, inc = image.out_csr, image.in_csr
    sets = []
    for v in range(image.num_vertices):
        merged = np.union1d(out.neighbors(v), inc.neighbors(v)).astype(np.int64)
        sets.append(merged[merged != v])
    return sets


def triangle_trace(image: GraphImage) -> Tuple[int, WorkloadTrace]:
    n = image.num_vertices
    neighbor_sets = _neighbor_sets(image)
    total = 0
    work = 0
    for v in range(n):
        mine = neighbor_sets[v]
        higher = mine[mine > v]
        for u in higher:
            other = neighbor_sets[int(u)]
            work += mine.size + other.size
            common = np.intersect1d(mine, other, assume_unique=True)
            total += int((common > u).sum())
    trace = WorkloadTrace("triangle_count")
    trace.iterations.append(IterationStats(n, work))
    return total, trace


def scan_trace(image: GraphImage) -> Tuple[int, WorkloadTrace]:
    n = image.num_vertices
    neighbor_sets = _neighbor_sets(image)
    best = 0
    work = 0
    for v in range(n):
        mine = neighbor_sets[v]
        among = 0
        for u in mine:
            other = neighbor_sets[int(u)]
            work += mine.size + other.size
            common = np.intersect1d(mine, other, assume_unique=True)
            among += int((common > u).sum())
        best = max(best, int(mine.size) + among)
    trace = WorkloadTrace("scan_statistics")
    trace.iterations.append(IterationStats(n, work))
    return best, trace


def undirected_degrees(image: GraphImage) -> np.ndarray:
    num_vertices = image.num_vertices
    degrees = np.zeros(num_vertices, dtype=np.int64)
    for vertex in range(num_vertices):
        merged = np.union1d(
            image.out_csr.neighbors(vertex), image.in_csr.neighbors(vertex)
        )
        degrees[vertex] = int((merged != vertex).sum())
    return degrees


def modularity(image: GraphImage, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    edges = set()
    for direction in (EdgeType.OUT, EdgeType.IN):
        csr = image.csr(direction)
        for v in range(image.num_vertices):
            for u in csr.neighbors(v):
                u = int(u)
                if u != v:
                    edges.add((min(v, u), max(v, u)))
        if not image.directed:
            break
    m = len(edges)
    if m == 0:
        return 0.0
    degrees = np.zeros(image.num_vertices, dtype=np.int64)
    internal = 0
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
        if labels[u] == labels[v]:
            internal += 1
    unique, inverse = np.unique(labels, return_inverse=True)
    community_degree = np.zeros(unique.size, dtype=np.float64)
    np.add.at(community_degree, inverse, degrees)
    expected = float((community_degree**2).sum()) / (4.0 * m * m)
    return internal / m - expected


def _undirected_csr(image: GraphImage) -> CSR:
    if not image.directed:
        return image.out_csr
    num_vertices = image.num_vertices
    out_csr, in_csr = image.out_csr, image.in_csr
    degrees = np.diff(out_csr.indptr) + np.diff(in_csr.indptr)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.uint32)
    cursor = indptr[:-1].copy()
    for vertex in range(num_vertices):
        for csr in (out_csr, in_csr):
            neighbors = csr.neighbors(vertex)
            end = cursor[vertex] + neighbors.size
            indices[cursor[vertex] : end] = neighbors
            cursor[vertex] = end
    return CSR(indptr, indices)


def _bfs_eccentricity(csr: CSR, source: int) -> Tuple[int, int]:
    num_vertices = csr.indptr.size - 1
    visited = np.zeros(num_vertices, dtype=bool)
    visited[source] = True
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    last = source
    while True:
        chunks = [csr.neighbors(int(v)) for v in frontier]
        if chunks:
            nxt = np.unique(np.concatenate(chunks).astype(np.int64))
            nxt = nxt[~visited[nxt]]
        else:
            nxt = np.zeros(0, dtype=np.int64)
        if nxt.size == 0:
            return level, last
        visited[nxt] = True
        frontier = nxt
        last = int(nxt[0])
        level += 1


def estimate_diameter(image: GraphImage, num_sweeps: int = 8, seed: int = 0) -> int:
    csr = _undirected_csr(image)
    rng = np.random.default_rng(seed)
    best = 0
    start = int(rng.integers(0, image.num_vertices))
    for sweep in range(num_sweeps):
        ecc, farthest = _bfs_eccentricity(csr, start)
        if ecc > best:
            best = ecc
        if sweep % 2 == 0 and farthest != start:
            start = farthest
        else:
            start = int(rng.integers(0, image.num_vertices))
    return best
