"""Effective diameter estimation (used for Table 1's diameter column).

The paper's Table 1 reports dataset diameters, noting the estimation
ignores edge direction.  We use the standard double-sweep lower bound:
repeated BFS sweeps on the undirected projection, each starting from the
farthest vertex the previous sweep found, plus a few random restarts.
This is a utility over the in-memory CSR (graph construction tooling, not
a vertex program — diameter is measured once per dataset, offline).
"""

from typing import Tuple

import numpy as np

from repro.graph.builder import CSR, GraphImage
from repro.graph.sets import rows_union, union_segments


def _bfs_eccentricity(csr: CSR, source: int) -> Tuple[int, int]:
    """``(eccentricity, farthest_vertex)`` from ``source`` via frontier BFS."""
    visited = np.zeros(csr.indptr.size - 1, dtype=bool)
    visited[source] = True
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    last = source
    while True:
        frontier = rows_union(csr, frontier)
        frontier = frontier[~visited[frontier]]
        if frontier.size == 0:
            return level, last
        visited[frontier] = True
        last = int(frontier[0])
        level += 1


def estimate_diameter(image: GraphImage, num_sweeps: int = 8, seed: int = 0) -> int:
    """A double-sweep lower bound on the diameter, ignoring direction."""
    if num_sweeps <= 0:
        raise ValueError("need at least one sweep")
    csr = union_segments(image)
    rng = np.random.default_rng(seed)
    best = 0
    start = int(rng.integers(0, image.num_vertices))
    for sweep in range(num_sweeps):
        ecc, farthest = _bfs_eccentricity(csr, start)
        if ecc > best:
            best = ecc
        # Alternate: continue from the farthest vertex, or restart randomly
        # to escape small components.
        if sweep % 2 == 0 and farthest != start:
            start = farthest
        else:
            start = int(rng.integers(0, image.num_vertices))
    return best
