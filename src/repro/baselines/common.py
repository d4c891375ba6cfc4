"""Shared machinery for the baseline engines.

A :class:`WorkloadTrace` is the exact per-iteration dynamics of one
algorithm on one graph — how many vertices were active and how many edges
were traversed each iteration — computed by vectorised reference
implementations over the CSR adjacency.  Baseline engines turn a trace
into time under their own cost models, so every system "runs" the same
real workload and differs only in how it pays for it, which is exactly
the comparison the paper's Figures 10 and 11 make.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.builder import CSR, GraphImage
from repro.graph.format import gather_ranges
from repro.graph.sets import intersect_count_segments, rows_union, union_segments


@dataclass(frozen=True)
class IterationStats:
    """One iteration's workload."""

    active_vertices: int
    edges_traversed: int


@dataclass
class WorkloadTrace:
    """Per-iteration dynamics of one algorithm run."""

    algorithm: str
    iterations: List[IterationStats] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_edges(self) -> int:
        return sum(s.edges_traversed for s in self.iterations)

    @property
    def total_active(self) -> int:
        return sum(s.active_vertices for s in self.iterations)


@dataclass
class BaselineReport:
    """What a baseline engine reports for one run (cf. RunResult)."""

    system: str
    algorithm: str
    runtime: float
    iterations: int
    bytes_read: float
    bytes_written: float
    memory_bytes: float
    details: Dict[str, float] = field(default_factory=dict)


def bfs_trace(image: GraphImage, source: int) -> Tuple[np.ndarray, WorkloadTrace]:
    """Top-down BFS levels plus its per-iteration workload."""
    indptr = image.out_csr.indptr
    n = image.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    trace = WorkloadTrace("bfs")
    level = 0
    while frontier.size:
        edges = int((indptr[frontier + 1] - indptr[frontier]).sum())
        trace.iterations.append(IterationStats(int(frontier.size), edges))
        neighbors = rows_union(image.out_csr, frontier)
        frontier = neighbors[levels[neighbors] == -1]
        level += 1
        levels[frontier] = level
    return levels, trace


def pagerank_trace(
    image: GraphImage,
    damping: float = 0.85,
    tolerance: float = 1e-6,
    max_iterations: int = 30,
) -> Tuple[np.ndarray, WorkloadTrace]:
    """Delta PageRank values plus workload (active set shrinks over time)."""
    indptr, indices = image.out_csr.indptr, image.out_csr.indices
    n = image.num_vertices
    out_deg = np.diff(indptr)
    rank = np.zeros(n)
    pending = np.full(n, 1.0 - damping)
    trace = WorkloadTrace("pagerank")
    for _ in range(max_iterations):
        active = np.nonzero(pending != 0.0)[0]
        if active.size == 0:
            break
        delta = pending[active]
        rank[active] += delta
        pending[active] = 0.0
        push = damping * delta
        sending = (push > tolerance) & (out_deg[active] > 0)
        senders = active[sending]
        edges = int(out_deg[senders].sum())
        trace.iterations.append(IterationStats(int(active.size), edges))
        if senders.size:
            per_edge = np.repeat(push[sending] / out_deg[senders], out_deg[senders])
            dests = gather_ranges(indices, indptr[senders], out_deg[senders]).astype(np.int64)
            np.add.at(pending, dests, per_edge)
    return rank + pending, trace


def wcc_trace(image: GraphImage) -> Tuple[np.ndarray, WorkloadTrace]:
    """Min-label propagation components plus workload."""
    n = image.num_vertices
    labels = np.arange(n, dtype=np.int64)
    active = np.arange(n, dtype=np.int64)
    trace = WorkloadTrace("wcc")
    while active.size:
        edges = 0
        proposals = labels.copy()
        for csr in (image.out_csr, image.in_csr):
            degrees = csr.indptr[active + 1] - csr.indptr[active]
            edges += int(degrees.sum())
            dests = gather_ranges(csr.indices, csr.indptr[active], degrees).astype(np.int64)
            np.minimum.at(proposals, dests, np.repeat(labels[active], degrees))
        trace.iterations.append(IterationStats(int(active.size), edges))
        active = np.nonzero(proposals < labels)[0]
        labels = proposals
    return labels, trace


def bc_trace(image: GraphImage, source: int) -> Tuple[np.ndarray, WorkloadTrace]:
    """Single-source Brandes dependencies plus workload (fwd + bwd)."""
    levels, forward = bfs_trace(image, source)
    in_indptr = image.in_csr.indptr
    trace = WorkloadTrace("bc")
    trace.iterations.extend(forward.iterations)
    max_level = int(levels.max())
    # Backward sweep touches the in-edges of each level, far to near.
    for level in range(max_level, 0, -1):
        members = np.nonzero(levels == level)[0]
        edges = int((in_indptr[members + 1] - in_indptr[members]).sum())
        trace.iterations.append(IterationStats(int(members.size), edges))
    trace.algorithm = "bc"
    # The dependency values themselves come from the engine's BC program;
    # baselines only need the workload, so return the levels.
    return levels, trace


def _projection_pairs(image: GraphImage) -> Tuple[CSR, np.ndarray, np.ndarray]:
    """The undirected projection ``N`` and a pair ``(v, u)`` per ``u`` in ``N(v)``."""
    csr = union_segments(image)
    return csr, np.repeat(np.arange(image.num_vertices), csr.degrees()), csr.indices


def triangle_trace(image: GraphImage) -> Tuple[int, WorkloadTrace]:
    """Exact triangle count plus intersection workload.

    Workload counts, for every vertex, the sizes of the adjacency lists it
    must intersect — the same work every engine has to do.  Each edge
    ``v < u`` of the projection ``N`` intersects ``N(v)`` with ``N(u)``,
    and its common members above ``u`` close one triangle each; the work,
    ``|N(v)| + |N(u)|`` over those edges, is the sum of squared degrees.
    """
    csr, v, u = _projection_pairs(image)
    higher = u > v
    v, u = v[higher], u[higher]
    total = int(intersect_count_segments(csr, v, u, u).sum())
    degrees = csr.degrees()
    trace = WorkloadTrace("triangle_count")
    trace.iterations.append(IterationStats(image.num_vertices, int(degrees @ degrees)))
    return total, trace


def scan_trace(image: GraphImage) -> Tuple[int, WorkloadTrace]:
    """Exact maximum locality statistic plus workload (no pruning — the
    unpruned cost generic engines pay).

    Every vertex ``v`` intersects ``N(v)`` with each neighbor's ``N(u)``
    and counts the common members above ``u``; its statistic is its
    degree plus those counts.  The work, ``|N(v)| + |N(u)|`` over every
    ``(v, u)``, is twice the sum of squared degrees.
    """
    csr, v, u = _projection_pairs(image)
    degrees = csr.degrees()
    closing = intersect_count_segments(csr, v, u, u)
    among = np.bincount(v, weights=closing, minlength=degrees.size).astype(np.int64)
    best = int((degrees + among).max(initial=0))
    trace = WorkloadTrace("scan_statistics")
    trace.iterations.append(IterationStats(image.num_vertices, 2 * int(degrees @ degrees)))
    return best, trace
