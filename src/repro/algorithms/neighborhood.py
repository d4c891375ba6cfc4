"""The shared body of triangle counting and scan statistics (§4's third
I/O class: a vertex reads many other vertices' edge lists)."""

from typing import Dict, List, Tuple

import numpy as np

from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.format import run_starts
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType


class NeighborhoodProgram(VertexProgram):
    """A vertex reads its own lists, then some neighbors' lists, and
    intersects each neighbor's set with its own on the undirected
    projection.  The base buffers each list's per-direction parts, charges
    and intersects each pair, and counts the lists in flight.  A subclass
    defines ``neighbors_to_request(vertex, neighborhood)``, which of the
    sorted neighborhood to read; ``on_common(g, vertex, owner, closing)``,
    given the members both sets share above ``owner``, ascending; and
    optionally ``on_done(vertex, neighborhood)``, once the last requested
    list of ``vertex`` is intersected (or none was requested).
    """

    #: Whether a neighbor's own id leaves its set before the pair is
    #: charged; scan statistics charges the neighbor's lists as read.
    drop_neighbor_loops = True

    def __init__(self, directed: bool) -> None:
        self.directed = directed
        self.edge_type = EdgeType.BOTH if directed else EdgeType.OUT
        self._lists = 2 if directed else 1
        # Transient per-vertex buffers while requests are in flight.
        self._own_parts: Dict[int, List[np.ndarray]] = {}
        self._neighborhood: Dict[int, np.ndarray] = {}
        self._nbr_parts: Dict[Tuple[int, int], List[np.ndarray]] = {}
        self._outstanding: Dict[int, int] = {}

    def run(self, g: GraphContext, vertex: int) -> None:
        g.request_self(vertex, self.edge_type)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        owner = page_vertex.vertex_id
        if owner == vertex:
            self._on_own_list(g, vertex, page_vertex)
            return
        key = (vertex, owner)
        parts = self._nbr_parts.setdefault(key, [])
        parts.append(page_vertex.read_edges())
        if len(parts) == self._lists:
            del self._nbr_parts[key]
            mine = self._neighborhood[vertex]
            # Union the owner's directions first: a reciprocal pair of
            # directed edges is one edge of the undirected projection.
            others = _union_without(parts, owner if self.drop_neighbor_loops else -1)
            g.charge_edges(mine.size + others.size)
            common = np.intersect1d(mine, others, assume_unique=True)
            self.on_common(g, vertex, owner, common[common > owner])
        self._outstanding[vertex] -= 1
        if self._outstanding[vertex] == 0:
            del self._outstanding[vertex]
            self.on_done(vertex, self._neighborhood.pop(vertex))

    def _on_own_list(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        parts = self._own_parts.setdefault(vertex, [])
        parts.append(page_vertex.read_edges())
        if len(parts) < self._lists:
            return
        del self._own_parts[vertex]
        neighborhood = _union_without(parts, vertex)
        wanted = self.neighbors_to_request(vertex, neighborhood)
        if wanted.size == 0:
            self.on_done(vertex, neighborhood)
            return
        self._neighborhood[vertex] = neighborhood
        self._outstanding[vertex] = wanted.size * self._lists
        g.request_vertices(vertex, wanted, self.edge_type)

    def on_done(self, vertex: int, neighborhood: np.ndarray) -> None:
        pass


def _union_without(parts: List[np.ndarray], vertex: int) -> np.ndarray:
    """The union of a list's parts as int64, less ``vertex`` (``-1``: less
    nothing).  The builder's lists are sorted and duplicate-free, so one
    part needs no reduce and two are sorted and run-masked."""
    if len(parts) == 1:
        merged = parts[0].astype(np.int64)
    else:
        merged = np.concatenate(parts).astype(np.int64)
        merged.sort()
        merged = merged[run_starts(merged)]
    return merged[merged != vertex]
