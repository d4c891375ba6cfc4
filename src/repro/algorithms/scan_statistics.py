"""Scan statistics (§4).

The scan statistic of a graph is the maximum *locality statistic* over
vertices: the number of edges in the neighborhood of a vertex (its degree
plus the edges among its neighbors, on the undirected projection).

The paper's key optimisation [27]: a custom vertex scheduler runs the
largest-degree vertices first, and every vertex whose upper bound
``deg + C(deg, 2)`` cannot beat the best statistic seen so far skips its
computation entirely — on power-law graphs almost every vertex is pruned.
"""

from typing import Dict, Tuple

import numpy as np

from repro.algorithms.neighborhood import NeighborhoodProgram
from repro.core.config import ScheduleOrder
from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext
from repro.graph.types import EdgeType


class ScanStatisticsProgram(NeighborhoodProgram):
    """Maximal locality statistic with degree-descending pruning."""

    combiner = None
    drop_neighbor_loops = False

    def __init__(self, num_vertices: int, directed: bool) -> None:
        super().__init__(directed)
        #: Locality statistic per vertex; -1 where pruning skipped it.
        self.scan = np.full(num_vertices, -1, dtype=np.int64)
        self.max_scan = 0
        self.argmax = -1
        self.pruned = 0
        self._among: Dict[int, int] = {}

    def custom_order(self, active: np.ndarray, iteration: int) -> np.ndarray:
        """Largest-degree first — the paper's custom scheduler."""
        degrees = self._order_degrees[active]
        return active[np.argsort(-degrees, kind="stable")]

    def attach_degrees(self, degrees: np.ndarray) -> None:
        """Install the degree array the custom scheduler sorts by."""
        self._order_degrees = degrees

    def run(self, g: GraphContext, vertex: int) -> None:
        degree = g.degree(vertex, EdgeType.OUT)
        if self.directed:
            degree += g.degree(vertex, EdgeType.IN)
        bound = degree + degree * (degree - 1) // 2
        if bound <= self.max_scan:
            self.pruned += 1
            return
        g.request_self(vertex, self.edge_type)

    def neighbors_to_request(self, vertex: int, neighborhood: np.ndarray) -> np.ndarray:
        return neighborhood

    def on_common(
        self, g: GraphContext, vertex: int, owner: int, closing: np.ndarray
    ) -> None:
        # Each neighbor-neighbor edge is visible from both endpoints;
        # count it at the lower-ID one only.
        self._among[vertex] = self._among.get(vertex, 0) + int(closing.size)

    def on_done(self, vertex: int, neighborhood: np.ndarray) -> None:
        statistic = neighborhood.size + self._among.pop(vertex, 0)
        self.scan[vertex] = statistic
        if statistic > self.max_scan:
            self.max_scan = statistic
            self.argmax = vertex


def scan_statistics(engine: GraphEngine) -> Tuple[int, int, RunResult]:
    """The maximal locality statistic and its vertex.

    Returns ``(max_scan, argmax_vertex, result)``.  Runs under the
    paper's degree-descending custom scheduler (``ScheduleOrder.CUSTOM``)
    whatever the engine's config says, and gives the engine its own config
    back afterwards, so the next program on it runs as configured.
    """
    image = engine.image
    program = ScanStatisticsProgram(image.num_vertices, image.directed)
    degrees = image.out_csr.degrees().astype(np.int64)
    if image.directed:
        degrees = degrees + image.in_csr.degrees()
    program.attach_degrees(degrees)
    config = engine.config
    engine.config = config.with_overrides(schedule_order=ScheduleOrder.CUSTOM)
    try:
        result = engine.run(program)
    finally:
        engine.config = config
    return program.max_scan, program.argmax, result
