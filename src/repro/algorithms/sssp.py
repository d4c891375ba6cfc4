"""Single-source shortest paths over weighted edges (extension).

A Bellman-Ford-style vertex program exercising FlashGraph's *detached
edge-attribute files* (§3.5.2): algorithms that do not need weights never
read them, and SSSP requests the attribute block alongside each edge list
(``with_attrs=True``), doubling that vertex's I/O only where needed.

Non-negative weights are assumed for comparison against Dijkstra.
"""

from typing import Optional, Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.messages import check_vertex_ids
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType


class SSSPProgram(VertexProgram):
    """Frontier-relaxation shortest paths (Bellman-Ford)."""

    edge_type = EdgeType.OUT
    combiner = "min"
    state_bytes_per_vertex = 8  # the tentative distance

    def __init__(self, num_vertices: int, source: int) -> None:
        check_vertex_ids(np.asarray([source]), num_vertices, "source vertex")
        self.dist = np.full(num_vertices, np.inf)
        self.dist[source] = 0.0
        # Distance each vertex last relaxed its out-edges at; ``inf``
        # means "never relaxed", so any finite distance is a positive
        # residual and the vertex is eligible for an async round.
        self._announced = np.full(num_vertices, np.inf)

    def run(self, g: GraphContext, vertex: int) -> None:
        # Relax out-edges; the engine pairs the edge list with its weight
        # block from the detached attribute file.
        self._announced[vertex] = self.dist[vertex]
        g.request_vertices(vertex, np.asarray([vertex]), EdgeType.OUT, with_attrs=True)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        neighbors = page_vertex.read_edges()
        if neighbors.size == 0:
            return
        weights = page_vertex.read_edge_attrs()
        g.send_message(neighbors, self.dist[vertex] + weights.astype(np.float64))

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        if value < self.dist[vertex]:
            self.dist[vertex] = value
            g.activate(np.asarray([vertex]))

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> None:
        """The receive side in bulk (``run`` / ``run_on_vertex`` go
        through the default batch hooks)."""
        better = values < self.dist[dests]
        self.dist[dests[better]] = values[better]
        g.activate_batch(dests[better], better)

    # -- async priority hook (see docs/execution_modes.md) ---------------

    def residuals(self, vertices: np.ndarray) -> np.ndarray:
        """How much each tentative distance improved since the vertex
        last relaxed its out-edges (unreachable vertices hold no work)."""
        dist = self.dist[vertices]
        improvement = np.zeros(dist.size)
        finite = np.isfinite(dist)
        improvement[finite] = self._announced[vertices][finite] - dist[finite]
        return np.maximum(improvement, 0.0)


def sssp(
    engine: GraphEngine, source: int = 0, max_iterations: Optional[int] = None
) -> Tuple[np.ndarray, RunResult]:
    """Shortest-path distances from ``source`` (``inf`` when unreachable).

    The graph image must carry out-edge weights
    (``build_directed(..., weights=...)``).
    """
    program = SSSPProgram(engine.image.num_vertices, source)
    result = engine.run(
        program,
        initial_active=np.asarray([source]),
        max_iterations=max_iterations,
    )
    return program.dist, result
