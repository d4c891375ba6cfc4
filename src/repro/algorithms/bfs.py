"""Breadth-first search (§4, Figure 4).

The paper's canonical example: an unvisited active vertex requests its own
out-edge list in ``run`` and activates its neighbors in ``run_on_vertex``.
Only out-edges are read.
"""

from typing import Optional, Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType


class BFSProgram(VertexProgram):
    """Level-synchronous top-down BFS."""

    edge_type = EdgeType.OUT
    combiner = None
    state_bytes_per_vertex = 1  # one "visited" byte, as in the paper
    checkpoint_fields = ("visited", "level")

    def __init__(self, num_vertices: int) -> None:
        self.visited = np.zeros(num_vertices, dtype=bool)
        self.level = np.full(num_vertices, -1, dtype=np.int64)

    def run(self, g: GraphContext, vertex: int) -> None:
        if not self.visited[vertex]:
            self.visited[vertex] = True
            self.level[vertex] = g.iteration
            g.request_self(vertex)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        g.activate(page_vertex.read_edges())

    # -- batched fast path: the two hooks above, a frontier at a time ----

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        fresh = vertices[~self.visited[vertices]]
        self.visited[fresh] = True
        self.level[fresh] = g.iteration
        g.request_self_batch(fresh)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        g.activate_batch(batch.read_edges_concat(), batch.degrees)


def bfs(
    engine: GraphEngine, source: int = 0, max_iterations: Optional[int] = None
) -> Tuple[np.ndarray, RunResult]:
    """Run BFS from ``source``; returns ``(levels, result)`` with ``-1``
    for unreached vertices."""
    program = BFSProgram(engine.image.num_vertices)
    result = engine.run(program, initial_active=np.asarray([source]), max_iterations=max_iterations)
    return program.level, result
