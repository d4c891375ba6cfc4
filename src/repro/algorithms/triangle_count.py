"""Triangle counting (§4).

The paper's third I/O class: a vertex reads the edge lists of *many other
vertices*.  Each vertex ``v`` fetches its own edge lists (both directions
on a directed graph — triangles live in the undirected projection), then
requests the edge lists of every neighbor with a larger ID and intersects.
A triangle ``v < u < w`` is counted once, at ``v``, which then notifies
``u`` and ``w`` by message so every member's per-vertex count is right.

This access pattern is why TC is the paper's most I/O-intensive
application, and the one vertical partitioning (§3.8) helps most: a hub's
request for thousands of neighbor lists splits into parts other threads
can execute.
"""

from typing import Tuple

import numpy as np

from repro.algorithms.neighborhood import NeighborhoodProgram
from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext


class TriangleCountProgram(NeighborhoodProgram):
    """Per-vertex triangle counts over the undirected projection."""

    def __init__(self, num_vertices: int, directed: bool) -> None:
        super().__init__(directed)
        self.triangles = np.zeros(num_vertices, dtype=np.int64)

    def neighbors_to_request(self, vertex: int, neighborhood: np.ndarray) -> np.ndarray:
        return neighborhood[neighborhood > vertex]

    def on_common(
        self, g: GraphContext, vertex: int, owner: int, closing: np.ndarray
    ) -> None:
        if closing.size == 0:
            return
        # One triangle (vertex, owner, w) per closing w: count locally,
        # notify the other two corners by message.
        count = int(closing.size)
        self.triangles[vertex] += count
        g.send_message(np.asarray([owner]), float(count))
        g.send_message(closing, 1.0)

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        self.triangles[vertex] += int(round(value))

    @property
    def total_triangles(self) -> int:
        """Triangles in the graph (each contributes 3 corner counts)."""
        return int(self.triangles.sum()) // 3


def triangle_count(engine: GraphEngine) -> Tuple[np.ndarray, RunResult]:
    """Per-vertex triangle counts; ``result`` reports the run."""
    program = TriangleCountProgram(
        engine.image.num_vertices, engine.image.directed
    )
    result = engine.run(program)
    return program.triangles, result
