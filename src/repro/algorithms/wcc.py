"""Weakly connected components via label propagation (§4).

Every vertex starts in its own component, broadcasts its component ID to
all neighbors (both edge directions — weak connectivity ignores edge
direction), and adopts the smallest ID it hears.  A vertex that receives
no smaller ID goes quiet; the algorithm ends when no labels change.
"""

from typing import Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType


class WCCProgram(VertexProgram):
    """Min-label propagation over both edge directions."""

    edge_type = EdgeType.BOTH
    combiner = "min"
    state_bytes_per_vertex = 4  # the component label
    checkpoint_fields = ("component", "_announced")

    def __init__(self, num_vertices: int) -> None:
        self.component = np.arange(num_vertices, dtype=np.int64)
        # Label each vertex last broadcast; the sentinel (no label is ever
        # ``num_vertices``) makes every vertex's initial residual positive
        # so the async mode starts from the full frontier.
        self._announced = np.full(num_vertices, num_vertices, dtype=np.int64)

    def run(self, g: GraphContext, vertex: int) -> None:
        # Broadcast the current label along both directions.  The engine
        # fetches the in- and out-edge lists as two requests (they live in
        # separate files) and merges adjacent ones (§3.5.2).
        self._announced[vertex] = self.component[vertex]
        g.request_self(vertex, EdgeType.BOTH)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        neighbors = page_vertex.read_edges()
        if neighbors.size:
            g.send_message(neighbors, float(self.component[vertex]))

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        label = int(value)
        if label < self.component[vertex]:
            self.component[vertex] = label
            g.activate(np.asarray([vertex]))

    # -- batched fast path (observationally identical to the scalar
    # methods above) ----------------------------------------------------

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        self._announced[vertices] = self.component[vertices]
        g.request_self_batch(vertices, EdgeType.BOTH)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        g.send_message_batch(
            batch.read_edges_concat(), self.component[batch.vertices], batch.degrees
        )

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> None:
        # Labels survive the float64 round trip exactly (vertex IDs are
        # far below 2**53), so the truncation matches ``int(value)``.
        labels = values.astype(np.int64)
        better = labels < self.component[dests]
        self.component[dests[better]] = labels[better]
        g.activate_batch(dests[better], better)

    # -- async priority hook (see docs/execution_modes.md) ---------------

    def residuals(self, vertices: np.ndarray) -> np.ndarray:
        """How far each label dropped since the vertex last broadcast."""
        improvement = self._announced[vertices] - self.component[vertices]
        return np.maximum(improvement, 0).astype(np.float64)

    def num_components(self) -> int:
        """Distinct component labels after convergence."""
        return int(np.unique(self.component).size)


def wcc(engine: GraphEngine) -> Tuple[np.ndarray, RunResult]:
    """Label every vertex with its weakly-connected component.

    Labels are the smallest vertex ID in each component.
    """
    program = WCCProgram(engine.image.num_vertices)
    result = engine.run(program)
    return program.component, result
