"""k-core decomposition by peeling (extension beyond the paper's six apps).

The k-core of a graph is the maximal subgraph in which every vertex has
degree at least ``k``.  Peeling is naturally vertex-centric and
FlashGraph-shaped: a vertex that drops below ``k`` removes itself, reads
its own edge list once, and messages each neighbor to decrement — exactly
the selective-access pattern the engine optimises.

Operates on undirected graphs (build the image with
:func:`~repro.graph.builder.build_undirected`).
"""

from typing import Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.sets import loopless_degrees
from repro.graph.types import EdgeType


class KCoreProgram(VertexProgram):
    """Iterative peeling of vertices below degree ``k``."""

    edge_type = EdgeType.OUT
    combiner = "sum"
    state_bytes_per_vertex = 5  # alive byte + remaining degree

    def __init__(self, num_vertices: int, k: int, degrees: np.ndarray) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.alive = np.ones(num_vertices, dtype=bool)
        self.remaining = np.asarray(degrees, dtype=np.int64).copy()

    def run(self, g: GraphContext, vertex: int) -> None:
        if self.alive[vertex] and self.remaining[vertex] < self.k:
            self.alive[vertex] = False
            g.request_self(vertex, EdgeType.OUT)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        neighbors = page_vertex.read_edges()
        if neighbors.size:
            g.send_message(neighbors, 1.0)

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        if self.alive[vertex]:
            self.remaining[vertex] -= int(round(value))
            g.activate(np.asarray([vertex]))

    # -- batched fast path (observationally identical to the scalar
    # methods above) ----------------------------------------------------

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        peeled = vertices[self.alive[vertices] & (self.remaining[vertices] < self.k)]
        self.alive[peeled] = False
        g.request_self_batch(peeled, EdgeType.OUT)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        g.send_message_batch(
            batch.read_edges_concat(), np.ones(batch.num_lists), batch.degrees
        )

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> None:
        alive = self.alive[dests]
        # Message sums are exact small integers; rint matches the scalar
        # banker's ``round``.
        self.remaining[dests[alive]] -= np.rint(values[alive]).astype(np.int64)
        g.activate_batch(dests[alive], alive)


def kcore(engine: GraphEngine, k: int) -> Tuple[np.ndarray, RunResult]:
    """Mask of vertices belonging to the k-core of an undirected image."""
    image = engine.image
    if image.directed:
        raise ValueError("k-core peeling expects an undirected image")
    # Self-loops do not contribute to core degree.
    degrees = loopless_degrees(image.out_csr)
    program = KCoreProgram(image.num_vertices, k, degrees)
    result = engine.run(program)
    return program.alive, result
