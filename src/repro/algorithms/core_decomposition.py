"""Full k-core decomposition: a core number for every vertex (extension).

Extends :mod:`repro.algorithms.kcore` (single-k membership) to the whole
decomposition by iterated peeling: peel at ``k = 1, 2, ...`` until the
graph empties; a vertex's core number is the largest ``k`` whose core
contains it.  Each peel level is one engine run over the *surviving*
subgraph only — the active sets shrink fast, matching the selective-I/O
strength of the engine.

Operates on undirected images, like :mod:`kcore`.
"""

from typing import Tuple

import numpy as np

from repro.algorithms.bc import merge_results
from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.sets import loopless_degrees
from repro.graph.types import EdgeType


class _PeelProgram(VertexProgram):
    """One peel level: remove alive vertices with remaining degree < k."""

    edge_type = EdgeType.OUT
    combiner = "sum"
    state_bytes_per_vertex = 9  # alive + remaining degree + core number

    def __init__(self, alive: np.ndarray, remaining: np.ndarray, k: int) -> None:
        self.alive = alive
        self.remaining = remaining
        self.k = k

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


def core_decomposition(engine: GraphEngine) -> Tuple[np.ndarray, RunResult]:
    """Core numbers for every vertex of an undirected image.

    Returns ``(core_numbers, merged_result)``; isolated vertices have
    core number 0.
    """
    image = engine.image
    if image.directed:
        raise ValueError("core decomposition expects an undirected image")
    num_vertices = image.num_vertices
    # Self-loops do not contribute to core degree.
    degrees = loopless_degrees(image.out_csr)

    core = np.zeros(num_vertices, dtype=np.int64)
    alive = np.ones(num_vertices, dtype=bool)
    remaining = degrees.copy()
    total: RunResult = None
    k = 1
    while alive.any():
        program = _PeelProgram(alive, remaining, k)
        result = engine.run(program, initial_active=np.nonzero(alive)[0])
        total = result if total is None else merge_results(total, result)
        survivors = np.nonzero(alive)[0]
        core[survivors] = k
        k += 1
    return core, total
