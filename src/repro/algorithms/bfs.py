"""Breadth-first search (§4, Figure 4).

The paper's canonical example: an unvisited active vertex requests its own
out-edge list in ``run`` and activates its neighbors in ``run_on_vertex``.
Only out-edges are read.

Also provided: direction-optimizing BFS (Beamer et al. [3]), the algorithm
Galois uses.  §5.2 explains why FlashGraph does *not* use it in
semi-external memory — the bottom-up phase reads in-edge lists too,
inflating the bytes read from SSDs — so we implement it both to reproduce
Galois's advantage (Figure 10) and to let the ablation benches demonstrate
the paper's argument.
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


class DirectionOptimizingBFSProgram(BFSProgram):
    """Beamer-style BFS that switches to bottom-up on large frontiers.

    In the bottom-up phase every *unvisited* vertex reads its own in-edge
    list and joins the frontier if any in-neighbor is visited — fewer edge
    traversals, but both edge directions are read, which is exactly the
    extra SSD traffic §5.2 warns about.
    """

    edge_type = EdgeType.BOTH
    state_bytes_per_vertex = 2
    checkpoint_fields = (
        "visited",
        "level",
        "bottom_up_fraction",
        "_frontier_size",
        "_adopted",
        "_bottom_up",
    )

    def __init__(self, num_vertices: int, bottom_up_fraction: float = 0.05) -> None:
        super().__init__(num_vertices)
        if not 0.0 < bottom_up_fraction <= 1.0:
            raise ValueError("bottom_up_fraction must be in (0, 1]")
        self.bottom_up_fraction = bottom_up_fraction
        self._frontier_size = 0
        self._adopted = 0
        self._bottom_up = False

    def run(self, g: GraphContext, vertex: int) -> None:
        g.notify_iteration_end()
        if self._bottom_up:
            if not self.visited[vertex]:
                g.request_self(vertex, EdgeType.IN)
            return
        if not self.visited[vertex]:
            self.visited[vertex] = True
            self.level[vertex] = g.iteration
            self._frontier_size += 1
            g.request_self(vertex, EdgeType.OUT)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        if page_vertex.edge_type is EdgeType.OUT:
            g.activate(page_vertex.read_edges())
            return
        # Bottom-up probe: adopt the frontier if any parent joined it in
        # the previous iteration (unvisited vertices can have no older
        # visited parents — they would have been reached already).
        parents = page_vertex.read_edges()
        if parents.size and np.any(
            self.visited[parents] & (self.level[parents] == g.iteration - 1)
        ):
            self.visited[vertex] = True
            self.level[vertex] = g.iteration
            self._adopted += 1

    def run_on_iteration_end(self, g: GraphContext) -> None:
        if self._bottom_up:
            # Keep probing while the frontier still grows.
            if self._adopted:
                self._adopted = 0
                g.activate(np.nonzero(~self.visited)[0])
            return
        frontier = self._frontier_size
        self._frontier_size = 0
        if frontier > self.bottom_up_fraction * g.num_vertices:
            self._bottom_up = True
            # All unvisited vertices probe their parents next iteration.
            g.activate(np.nonzero(~self.visited)[0])


def bfs(
    engine: GraphEngine, source: int = 0, max_iterations: Optional[int] = None
) -> Tuple[np.ndarray, RunResult]:
    """Run BFS from ``source``; returns ``(levels, result)`` with ``-1``
    for unreached vertices."""
    program = BFSProgram(engine.image.num_vertices)
    result = engine.run(program, initial_active=np.asarray([source]), max_iterations=max_iterations)
    return program.level, result


def bfs_direction_optimizing(
    engine: GraphEngine, source: int = 0, bottom_up_fraction: float = 0.05
) -> Tuple[np.ndarray, RunResult]:
    """Direction-optimizing BFS from ``source``."""
    program = DirectionOptimizingBFSProgram(
        engine.image.num_vertices, bottom_up_fraction
    )
    result = engine.run(program, initial_active=np.asarray([source]))
    return program.level, result
