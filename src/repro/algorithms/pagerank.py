"""Delta-based PageRank (§4).

The paper's PageRank sends the *delta* of a vertex's most recent update to
its neighbors, who fold it into their own rank (the Maiter accumulative
formulation [30]).  Vertices whose pending delta falls below a threshold
stop propagating, so the active set shrinks as the algorithm converges —
the property that makes PageRank's I/O mostly sequential early and sparse
late.  The iteration cap is 30, matching Pregel and the paper.

The fixpoint solved is the unnormalised accumulative PageRank::

    rank[v] = (1 - d) + d * sum_{u -> v} rank_contribution(u) / out_deg(u)

Dangling vertices keep their mass (no redistribution), exactly like the
delta formulation the paper cites.
"""

from typing import Optional, Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType

#: The paper caps PageRank at 30 iterations, matching Pregel.
DEFAULT_MAX_ITERATIONS = 30

#: Default propagation-stop threshold (see ``tolerance`` below); named
#: so callers coarsening it (serving-layer brownout) share one source.
DEFAULT_TOLERANCE = 1e-6


class PageRankProgram(VertexProgram):
    """Accumulative (delta) PageRank."""

    edge_type = EdgeType.OUT
    combiner = "sum"
    state_bytes_per_vertex = 8  # rank (f4) + pending delta (f4)
    checkpoint_fields = ("damping", "tolerance", "rank", "pending", "_sending")

    def __init__(
        self,
        num_vertices: int,
        damping: float = 0.85,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        if tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        self.damping = damping
        self.tolerance = tolerance
        self.rank = np.zeros(num_vertices)
        self.pending = np.full(num_vertices, 1.0 - damping)
        self._sending = np.zeros(num_vertices)
        # Async scheduling floor: sync drops a push when
        # ``damping * delta <= tolerance``, so a pending delta at or
        # below ``tolerance / damping`` is not worth scheduling — the
        # exact same mass sync would leave unpropagated.
        self.async_floor = tolerance / damping

    def run(self, g: GraphContext, vertex: int) -> None:
        delta = self.pending[vertex]
        if delta == 0.0:
            return
        self.pending[vertex] = 0.0
        self.rank[vertex] += delta
        out_degree = g.degree(vertex, EdgeType.OUT)
        push = self.damping * delta
        if out_degree == 0 or push <= self.tolerance:
            return
        self._sending[vertex] = push / out_degree
        g.request_self(vertex, EdgeType.OUT)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        g.send_message(page_vertex.read_edges(), self._sending[vertex])

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        self.pending[vertex] += value
        g.activate(np.asarray([vertex]))

    # -- batched fast path (observationally identical to the scalar
    # methods above; the engine replays all per-vertex charges) ---------

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        delta = self.pending[vertices]
        live = delta != 0.0
        active = vertices[live]
        delta = delta[live]
        self.pending[active] = 0.0
        self.rank[active] += delta
        out_degree = g.degrees_of(active, EdgeType.OUT)
        push = self.damping * delta
        sending = (out_degree != 0) & (push > self.tolerance)
        pushers = active[sending]
        self._sending[pushers] = push[sending] / out_degree[sending]
        g.request_self_batch(pushers, EdgeType.OUT)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        g.send_message_batch(
            batch.read_edges_concat(), self._sending[batch.vertices], batch.degrees
        )

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> None:
        self.pending[dests] += values
        g.activate_batch(dests, np.ones(dests.size, dtype=np.int64))

    # -- async priority hook (see docs/execution_modes.md) ---------------

    def residuals(self, vertices: np.ndarray) -> np.ndarray:
        """Unpropagated rank mass: the pending delta itself."""
        return np.abs(self.pending[vertices])


def pagerank(
    engine: GraphEngine,
    damping: float = 0.85,
    max_iterations: Optional[int] = DEFAULT_MAX_ITERATIONS,
    tolerance: float = 1e-6,
) -> Tuple[np.ndarray, RunResult]:
    """Run delta PageRank on every vertex; returns ``(ranks, result)``.

    Ranks are the unnormalised accumulative values; divide by their sum
    for a probability distribution.
    """
    program = PageRankProgram(engine.image.num_vertices, damping, tolerance)
    result = engine.run(program, max_iterations=max_iterations)
    # Fold not-yet-applied deltas in so the returned vector is the best
    # estimate at the iteration cap.
    ranks = program.rank + program.pending
    return ranks, result
