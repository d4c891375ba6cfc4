"""Community detection by label propagation (extension).

§3.4 argues FlashGraph's interface is flexible enough for algorithms like
Louvain clustering whose communication is not limited to direct
neighbors.  This module implements the label-propagation community
detection of Raghavan et al. — the standard scalable baseline Louvain
implementations start from — as a vertex program, plus a modularity
scorer to evaluate the partition it finds.

Semi-synchronous variant: each iteration every active vertex adopts the
label carried by the *plurality* of its neighbors (ties break toward the
smaller label, which also guarantees convergence instead of 2-cycles).
"""

from typing import Dict, Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.builder import GraphImage
from repro.graph.format import run_starts
from repro.graph.page_vertex import PageVertex
from repro.graph.sets import union_segments
from repro.graph.types import EdgeType


class LabelPropagationProgram(VertexProgram):
    """Plurality-label propagation over the undirected projection.

    Messages carry neighbor labels; because plurality needs the full
    multiset, this program keeps per-vertex tallies instead of a scalar
    combiner — exercising the ``combiner=None`` path of the engine.
    """

    combiner = None
    state_bytes_per_vertex = 8

    def __init__(self, num_vertices: int, directed: bool, max_rounds: int = 20) -> None:
        if max_rounds < 1:
            raise ValueError("need at least one round")
        self.directed = directed
        self.edge_type = EdgeType.BOTH if directed else EdgeType.OUT
        self.labels = np.arange(num_vertices, dtype=np.int64)
        self.max_rounds = max_rounds
        self._tallies: Dict[int, Dict[int, int]] = {}

    def run(self, g: GraphContext, vertex: int) -> None:
        if g.iteration >= self.max_rounds:
            return
        g.request_self(vertex, self.edge_type)
        g.notify_iteration_end()

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        neighbors = page_vertex.read_edges()
        if neighbors.size:
            g.send_message(neighbors, float(self.labels[vertex]))

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        tally = self._tallies.setdefault(vertex, {})
        label = int(value)
        tally[label] = tally.get(label, 0) + 1

    def run_on_iteration_end(self, g: GraphContext) -> None:
        changed = []
        for vertex, tally in self._tallies.items():
            # Plurality label; ties break to the smallest label so the
            # process is deterministic and cannot oscillate forever.
            best = min(
                tally, key=lambda label: (-tally[label], label)
            )
            if best != self.labels[vertex]:
                self.labels[vertex] = best
                changed.append(vertex)
        self._tallies.clear()
        if changed and g.iteration + 1 < self.max_rounds:
            # A changed vertex and its neighborhood must reconsider.
            g.activate(np.asarray(changed, dtype=np.int64))

    def num_communities(self) -> int:
        return int(np.unique(self.labels).size)


def label_propagation(
    engine: GraphEngine, max_rounds: int = 20
) -> Tuple[np.ndarray, RunResult]:
    """Community labels for every vertex (plurality label propagation)."""
    image = engine.image
    program = LabelPropagationProgram(image.num_vertices, image.directed, max_rounds)
    result = engine.run(program, max_iterations=max_rounds)
    return program.labels, result


def modularity(image: GraphImage, labels: np.ndarray) -> float:
    """Newman modularity of a labelling, on the undirected projection.

    Q = (1/2m) * sum_ij [A_ij - k_i k_j / 2m] * delta(c_i, c_j)
    """
    labels = np.asarray(labels)
    if labels.size != image.num_vertices:
        raise ValueError("one label per vertex is required")
    # Each undirected edge appears twice in the projection, once per end.
    csr = union_segments(image)
    m = csr.num_edges // 2
    if m == 0:
        return 0.0
    degrees = csr.degrees()
    rows = np.repeat(np.arange(image.num_vertices), degrees)
    internal = int(np.count_nonzero(labels[rows] == labels[csr.indices])) // 2
    # Sum of (community degree)^2: sort the labels, reduce each run.
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(run_starts(labels[order]))
    community_degree = np.add.reduceat(degrees[order], starts).astype(np.float64)
    expected = float((community_degree**2).sum()) / (4.0 * m * m)
    return internal / m - expected
