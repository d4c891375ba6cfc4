"""Betweenness centrality from a single source (§4).

The paper computes BC as a BFS followed by a back propagation (Brandes
[6]) from a single source vertex, reading both edge directions: the
forward sweep uses out-edges to count shortest paths, the backward sweep
uses in-edges to accumulate dependencies level by level.

Two vertex programs run back to back over shared state arrays:

- :class:`_ForwardProgram` — level-synchronous BFS accumulating ``sigma``
  (number of shortest source→v paths) via summed messages;
- :class:`_BackwardProgram` — processes levels in descending order; each
  vertex ``w`` sends ``(1 + delta[w]) / sigma[w]`` to the in-neighbors one
  level closer to the source, which scale it by their own ``sigma``.
"""

from typing import Tuple

import numpy as np

from repro.core.engine import GraphEngine, RunResult
from repro.core.messages import check_vertex_ids
from repro.core.vertex_program import GraphContext, VertexProgram
from repro.graph.page_vertex import PageVertex
from repro.graph.types import EdgeType


class _ForwardProgram(VertexProgram):
    """BFS that counts shortest paths (sigma)."""

    edge_type = EdgeType.OUT
    combiner = "sum"
    state_bytes_per_vertex = 12  # dist (i4) + sigma (f8)

    def __init__(self, num_vertices: int, source: int) -> None:
        check_vertex_ids(np.asarray([source]), num_vertices, "source vertex")
        self.dist = np.full(num_vertices, -1, dtype=np.int64)
        self.sigma = np.zeros(num_vertices)
        self.dist[source] = 0
        self.sigma[source] = 1.0

    def run(self, g: GraphContext, vertex: int) -> None:
        # Active vertices are exactly the frontier: freshly-assigned
        # distance, final sigma.  Expand along out-edges.
        g.request_self(vertex, EdgeType.OUT)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        neighbors = page_vertex.read_edges()
        if neighbors.size:
            g.send_message(neighbors, float(self.sigma[vertex]))

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        # All same-iteration senders sit one level above; older vertices
        # ignore the message (their shortest paths are already counted).
        if self.dist[vertex] == -1:
            self.dist[vertex] = g.iteration + 1
            self.sigma[vertex] = value
            g.activate(np.asarray([vertex]))

    # -- batched fast path: the three hooks above, a frontier at a time --

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        g.request_self_batch(vertices, EdgeType.OUT)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        g.send_message_batch(
            batch.read_edges_concat(), self.sigma[batch.vertices], batch.degrees
        )

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> None:
        first = self.dist[dests] == -1
        reached = dests[first]
        self.dist[reached] = g.iteration + 1
        self.sigma[reached] = values[first]
        g.activate_batch(reached, first)


class _BackwardProgram(VertexProgram):
    """Dependency accumulation, one BFS level per iteration, far to near."""

    edge_type = EdgeType.IN
    combiner = "sum"
    state_bytes_per_vertex = 8  # delta (f8)

    def __init__(self, dist: np.ndarray, sigma: np.ndarray, source: int) -> None:
        self.dist = dist
        self.sigma = sigma
        self.source = source
        self.delta = np.zeros(dist.size)
        self.max_level = int(dist.max()) if dist.size else 0

    def level_vertices(self, level: int) -> np.ndarray:
        return np.nonzero(self.dist == level)[0]

    def run(self, g: GraphContext, vertex: int) -> None:
        g.notify_iteration_end()
        if self.dist[vertex] <= 0:
            return  # the source accumulates nothing further
        g.request_self(vertex, EdgeType.IN)

    def run_on_vertex(self, g: GraphContext, vertex: int, page_vertex: PageVertex) -> None:
        parents = page_vertex.read_edges()
        if parents.size == 0:
            return
        # Filtering by level and the dependency arithmetic are real
        # per-edge floating-point work on top of the list parse — this is
        # why BC burns more CPU than BFS for the same I/O pattern (§5.1).
        g.charge_edges(2 * parents.size)
        # Predecessors on shortest paths: in-neighbors one level closer.
        on_path = parents[self.dist[parents] == self.dist[vertex] - 1]
        if on_path.size:
            share = (1.0 + self.delta[vertex]) / self.sigma[vertex]
            g.send_message(on_path, share)

    def run_on_message(self, g: GraphContext, vertex: int, value: float) -> None:
        self.delta[vertex] += self.sigma[vertex] * value

    # -- batched fast path: the three hooks above, a level at a time -----

    def run_batch(self, g: GraphContext, vertices: np.ndarray) -> None:
        g.notify_iteration_end()
        g.request_self_batch(vertices[self.dist[vertices] > 0], EdgeType.IN)

    def run_on_vertices(self, g: GraphContext, batch) -> None:
        parents = batch.read_edges_concat()
        g.charge_edges_batch(2 * batch.degrees)
        # One filter over the whole wave: every list keeps the parents one
        # level closer to the source than its owner.
        on_path = self.dist[parents] == batch.repeat(self.dist[batch.vertices] - 1)
        share = (1.0 + self.delta[batch.vertices]) / self.sigma[batch.vertices]
        lists = batch.repeat(np.arange(batch.num_lists))[on_path]
        g.send_message_batch(
            parents[on_path], share, np.bincount(lists, minlength=batch.num_lists)
        )

    def run_on_messages(self, g: GraphContext, dests: np.ndarray, values: np.ndarray) -> None:
        self.delta[dests] += self.sigma[dests] * values

    def run_on_iteration_end(self, g: GraphContext) -> None:
        next_level = self.max_level - g.iteration - 1
        if next_level > 0:
            g.activate(self.level_vertices(next_level))


#: Public alias: the forward phase is the program users parameterise.
BetweennessCentralityProgram = _ForwardProgram


def betweenness_centrality(
    engine: GraphEngine, source: int = 0
) -> Tuple[np.ndarray, RunResult]:
    """Single-source Brandes dependencies ``delta_source(v)``.

    Summing this over all sources yields exact betweenness centrality;
    the paper (and this reproduction) evaluates one source.
    """
    forward = _ForwardProgram(engine.image.num_vertices, source)
    fwd_result = engine.run(forward, initial_active=np.asarray([source]))
    backward = _BackwardProgram(forward.dist, forward.sigma, source)
    start = backward.level_vertices(backward.max_level)
    if backward.max_level > 0 and start.size:
        bwd_result = engine.run(backward, initial_active=start)
        result = merge_results(fwd_result, bwd_result)
    else:
        result = fwd_result
    # Brandes accumulates a dependency at the source too, but betweenness
    # excludes endpoints: the source's own score is conventionally zero.
    backward.delta[source] = 0.0
    return backward.delta, result


def merge_results(first: RunResult, second: RunResult) -> RunResult:
    """Combine two phases of one algorithm into a single report."""
    runtime = first.runtime + second.runtime
    busy = first.cpu_busy + second.cpu_busy
    bytes_read = first.bytes_read + second.bytes_read
    hits = first.counters.get("cache.hits", 0) + second.counters.get("cache.hits", 0)
    misses = first.counters.get("cache.misses", 0) + second.counters.get(
        "cache.misses", 0
    )
    counters = dict(first.counters)
    for name, value in second.counters.items():
        counters[name] = counters.get(name, 0.0) + value
    memory = dict(first.memory)
    for name, value in second.memory.items():
        memory[name] = max(memory.get(name, 0.0), value)
    return RunResult(
        runtime=runtime,
        iterations=first.iterations + second.iterations,
        cpu_busy=busy,
        cpu_utilization=(
            (first.cpu_utilization * first.runtime + second.cpu_utilization * second.runtime)
            / runtime
            if runtime
            else 0.0
        ),
        bytes_read=bytes_read,
        io_throughput=bytes_read / runtime if runtime else 0.0,
        io_utilization=(
            (first.io_utilization * first.runtime + second.io_utilization * second.runtime)
            / runtime
            if runtime
            else 0.0
        ),
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        memory=memory,
        counters=counters,
    )
