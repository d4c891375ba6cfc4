"""Tests for the GraphContext API surface and the in-memory edge store."""

import numpy as np
import pytest

from repro.algorithms.bfs import BFSProgram, DirectionOptimizingBFSProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.core.config import ExecutionMode
from repro.core.engine import JobCancelled
from repro.core.memory_mode import InMemoryEdgeStore
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed
from repro.graph.types import EdgeType

from tests.conftest import engine_for


@pytest.fixture(scope="module")
def image():
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 0], [3, 0]])
    weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=np.float32)
    return build_directed(edges, 4, name="ctx", weights=weights)


class Probe(VertexProgram):
    """Records everything the context hands back."""

    combiner = "sum"

    def __init__(self):
        self.observations = {}
        self.views = []

    def run(self, g, vertex):
        self.observations[vertex] = {
            "out": g.degree(vertex, EdgeType.OUT),
            "in": g.degree(vertex, EdgeType.IN),
            "n": g.num_vertices,
            "iteration": g.iteration,
        }
        g.request_self(vertex, EdgeType.BOTH)

    def run_on_vertex(self, g, vertex, page_vertex):
        self.views.append((vertex, page_vertex.edge_type, page_vertex.num_edges))


class TestGraphContext:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_degree_and_metadata(self, image, mode):
        engine = engine_for(image, mode=mode, range_shift=1)
        probe = Probe()
        engine.run(probe, max_iterations=1)
        assert probe.observations[0] == {"out": 2, "in": 2, "n": 4, "iteration": 0}
        assert probe.observations[3] == {"out": 1, "in": 0, "n": 4, "iteration": 0}

    def test_both_edge_type_delivers_two_views(self, image):
        engine = engine_for(image, range_shift=1)
        probe = Probe()
        engine.run(probe, max_iterations=1)
        for vertex in range(4):
            types = {t for v, t, _ in probe.views if v == vertex}
            assert types == {EdgeType.OUT, EdgeType.IN}

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_zero_degree_vertex_gets_empty_attrs(self, mode):
        # Vertex 2 has no out-edges, so its attribute block is empty: it
        # must still be delivered *with* attributes, in both modes.
        image = build_directed(
            np.array([[0, 1], [1, 0]]),
            3,
            name="ctx-iso",
            weights=np.array([1.0, 2.0], dtype=np.float32),
        )
        seen = {}

        class Weighted(VertexProgram):
            def run(self, g, vertex):
                g.request_vertices(vertex, [vertex], EdgeType.OUT, with_attrs=True)

            def run_on_vertex(self, g, vertex, page_vertex):
                assert page_vertex.has_attrs
                attrs = page_vertex.read_edge_attrs()
                seen[vertex] = (attrs.dtype.str, attrs.tolist())

        engine_for(image, mode=mode, range_shift=1).run(Weighted(), max_iterations=1)
        assert seen == {0: ("<f4", [1.0]), 1: ("<f4", [2.0]), 2: ("<f4", [])}

    def test_degrees_of_vectorised(self, image):
        engine = engine_for(image, range_shift=1)

        class Vectorised(VertexProgram):
            def run(self, g, vertex):
                if vertex == 0:
                    out = g.degrees_of(np.array([0, 1, 2, 3]), EdgeType.OUT)
                    assert out.tolist() == [2, 1, 1, 1]
                    inc = g.degrees_of(np.array([0, 1, 2, 3]), EdgeType.IN)
                    assert inc.tolist() == [2, 1, 2, 0]

        engine.run(Vectorised(), initial_active=np.array([0]), max_iterations=1)

    def test_charge_edges_increases_runtime(self, image):
        class Charger(VertexProgram):
            def __init__(self, extra):
                self.extra = extra

            def run(self, g, vertex):
                g.request_self(vertex, EdgeType.OUT)

            def run_on_vertex(self, g, vertex, page_vertex):
                g.charge_edges(self.extra)

        engine = engine_for(image, range_shift=1)
        cheap = engine.run(Charger(0), max_iterations=1)
        engine = engine_for(image, range_shift=1)
        expensive = engine.run(Charger(100_000), max_iterations=1)
        assert expensive.runtime > cheap.runtime

    def test_iteration_end_requires_notification(self, image):
        calls = []

        class Silent(VertexProgram):
            def run_on_iteration_end(self, g):
                calls.append("end")

        engine = engine_for(image, range_shift=1)
        engine.run(Silent(), max_iterations=1)
        assert calls == []

        class Notifying(Silent):
            def run(self, g, vertex):
                g.notify_iteration_end()

        engine = engine_for(image, range_shift=1)
        engine.run(Notifying(), max_iterations=1)
        assert calls == ["end"]


class _SelfRequesting(VertexProgram):
    """Requests every vertex's out-list; subclasses supply ``run_on_vertices``."""

    def run_batch(self, g, vertices):
        g.request_self_batch(vertices, EdgeType.OUT)


class TestBatchHookGuards:
    """``_deliver_batch`` refuses reports it could not replay exactly."""

    def _run(self, image, hook):
        program = type("Reporting", (_SelfRequesting,), {"run_on_vertices": hook})()
        engine = engine_for(image, range_shift=1)
        engine.run(program, max_iterations=1)
        return engine

    def test_activate_batch_replays_the_scalar_charges(self, image):
        class Scalar(VertexProgram):
            def run(self, g, vertex):
                g.request_self(vertex, EdgeType.OUT)

            def run_on_vertex(self, g, vertex, page_vertex):
                g.charge_edges(3)
                g.activate(page_vertex.read_edges())

        def hook(self, g, batch):
            g.charge_edges_batch(np.full(batch.num_lists, 3))
            g.activate_batch(batch.read_edges_concat(), batch.degrees)

        scalar = engine_for(image, range_shift=1)
        expected = scalar.run(Scalar(), max_iterations=1)
        batched = self._run(image, hook)
        assert [(w.time, w.busy) for w in batched._workers] == [
            (w.time, w.busy) for w in scalar._workers
        ]
        assert expected.counters["msg.activations"] == 5

    def test_activation_counts_must_match_the_lists(self, image):
        def hook(self, g, batch):
            g.activate_batch(batch.read_edges_concat(), np.append(batch.degrees, 0))

        with pytest.raises(ValueError, match="activate_batch counts must have one entry"):
            self._run(image, hook)

    def test_extra_edge_counts_must_match_the_lists(self, image):
        def hook(self, g, batch):
            g.charge_edges_batch(np.ones(batch.num_lists + 1))

        with pytest.raises(ValueError, match="charge_edges_batch counts must have one entry"):
            self._run(image, hook)

    def test_activation_counts_must_sum_to_the_vertices(self, image):
        def hook(self, g, batch):
            g.activate_batch(batch.read_edges_concat(), np.zeros(batch.num_lists))

        with pytest.raises(ValueError, match="counts sum to 0"):
            self._run(image, hook)

    def test_one_multicast_slot_per_call(self, image):
        def hook(self, g, batch):
            edges = batch.read_edges_concat()
            g.send_message_batch(edges, np.ones(batch.num_lists), batch.degrees)
            g.activate_batch(edges, batch.degrees)

        with pytest.raises(ValueError, match="not both"):
            self._run(image, hook)

    def test_abort_clears_the_slots(self, image):
        # An abort between a hook and its replay must not leak counts
        # into the next job on the reused engine.
        engine = engine_for(image, range_shift=1)
        engine.program = _SelfRequesting()
        engine._ctx.activate_batch([1, 2], [2])
        engine._ctx.charge_edges_batch([4])
        engine._abort_run(JobCancelled("test", 0.0), engine.stats.snapshot(), 0)
        assert engine._take_batch_slots() == (None, None, None)
        assert engine._activations == []


class TestHookTwins:
    """A redefined scalar hook drops the batch twin it would inherit."""

    def test_overriding_run_drops_run_batch(self):
        class Tweaked(PageRankProgram):
            def run(self, g, vertex):
                super().run(g, vertex)

        assert Tweaked.run_batch is None
        assert Tweaked.run_on_vertices is PageRankProgram.run_on_vertices
        assert Tweaked.run_on_messages is PageRankProgram.run_on_messages

    def test_defining_both_keeps_the_twin(self):
        class Both(PageRankProgram):
            def run_on_message(self, g, vertex, value):
                pass

            def run_on_messages(self, g, dests, values):
                return np.zeros(dests.size, dtype=bool)

        assert Both.run_on_messages is not None
        assert Both.run_batch is PageRankProgram.run_batch

    def test_direction_optimizing_bfs_keeps_its_scalar_hooks(self):
        assert BFSProgram.run_batch is not None
        assert DirectionOptimizingBFSProgram.run_batch is None
        assert DirectionOptimizingBFSProgram.run_on_vertices is None


class TestInMemoryEdgeStore:
    def test_fetch_directions(self, image):
        store = InMemoryEdgeStore(image)
        out = store.fetch(0, EdgeType.OUT)
        assert out.read_edges().tolist() == [1, 2]
        inc = store.fetch(0, EdgeType.IN)
        assert inc.read_edges().tolist() == [2, 3]

    def test_both_rejected(self, image):
        with pytest.raises(ValueError):
            InMemoryEdgeStore(image).fetch(0, EdgeType.BOTH)

    def test_attrs(self, image):
        store = InMemoryEdgeStore(image)
        view = store.fetch(0, EdgeType.OUT, with_attrs=True)
        assert view.read_edge_attrs().tolist() == [1.0, 2.0]

    def test_attrs_missing_direction(self, image):
        store = InMemoryEdgeStore(image)
        with pytest.raises(ValueError):
            store.fetch(0, EdgeType.IN, with_attrs=True)

    def test_memory_accounting(self, image):
        store = InMemoryEdgeStore(image)
        # Both directions' indptr + indices arrays.
        expected = (
            image.out_csr.indptr.nbytes
            + image.out_csr.indices.nbytes
            + image.in_csr.indptr.nbytes
            + image.in_csr.indices.nbytes
        )
        assert store.memory_bytes() == expected
