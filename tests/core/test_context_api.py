"""Tests for the GraphContext API surface and the in-memory edge store."""

import numpy as np
import pytest

from repro.core.config import ExecutionMode
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
