"""Tests for the GraphContext API surface and in-memory edge-list accounting."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import BFSProgram, DirectionOptimizingBFSProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.core.config import ExecutionMode
from repro.core.engine import JobCancelled
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed, build_undirected
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import rmat_graph
from repro.graph.page_vertex import DIRECTIONS
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

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_batch_carries_what_each_list_needs(self, image, mode):
        # A wave mixing directions, foreign lists and attribute pairs: the
        # batch columns describe each list as its PageVertex does.
        def record(seen, vertex, owner, direction, edges, attrs):
            seen.append((vertex, owner, direction, edges.tolist(), attrs))

        class Mixed(VertexProgram):
            def __init__(self):
                self.seen = []

            def run(self, g, vertex):
                g.request_vertices(vertex, [vertex], EdgeType.OUT, with_attrs=True)
                g.request_vertices(vertex, [(vertex + 1) % 4], EdgeType.IN)

            def run_on_vertex(self, g, vertex, page_vertex):
                attrs = page_vertex.read_edge_attrs().tolist() if page_vertex.has_attrs else None
                record(self.seen, vertex, page_vertex.vertex_id, page_vertex.edge_type,
                       page_vertex.read_edges(), attrs)

        class MixedBatch(Mixed):
            def run_on_vertices(self, g, batch):
                ends = np.cumsum(batch.degrees)
                edges, attrs = batch.read_edges_concat(), batch.read_edge_attrs_concat()
                for i in range(batch.num_lists):
                    span = slice(ends[i] - batch.degrees[i], ends[i])
                    record(self.seen, batch.vertices[i], batch.owners[i],
                           DIRECTIONS[batch.directions[i]], edges[span],
                           attrs[span].tolist() if batch.has_attrs[i] else None)

        runs = []
        for program in (Mixed(), MixedBatch()):
            engine_for(image, mode=mode, range_shift=1).run(program, max_iterations=1)
            runs.append(program.seen)
        assert runs[0] == runs[1]
        assert (0, 0, EdgeType.OUT, [1, 2], [1.0, 2.0]) in runs[0]
        assert (0, 1, EdgeType.IN, [0], None) in runs[0]

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


def _clocks(engine):
    return [(w.time, w.busy) for w in engine._workers]


class TestBatchHookGuards:
    """The batch calls refuse reports the replay could not charge exactly."""

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
        assert _clocks(batched) == _clocks(scalar)
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

    def test_sends_and_activations_mix_in_one_call(self, image):
        class Scalar(VertexProgram):
            def run(self, g, vertex):
                g.request_self(vertex, EdgeType.OUT)

            def run_on_vertex(self, g, vertex, page_vertex):
                g.send_message(page_vertex.read_edges(), 1.0)
                g.activate(page_vertex.read_edges())

        def hook(self, g, batch):
            edges = batch.read_edges_concat()
            g.send_message_batch(edges, np.ones(batch.num_lists), batch.degrees)
            g.activate_batch(edges, batch.degrees)

        scalar = engine_for(image, range_shift=1)
        expected = scalar.run(Scalar(), max_iterations=1)
        batched = self._run(image, hook)
        assert _clocks(batched) == _clocks(scalar)
        assert expected.counters["msg.sent"] == expected.counters["msg.activations"] == 5

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, batch: g.send_message(batch.read_edges_concat(), 1.0),
            lambda g, batch: g.activate(batch.read_edges_concat()),
            lambda g, batch: g.charge_edges(3),
        ],
        ids=["send_message", "activate", "charge_edges"],
    )
    def test_a_scalar_call_in_a_batch_hook_names_its_twin(self, image, call, request):
        # Such a call has no item to be charged to: it would be charged
        # out of order or not at all.
        name = request.node.callspec.id
        with pytest.raises(ValueError, match=rf"g\.{name} .* g\.{name}_batch"):
            self._run(image, lambda self, g, batch: call(g, batch))

    def test_a_batch_call_in_a_scalar_hook_names_its_twin(self, image):
        class Scalar(VertexProgram):
            def run(self, g, vertex):
                g.activate_batch([vertex], [1])

        with pytest.raises(ValueError, match=r"g\.activate_batch .* g\.activate$"):
            engine_for(image, range_shift=1).run(Scalar(), max_iterations=1)

    def test_charge_edges_outside_a_wave_is_refused(self, image):
        class Charging(VertexProgram):
            def run(self, g, vertex):
                g.charge_edges(1)

        with pytest.raises(ValueError, match="delivered edge list"):
            engine_for(image, range_shift=1).run(Charging(), max_iterations=1)

    def test_abort_clears_the_slots(self, image):
        # An abort between a hook and its replay must not leak charges
        # into the next job on the reused engine.
        engine = engine_for(image, range_shift=1)
        engine.program = _SelfRequesting()
        engine.charges.begin(1)
        engine._ctx.activate_batch([1, 2], [2])
        engine._ctx.notify_iteration_end()
        engine._abort_run(JobCancelled("test", 0.0), engine.stats.snapshot())
        charges = engine.charges
        assert charges._items == charges._charges == charges._columns == []
        assert engine.activations == []
        assert not engine.iteration_end_requested


class _Scripted(VertexProgram):
    """Makes the drawn ``script`` of context calls on every delivered list."""

    combiner = "sum"

    def __init__(self, script, edge_type):
        self.script = script
        self.edge_type = edge_type

    def run(self, g, vertex):
        g.request_self(vertex)

    def run_on_vertex(self, g, vertex, page_vertex):
        edges = page_vertex.read_edges()
        owner = page_vertex.vertex_id
        for op in self.script:
            if op == "send":
                g.send_message(edges, float(owner % 7))
            elif op == "activate":
                g.activate(edges[::2])
            elif op == "edges":
                g.charge_edges(2 * edges.size + 1)
            elif owner == vertex and g.iteration == 0:  # "request"
                g.request_vertices(vertex, edges[edges != vertex][:2])


class _ScriptedBatch(_Scripted):
    """The same charged calls, in the same order, through the batch
    methods; requests are free but order the next wave, so each list's
    go out together, list after list."""

    def run_on_vertices(self, g, batch):
        edges, degrees = batch.read_edges_concat(), batch.degrees
        starts = np.cumsum(degrees) - degrees
        even = (np.arange(edges.size) - batch.repeat(starts)) % 2 == 0
        for op in self.script:
            if op == "send":
                g.send_message_batch(edges, (batch.owners % 7).astype(float), degrees)
            elif op == "activate":
                g.activate_batch(edges[even], (degrees + 1) // 2)
            elif op == "edges":
                g.charge_edges_batch(2 * degrees + 1)
        if g.iteration == 0:
            for i in np.flatnonzero(batch.owners == batch.vertices).tolist():
                vertex = int(batch.vertices[i])
                mine = edges[starts[i] : starts[i] + degrees[i]]
                for _ in range(self.script.count("request")):
                    g.request_vertices(vertex, mine[mine != vertex][:2])


@lru_cache(maxsize=None)
def _script_image(fmt):
    edges, n = rmat_graph(6, edge_factor=4, seed=3)
    return build_directed(edges, n, name=f"script-{fmt}", fmt=fmt)


@given(
    script=st.lists(st.sampled_from(["send", "activate", "edges", "request"]), max_size=5),
    edge_type=st.sampled_from([EdgeType.OUT, EdgeType.BOTH]),
)
@settings(max_examples=20, deadline=None)
def test_batch_calls_replay_the_scalar_charges(script, edge_type):
    for fmt in (FORMAT_V1, FORMAT_V2):
        for mode in ExecutionMode:
            runs = []
            for program in (_Scripted(script, edge_type), _ScriptedBatch(script, edge_type)):
                engine = engine_for(_script_image(fmt), mode=mode, range_shift=2)
                result = engine.run(program, max_iterations=3)
                runs.append((result.runtime, result.counters, _clocks(engine)))
            assert runs[0] == runs[1], (fmt, mode)


class TestHookTwins:
    """A redefined scalar hook gets the default batch twin back, not the
    one it would inherit."""

    def test_overriding_run_drops_run_batch(self):
        class Tweaked(PageRankProgram):
            def run(self, g, vertex):
                super().run(g, vertex)

        assert Tweaked.run_batch is VertexProgram.run_batch
        assert Tweaked.run_on_vertices is PageRankProgram.run_on_vertices
        assert Tweaked.run_on_messages is PageRankProgram.run_on_messages

    def test_defining_both_keeps_the_twin(self):
        class Both(PageRankProgram):
            def run_on_message(self, g, vertex, value):
                pass

            def run_on_messages(self, g, dests, values):
                pass

        assert Both.run_on_messages is not VertexProgram.run_on_messages
        assert Both.run_batch is PageRankProgram.run_batch

    def test_direction_optimizing_bfs_keeps_its_scalar_hooks(self):
        assert BFSProgram.run_batch is not VertexProgram.run_batch
        assert DirectionOptimizingBFSProgram.run_batch is VertexProgram.run_batch
        assert DirectionOptimizingBFSProgram.run_on_vertices is VertexProgram.run_on_vertices


class TestInMemoryEdgeLists:
    """An in-memory run's ``memory["edge_lists"]``: the image's neighbor
    arrays and list starts, counted once however many runs read them."""

    def test_memory_accounting(self, image):
        result = engine_for(image, mode=ExecutionMode.IN_MEMORY).run(Probe(), max_iterations=1)
        # Both directions' indptr + indices arrays.
        expected = (
            image.out_csr.indptr.nbytes
            + image.out_csr.indices.nbytes
            + image.in_csr.indptr.nbytes
            + image.in_csr.indices.nbytes
        )
        assert result.memory["edge_lists"] == expected

    def test_undirected_counts_one_copy(self):
        edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3], [3, 3]])
        image = build_undirected(edges, 4, name="ctx-u")
        result = engine_for(image, mode=ExecutionMode.IN_MEMORY).run(Probe(), max_iterations=1)
        # Both directions are one CSR: 9 neighbor ids (the loop once), 5 list starts.
        assert image.in_csr is image.out_csr
        assert result.memory["edge_lists"] == 9 * 4 + 5 * 8
