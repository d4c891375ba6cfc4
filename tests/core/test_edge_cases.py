"""Failure injection and degenerate inputs across the whole stack."""

import numpy as np
import pytest

from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.algorithms.triangle_count import triangle_count
from repro.algorithms.wcc import wcc
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed, build_undirected
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

from tests.conftest import engine_for


class TestDegenerateGraphs:
    def test_empty_graph(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 3, name="empty")
        levels, result = bfs(engine_for(image, range_shift=1), source=0)
        assert levels.tolist() == [0, -1, -1]
        assert result.iterations == 1

    def test_single_vertex(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 1, name="one")
        levels, _ = bfs(engine_for(image, range_shift=0), source=0)
        assert levels.tolist() == [0]

    def test_single_self_loop(self):
        image = build_directed(np.array([[0, 0]]), 1, name="loop")
        levels, _ = bfs(engine_for(image, range_shift=0), source=0)
        assert levels.tolist() == [0]
        counts, _ = triangle_count(engine_for(image, range_shift=0))
        assert counts.tolist() == [0]

    def test_all_isolated_vertices(self):
        image = build_directed(np.zeros((0, 2), dtype=np.int64), 50, name="iso50")
        labels, _ = wcc(engine_for(image, range_shift=2))
        assert labels.tolist() == list(range(50))

    def test_two_vertex_cycle(self):
        image = build_directed(np.array([[0, 1], [1, 0]]), 2, name="cycle2")
        ranks, _ = pagerank(engine_for(image, range_shift=0), max_iterations=50)
        # Symmetric graph: both vertices converge to the same rank.
        assert ranks[0] == pytest.approx(ranks[1], rel=1e-3)

    def test_star_from_hub(self):
        edges = np.array([[0, i] for i in range(1, 100)])
        image = build_directed(edges, 100, name="star100")
        levels, result = bfs(engine_for(image, range_shift=3), source=0)
        assert (levels[1:] == 1).all()
        assert result.iterations == 2


class TestLargeEdgeLists:
    def test_edge_list_spanning_many_pages(self):
        # One vertex with 10K neighbors: its edge list covers ~10 pages.
        n = 10_001
        edges = np.stack(
            [np.zeros(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)],
            axis=1,
        )
        image = build_directed(edges, n, name="jumbo")
        assert image.out_index.edge_list_size(0) > 8 * 4096
        levels, result = bfs(engine_for(image, range_shift=8), source=0)
        assert int((levels >= 0).sum()) == n

    def test_max_vertex_id_at_boundary(self):
        image = build_directed(np.array([[0, 4095]]), 4096, name="bound")
        levels, _ = bfs(engine_for(image, range_shift=5), source=0)
        assert levels[4095] == 1


class TestConfigurationCorners:
    def test_single_thread_engine(self, rmat_image):
        levels_multi, _ = bfs(engine_for(rmat_image, num_threads=8), source=0)
        levels_single, _ = bfs(engine_for(rmat_image, num_threads=1), source=0)
        assert np.array_equal(levels_multi, levels_single)

    def test_range_shift_zero(self, rmat_image):
        levels_default, _ = bfs(engine_for(rmat_image), source=0)
        levels_zero, _ = bfs(engine_for(rmat_image, range_shift=0), source=0)
        assert np.array_equal(levels_default, levels_zero)

    def test_one_running_vertex_per_thread(self, rmat_image):
        levels_big, _ = bfs(engine_for(rmat_image), source=0)
        levels_tiny, _ = bfs(
            engine_for(rmat_image, max_running_vertices=1), source=0
        )
        assert np.array_equal(levels_big, levels_tiny)

    def test_cache_of_one_page(self, rmat_image):
        engine = engine_for(rmat_image, cache_kib=4)
        levels, result = bfs(engine, source=0)
        assert result.cache_hit_rate < 0.9
        reference, _ = bfs(engine_for(rmat_image), source=0)
        assert np.array_equal(levels, reference)

    def test_single_ssd_array(self, rmat_image):
        array = SSDArray(SSDArrayConfig(num_ssds=1, stripe_pages=1))
        safs = SAFS(array, SAFSConfig(cache_bytes=1 << 18), stats=array.stats)
        engine = GraphEngine(
            rmat_image,
            safs=safs,
            config=EngineConfig(num_threads=4, range_shift=5),
        )
        levels, _ = bfs(engine, source=0)
        reference, _ = bfs(engine_for(rmat_image), source=0)
        assert np.array_equal(levels, reference)


class TestReuseAndIsolation:
    def test_engine_reusable_across_runs(self, rmat_image):
        engine = engine_for(rmat_image)
        first, _ = bfs(engine, source=0)
        second, _ = bfs(engine, source=0)
        assert np.array_equal(first, second)

    def test_different_algorithms_share_one_engine(self, rmat_image):
        engine = engine_for(rmat_image)
        bfs(engine, source=0)
        labels, _ = wcc(engine)
        ranks, _ = pagerank(engine, max_iterations=5)
        assert labels.size == ranks.size == rmat_image.num_vertices

    def test_warm_cache_speeds_up_second_run(self, rmat_image):
        engine = engine_for(rmat_image, cache_kib=4096)
        _, cold = bfs(engine, source=0)
        _, warm = bfs(engine, source=0)
        assert warm.runtime <= cold.runtime
        assert warm.cache_hit_rate >= cold.cache_hit_rate

    def test_two_images_in_one_safs(self):
        a = build_directed(np.array([[0, 1]]), 2, name="ga")
        b = build_directed(np.array([[1, 0]]), 2, name="gb")
        from repro.sim.stats import StatsCollector

        stats = StatsCollector()
        safs = SAFS(stats=stats)
        config = EngineConfig(num_threads=2, range_shift=1)
        engine_a = GraphEngine(a, safs=safs, config=config)
        engine_b = GraphEngine(b, safs=safs, config=config)
        levels_a, _ = bfs(engine_a, source=0)
        levels_b, _ = bfs(engine_b, source=1)
        assert levels_a.tolist() == [0, 1]
        assert levels_b.tolist() == [1, 0]


class TestActivationRange:
    """An activation that is not a vertex id is an error at the barrier,
    as a message destination is — not a ``run(g, -1)`` on wrapped state."""

    @staticmethod
    def _ring(mode):
        ring = np.column_stack((np.arange(64), (np.arange(64) + 1) % 64))
        return engine_for(build_directed(ring, 64, name="ring"), mode=mode)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    @pytest.mark.parametrize("bad", [-1, 64, 69])
    def test_activate_rejects_a_non_vertex(self, mode, bad):
        class Stray(VertexProgram):
            def __init__(self):
                self.ran = []

            def run(self, g, vertex):
                self.ran.append(vertex)
                if vertex == 0:
                    g.activate([3, bad])

        program = Stray()
        with pytest.raises(ValueError, match=rf"activated vertex {bad} .*num_vertices=64"):
            self._ring(mode).run(program, initial_active=np.array([0]))
        assert program.ran == [0]

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_activate_batch_rejects_a_non_vertex(self, mode, bad):
        class StrayBatch(VertexProgram):
            def run_batch(self, g, vertices):
                g.request_self_batch(vertices)

            def run_on_vertices(self, g, batch):
                g.activate_batch(np.full(batch.total_edges, bad), batch.degrees)

        with pytest.raises(ValueError, match=rf"activated vertex {bad} "):
            self._ring(mode).run(StrayBatch(), initial_active=np.array([0]))

    def test_duplicates_across_chunks_make_a_sorted_unique_frontier(self):
        class Fanout(VertexProgram):
            def __init__(self):
                self.ran = []

            def run(self, g, vertex):
                self.ran.append((g.iteration, vertex))
                if g.iteration == 0:
                    g.activate([9, 3, 9])
                    g.activate([63, 3])
                    g.activate(np.zeros(0, dtype=np.int64))
                    g.activate([0, 9])

        program = Fanout()
        engine = self._ring(ExecutionMode.IN_MEMORY)
        engine.run(program, initial_active=np.array([5]))
        assert sorted(program.ran) == [(0, 5), (1, 0), (1, 3), (1, 9), (1, 63)]
        # The frontier itself, as the barrier builds it.
        engine.activations.extend(
            [np.array([9, 3, 9]), np.zeros(0, dtype=np.int64), np.array([63, 3, 0])]
        )
        frontier = engine._drain_activations()
        assert frontier.dtype == np.int64 and frontier.tolist() == [0, 3, 9, 63]
        assert engine._drain_activations().size == 0

    @pytest.mark.parametrize("app", ["bfs", "bc", "sssp"])
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_source_out_of_range_fails_alike_in_both_modes(self, app, bad):
        ring = np.column_stack((np.arange(64), (np.arange(64) + 1) % 64))
        image = build_directed(ring, 64, name="ring", weights=np.ones(64))
        run = {"bfs": bfs, "bc": betweenness_centrality, "sssp": sssp}[app]
        messages = []
        for mode in ExecutionMode:
            engine = engine_for(image, mode=mode)
            before = engine.stats.snapshot()
            with pytest.raises(ValueError, match=rf" {bad} is not a vertex id") as err:
                run(engine, bad)
            messages.append(str(err.value))
            # Raised before the run touched a clock or a counter: the same
            # engine then answers exactly as a fresh one does.
            assert engine._workers == [] and engine.stats.snapshot() == before
            got, _ = run(engine, 5)
            want, _ = run(engine_for(image, mode=mode), 5)
            assert np.array_equal(got, want)
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    @pytest.mark.parametrize("call", ["request_vertices", "request_self_batch"])
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_request_rejects_a_non_vertex(self, mode, call, bad):
        # Unchecked, a semi-external wave would read a neighbouring row of
        # the list table, another lane's, and go on silently.
        class Stray(VertexProgram):
            def run_batch(self, g, vertices):
                if call == "request_vertices":
                    g.request_vertices(int(vertices[0]), [3, bad])
                else:
                    g.request_self_batch(np.append(vertices, bad))

        engine = self._ring(mode)
        message = rf"^requested vertex {bad} is not a vertex id \(num_vertices=64\)$"
        with pytest.raises(ValueError, match=message):
            engine.run(Stray(), initial_active=np.array([0]))
        assert [(w.time, w.busy) for w in engine._workers] == [(0.0, 0.0)] * 4

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_initial_frontier_is_checked_then_sorted_unique(self, mode):
        engine = self._ring(mode)
        with pytest.raises(ValueError, match=r"initial active vertex 64 "):
            engine.run(VertexProgram(), initial_active=np.array([3, 64]))
        assert engine._workers == []

        class Record(VertexProgram):
            def __init__(self):
                self.ran = []

            def run(self, g, vertex):
                self.ran.append(vertex)

        program = Record()
        engine.run(program, initial_active=np.array([9, 3, 9, 63]))
        assert sorted(program.ran) == [3, 9, 63]
