"""Integration tests for the graph engine itself.

Algorithm *results* are validated in ``tests/algorithms``; here we test
engine mechanics: determinism, modes, merging disciplines, load balancing,
vertical partitioning, accounting, and the message/activation plumbing.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig, ExecutionMode, ScheduleOrder
from repro.core.engine import GraphEngine
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed
from repro.graph.types import EdgeType
from repro.algorithms.bfs import BFSProgram, bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangle_count import triangle_count
from repro.algorithms.wcc import wcc

from tests.conftest import engine_for


class CountingProgram(VertexProgram):
    """Counts entry-point invocations; requests nothing."""

    combiner = "sum"

    def __init__(self):
        self.runs = 0
        self.messages = 0

    def run(self, g, vertex):
        self.runs += 1

    def run_on_message(self, g, vertex, value):
        self.messages += 1


class EchoProgram(VertexProgram):
    """Requests its own list and records what arrives."""

    edge_type = EdgeType.OUT
    combiner = None

    def __init__(self, n):
        self.seen = {}

    def run(self, g, vertex):
        g.request_self(vertex)

    def run_on_vertex(self, g, vertex, page_vertex):
        assert page_vertex.vertex_id == vertex
        self.seen[vertex] = page_vertex.read_edges().tolist()


@pytest.fixture(scope="module")
def chain_image():
    # 0 -> 1 -> 2 -> ... -> 19
    edges = np.stack([np.arange(19), np.arange(1, 20)], axis=1)
    return build_directed(edges, 20, name="chain")


class TestBasics:
    def test_every_active_vertex_runs_once(self, er_image):
        engine = engine_for(er_image)
        program = CountingProgram()
        result = engine.run(program, max_iterations=1)
        assert program.runs == er_image.num_vertices
        assert result.iterations == 1

    def test_initial_active_subset(self, er_image):
        engine = engine_for(er_image)
        program = CountingProgram()
        engine.run(program, initial_active=np.array([3, 7, 3]), max_iterations=1)
        assert program.runs == 2  # duplicates collapse

    def test_negative_max_iterations_rejected(self, er_image):
        engine = engine_for(er_image)
        program = CountingProgram()
        with pytest.raises(ValueError, match="max_iterations"):
            engine.run(program, max_iterations=-3)
        with pytest.raises(ValueError, match="max_iterations"):
            engine.start_job(program, max_iterations=-1)
        assert program.runs == 0

    def test_terminates_with_no_activity(self, er_image):
        engine = engine_for(er_image)
        result = engine.run(CountingProgram(), initial_active=np.array([0]))
        assert result.iterations == 1

    def test_edge_lists_delivered_correctly(self, chain_image):
        engine = engine_for(chain_image)
        program = EchoProgram(20)
        engine.run(program, max_iterations=1)
        for v in range(19):
            assert program.seen[v] == [v + 1]
        assert program.seen[19] == []

    def test_in_memory_delivers_same_content(self, chain_image):
        engine = engine_for(chain_image, mode=ExecutionMode.IN_MEMORY)
        program = EchoProgram(20)
        engine.run(program, max_iterations=1)
        assert program.seen[5] == [6]


class TestDeterminism:
    def test_same_config_same_virtual_time(self, rmat_image):
        results = [bfs(engine_for(rmat_image), source=0)[1] for _ in range(2)]
        assert results[0].runtime == results[1].runtime
        assert results[0].counters == results[1].counters

    def test_levels_identical_across_modes(self, rmat_image):
        sem_levels, _ = bfs(engine_for(rmat_image), source=0)
        mem_levels, _ = bfs(
            engine_for(rmat_image, mode=ExecutionMode.IN_MEMORY), source=0
        )
        assert np.array_equal(sem_levels, mem_levels)

    def test_thread_count_does_not_change_results(self, rmat_image):
        a, _ = bfs(engine_for(rmat_image, num_threads=2), source=0)
        b, _ = bfs(engine_for(rmat_image, num_threads=16), source=0)
        assert np.array_equal(a, b)


class TestModesAndCosts:
    def test_in_memory_faster_than_semi_external(self, rmat_image):
        _, sem = bfs(engine_for(rmat_image), source=0)
        _, mem = bfs(engine_for(rmat_image, mode=ExecutionMode.IN_MEMORY), source=0)
        assert mem.runtime < sem.runtime
        assert mem.bytes_read == 0
        assert sem.bytes_read > 0

    def test_bigger_cache_not_slower(self, rmat_image):
        from repro.safs.filesystem import SAFS, SAFSConfig

        def run_with_cache(kib):
            safs = SAFS(config=SAFSConfig(cache_bytes=kib * 1024))
            engine = GraphEngine(
                rmat_image,
                safs=safs,
                config=EngineConfig(num_threads=4, range_shift=5),
            )
            _, result = wcc(engine)
            return result

        small = run_with_cache(64)
        large = run_with_cache(16 * 1024)
        assert large.runtime <= small.runtime
        assert large.cache_hit_rate >= small.cache_hit_rate

    def test_merging_reduces_io_requests(self, rmat_image):
        _, merged = wcc(engine_for(rmat_image, merge_in_engine=True))
        _, unmerged = wcc(
            engine_for(rmat_image, merge_in_engine=False, merge_in_fs=False)
        )
        assert merged.counters.get("io.dispatched") < unmerged.counters.get(
            "io.dispatched"
        )
        assert merged.runtime < unmerged.runtime

    def test_fs_merge_between_engine_merge_and_none(self, rmat_image):
        _, eng = wcc(engine_for(rmat_image, merge_in_engine=True))
        _, fsm = wcc(engine_for(rmat_image, merge_in_engine=False, merge_in_fs=True))
        _, raw = wcc(engine_for(rmat_image, merge_in_engine=False, merge_in_fs=False))
        assert eng.runtime <= fsm.runtime <= raw.runtime

    def test_random_order_slower_than_by_id(self, rmat_image):
        # The merge window is one batch of running vertices (§3.7): with
        # small batches and a small cache, random execution order scatters
        # each window over the ID space and little merging survives.
        knobs = dict(max_running_vertices=32, cache_kib=16)
        _, ordered = wcc(engine_for(rmat_image, **knobs))
        _, scrambled = wcc(
            engine_for(rmat_image, schedule_order=ScheduleOrder.RANDOM, **knobs)
        )
        assert ordered.runtime < scrambled.runtime
        # Scattered windows destroy page reuse: more device reads, fewer hits.
        assert ordered.counters.get("io.pages_fetched") < scrambled.counters.get(
            "io.pages_fetched"
        )
        assert ordered.cache_hit_rate > scrambled.cache_hit_rate


class TestLoadBalancing:
    def test_stealing_happens_on_skewed_partitions(self, rmat_image):
        # range_shift large enough that one thread owns nearly everything.
        _, result = pagerank(
            engine_for(
                rmat_image,
                num_threads=4,
                range_shift=9,
                load_balance=True,
                max_running_vertices=64,
            ),
            max_iterations=3,
        )
        assert result.counters.get("engine.stolen_vertices", 0) > 0

    def test_stealing_disabled(self, rmat_image):
        _, result = pagerank(
            engine_for(
                rmat_image,
                num_threads=4,
                range_shift=9,
                load_balance=False,
                max_running_vertices=64,
            ),
            max_iterations=3,
        )
        assert result.counters.get("engine.stolen_vertices", 0) == 0

    def test_stealing_not_slower(self, rmat_image):
        _, balanced = pagerank(
            engine_for(
                rmat_image,
                num_threads=4,
                range_shift=9,
                load_balance=True,
                max_running_vertices=64,
            ),
            max_iterations=3,
        )
        _, unbalanced = pagerank(
            engine_for(
                rmat_image,
                num_threads=4,
                range_shift=9,
                load_balance=False,
                max_running_vertices=64,
            ),
            max_iterations=3,
        )
        assert balanced.runtime <= unbalanced.runtime


class TestVerticalPartitioning:
    def test_parts_created_and_results_unchanged(self, rmat_image):
        plain, _ = triangle_count(engine_for(rmat_image))
        split, result = triangle_count(
            engine_for(
                rmat_image, vertical_part_threshold=32, vertical_part_size=16
            )
        )
        assert np.array_equal(plain, split)
        assert result.counters.get("engine.vertex_parts", 0) > 0


class TestAccounting:
    def test_result_fields_sane(self, rmat_image):
        _, result = bfs(engine_for(rmat_image), source=0)
        assert result.runtime > 0
        assert 0 < result.cpu_utilization <= 1.0
        assert 0 <= result.io_utilization <= 1.0
        assert 0 <= result.cache_hit_rate <= 1.0
        assert result.cpu_busy > 0
        assert result.memory_bytes > 0
        assert result.memory["graph_index"] == rmat_image.index_memory_bytes()

    def test_in_memory_memory_includes_edges(self, rmat_image):
        _, result = bfs(engine_for(rmat_image, mode=ExecutionMode.IN_MEMORY), source=0)
        assert result.memory["edge_lists"] > 0
        assert result.memory["page_cache"] == 0

    def test_init_time_positive(self, rmat_image):
        engine = engine_for(rmat_image)
        assert engine.simulate_init_time() > 0

    def test_bytes_read_at_most_once_with_huge_cache(self, chain_image):
        from repro.safs.filesystem import SAFS, SAFSConfig

        safs = SAFS(config=SAFSConfig(cache_bytes=1 << 24))
        engine = GraphEngine(
            chain_image, safs=safs, config=EngineConfig(num_threads=2, range_shift=3)
        )
        _, result = bfs(engine, source=0)
        # With a cache bigger than the file, each page is fetched at most once.
        file_bytes = len(chain_image.out_bytes)
        assert result.bytes_read <= max(4096, 2 * file_bytes)
