"""Scan statistics against brute force, in both modes."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs
from repro.algorithms.scan_statistics import ScanStatisticsProgram, scan_statistics
from repro.core.config import ExecutionMode, ScheduleOrder
from repro.graph.builder import build_directed, build_undirected

from tests.conftest import engine_for


def brute_force(graph):
    best, best_vertex = -1, -1
    for v in graph.nodes():
        neighborhood = set(graph.neighbors(v)) - {v}
        among = sum(
            1
            for a in neighborhood
            for b in graph.neighbors(a)
            if b in neighborhood and b > a
        )
        statistic = len(neighborhood) + among
        if statistic > best:
            best, best_vertex = statistic, v
    return best, best_vertex


@pytest.mark.parametrize("mode", list(ExecutionMode))
class TestScanCorrectness:
    def test_er_directed(self, er_image, er_ugraph, mode):
        max_scan, argmax, result = scan_statistics(
            engine_for(er_image, mode=mode, schedule_order=ScheduleOrder.CUSTOM)
        )
        expected, _ = brute_force(er_ugraph)
        assert max_scan == expected

    def test_er_undirected(self, er_uimage, er_ugraph, mode):
        max_scan, _, _ = scan_statistics(
            engine_for(er_uimage, mode=mode, schedule_order=ScheduleOrder.CUSTOM)
        )
        expected, _ = brute_force(er_ugraph)
        assert max_scan == expected


class TestScanBehaviour:
    def test_pruning_skips_vertices_on_skewed_graphs(self, rmat_image, rmat_digraph):
        engine = engine_for(rmat_image, schedule_order=ScheduleOrder.CUSTOM)
        max_scan, argmax, result = scan_statistics(engine)
        expected, _ = brute_force(rmat_digraph.to_undirected())
        assert max_scan == expected
        # The paper's optimisation: most vertices never compute.
        assert engine.program.pruned > 0 if hasattr(engine, "program") else True

    def test_pruned_count_exposed(self, rmat_image):
        engine = engine_for(rmat_image, schedule_order=ScheduleOrder.CUSTOM)
        image = engine.image
        program = ScanStatisticsProgram(image.num_vertices, image.directed)
        degrees = image.out_csr.degrees() + image.in_csr.degrees()
        program.attach_degrees(degrees.astype(np.int64))
        engine.run(program)
        assert program.pruned > 0
        assert program.pruned + np.count_nonzero(program.scan >= 0) == (
            image.num_vertices
        )

    def test_argmax_achieves_max(self, er_image, er_ugraph):
        max_scan, argmax, _ = scan_statistics(
            engine_for(er_image, schedule_order=ScheduleOrder.CUSTOM)
        )
        neighborhood = set(er_ugraph.neighbors(argmax)) - {argmax}
        among = sum(
            1
            for a in neighborhood
            for b in er_ugraph.neighbors(a)
            if b in neighborhood and b > a
        )
        assert len(neighborhood) + among == max_scan

    def test_star_graph(self):
        edges = np.array([[0, i] for i in range(1, 8)])
        image = build_undirected(edges, 8, name="ss-star")
        max_scan, argmax, _ = scan_statistics(engine_for(image, range_shift=2))
        assert max_scan == 7
        assert argmax == 0

    def test_helper_forces_custom_order(self, er_image):
        engine = engine_for(er_image)  # BY_ID config
        max_scan, argmax, result = scan_statistics(engine)
        custom = scan_statistics(
            engine_for(er_image, schedule_order=ScheduleOrder.CUSTOM)
        )
        assert (max_scan, argmax, result.runtime) == (
            custom[0], custom[1], custom[2].runtime
        )
        # ... for the run only: the caller's config comes back.
        assert engine.config.schedule_order is ScheduleOrder.BY_ID

    def test_engine_runs_as_configured_after_the_helper(self, rmat_image):
        # In memory, so no page cache warmed by the scan reaches the BFS.
        engine = engine_for(rmat_image, mode=ExecutionMode.IN_MEMORY)
        scan_statistics(engine)
        levels, result = bfs(engine, 0)
        fresh_levels, fresh = bfs(
            engine_for(rmat_image, mode=ExecutionMode.IN_MEMORY), 0
        )
        assert np.array_equal(levels, fresh_levels)
        assert result.runtime == fresh.runtime
        assert result.counters == fresh.counters

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=12, deadline=None)
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        edges = rng.integers(0, n, size=(2 * n, 2), dtype=np.int64)
        image = build_directed(edges, n, name=f"ssprop{seed}")
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((int(u), int(v)) for u, v in edges if u != v)
        max_scan, _, _ = scan_statistics(engine_for(image, num_threads=2, range_shift=3))
        expected, _ = brute_force(graph)
        assert max_scan == expected
