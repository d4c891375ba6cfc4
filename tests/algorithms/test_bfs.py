"""BFS correctness against networkx, in both modes, plus properties."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs
from repro.core.config import ExecutionMode
from repro.graph.builder import build_directed

from tests.conftest import engine_for


def reference_levels(digraph, source, n):
    levels = np.full(n, -1, dtype=np.int64)
    for v, d in nx.single_source_shortest_path_length(digraph, source).items():
        levels[v] = d
    return levels


@pytest.mark.parametrize("mode", list(ExecutionMode))
class TestBFSCorrectness:
    def test_er_graph(self, er_image, er_digraph, mode):
        levels, result = bfs(engine_for(er_image, mode=mode), source=0)
        expected = reference_levels(er_digraph, 0, er_image.num_vertices)
        assert np.array_equal(levels, expected)
        assert result.iterations >= 1

    def test_rmat_graph(self, rmat_image, rmat_digraph, mode):
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        levels, _ = bfs(engine_for(rmat_image, mode=mode), source=source)
        expected = reference_levels(rmat_digraph, source, rmat_image.num_vertices)
        assert np.array_equal(levels, expected)

    def test_isolated_source(self, mode):
        image = build_directed(np.array([[1, 2]]), 4, name="iso")
        levels, result = bfs(engine_for(image, mode=mode, range_shift=1), source=0)
        assert levels.tolist() == [0, -1, -1, -1]

    def test_unreachable_vertices_stay_minus_one(self, er_image, er_digraph, mode):
        levels, _ = bfs(engine_for(er_image, mode=mode), source=0)
        reachable = set(nx.descendants(er_digraph, 0)) | {0}
        for v in range(er_image.num_vertices):
            assert (levels[v] >= 0) == (v in reachable)


class TestBFSProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=60),
        density=st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_levels_match_networkx_on_random_digraphs(self, seed, n, density):
        rng = np.random.default_rng(seed)
        m = max(1, int(n * density))
        edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
        image = build_directed(edges, n, name=f"prop{seed}")
        digraph = nx.DiGraph()
        digraph.add_nodes_from(range(n))
        digraph.add_edges_from(map(tuple, edges.tolist()))
        source = int(rng.integers(0, n))
        levels, _ = bfs(engine_for(image, num_threads=2, range_shift=3), source=source)
        assert np.array_equal(levels, reference_levels(digraph, source, n))

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_level_monotonicity(self, seed, rmat_image):
        # Every edge spans at most one level forward from a visited vertex.
        rng = np.random.default_rng(seed)
        source = int(rng.integers(0, rmat_image.num_vertices))
        levels, _ = bfs(engine_for(rmat_image), source=source)
        indptr = rmat_image.out_csr.indptr
        indices = rmat_image.out_csr.indices
        for v in range(rmat_image.num_vertices):
            if levels[v] < 0:
                continue
            for w in indices[indptr[v] : indptr[v + 1]]:
                assert levels[w] != -1
                assert levels[w] <= levels[v] + 1
