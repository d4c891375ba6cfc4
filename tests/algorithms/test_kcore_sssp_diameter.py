"""Tests for the extension algorithms: k-core, SSSP, diameter."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.diameter import estimate_diameter
from repro.algorithms.kcore import KCoreProgram, kcore
from repro.algorithms.sssp import sssp
from repro.core.config import ExecutionMode
from repro.graph.builder import _dedup, build_directed, build_undirected

from tests.conftest import engine_for


class TestKCore:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_networkx(self, er_uimage, er_ugraph, k):
        alive, _ = kcore(engine_for(er_uimage), k)
        graph = er_ugraph.copy()
        graph.remove_edges_from(nx.selfloop_edges(graph))
        expected = set(nx.k_core(graph, k).nodes())
        assert set(np.nonzero(alive)[0].tolist()) == expected

    def test_k1_keeps_non_isolated(self):
        image = build_undirected(np.array([[0, 1]]), 4, name="kc")
        alive, _ = kcore(engine_for(image, range_shift=1), 1)
        assert alive.tolist() == [True, True, False, False]

    def test_too_large_k_empties_graph(self, er_uimage):
        alive, _ = kcore(engine_for(er_uimage), 10_000)
        assert alive.sum() == 0

    def test_directed_rejected(self, er_image):
        with pytest.raises(ValueError):
            kcore(engine_for(er_image), 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KCoreProgram(4, 0, np.zeros(4))

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        raw = rng.integers(0, n, size=(2 * n, 2), dtype=np.int64)
        edges = raw[raw[:, 0] != raw[:, 1]]
        if len(edges) == 0:
            return
        image = build_undirected(edges, n, name=f"kcprop{seed}")
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(map(tuple, edges.tolist()))
        k = int(rng.integers(1, 5))
        alive, _ = kcore(engine_for(image, num_threads=2, range_shift=3), k)
        assert set(np.nonzero(alive)[0].tolist()) == set(nx.k_core(graph, k).nodes())


class TestSSSP:
    @pytest.fixture(scope="class")
    def weighted(self, er_edges):
        edges, n = er_edges
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.5, 2.0, size=len(edges)).astype(np.float32)
        image = build_directed(edges, n, name="er-w", weights=weights)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        keys, dweights = _dedup(np.asarray(edges, dtype=np.int64), weights, n)
        src, dst = np.divmod(keys, n)
        for u, v, w in zip(src.tolist(), dst.tolist(), dweights):
            graph.add_edge(u, v, weight=float(np.float32(w)))
        return image, graph

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_matches_dijkstra(self, weighted, mode):
        image, graph = weighted
        dists, result = sssp(engine_for(image, mode=mode), source=0)
        expected = nx.single_source_dijkstra_path_length(graph, 0)
        for v in range(image.num_vertices):
            ref = expected.get(v, np.inf)
            if np.isinf(ref):
                assert np.isinf(dists[v])
            else:
                assert dists[v] == pytest.approx(ref, abs=1e-4)

    def test_source_distance_zero(self, weighted):
        image, _ = weighted
        dists, _ = sssp(engine_for(image), source=5)
        assert dists[5] == 0.0

    def test_attr_reads_show_up_in_io(self, weighted):
        image, _ = weighted
        _, result = sssp(engine_for(image, cache_kib=16), source=0)
        assert result.bytes_read > 0

    def test_unweighted_image_rejected(self, er_image):
        with pytest.raises(ValueError):
            sssp(engine_for(er_image), source=0)


class TestDiameter:
    def test_path_graph(self):
        edges = np.stack([np.arange(9), np.arange(1, 10)], axis=1)
        image = build_directed(edges, 10, name="dia-path")
        # The double sweep finds the exact diameter of a path.
        assert estimate_diameter(image, num_sweeps=4, seed=0) == 9

    def test_lower_bound_property(self, er_image, er_ugraph):
        estimate = estimate_diameter(er_image, num_sweeps=6, seed=1)
        # Estimate never exceeds the true diameter of the largest component.
        biggest = max(nx.connected_components(er_ugraph), key=len)
        true = nx.diameter(er_ugraph.subgraph(biggest))
        assert 0 < estimate <= true

    def test_undirected_image(self, er_uimage):
        assert estimate_diameter(er_uimage, num_sweeps=4) > 0

    def test_invalid_sweeps(self, er_image):
        with pytest.raises(ValueError):
            estimate_diameter(er_image, num_sweeps=0)
