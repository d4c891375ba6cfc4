"""Tests for the extension algorithms: SSSP and diameter."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.diameter import estimate_diameter
from repro.algorithms.sssp import sssp
from repro.core.config import ExecutionMode
from repro.graph.builder import _dedup, build_directed

from tests.conftest import engine_for


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
