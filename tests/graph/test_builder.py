"""Unit tests for graph image construction."""

import numpy as np
import pytest

from repro.graph.builder import build_directed, build_undirected
from repro.graph.format import parse_edge_list
from repro.graph.types import EdgeType
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig


def small_directed():
    #   0 -> 1, 0 -> 2, 1 -> 2, 3 -> 0
    edges = np.array([[0, 1], [0, 2], [1, 2], [3, 0]])
    return build_directed(edges, 4)


class TestBuildDirected:
    def test_counts(self):
        image = small_directed()
        assert image.num_vertices == 4
        assert image.num_edges == 4
        assert image.directed

    def test_out_adjacency(self):
        image = small_directed()
        assert image.out_csr.neighbors(0).tolist() == [1, 2]
        assert image.out_csr.neighbors(1).tolist() == [2]
        assert image.out_csr.neighbors(2).tolist() == []
        assert image.out_csr.neighbors(3).tolist() == [0]

    def test_in_adjacency_is_reverse(self):
        image = small_directed()
        assert image.in_csr.neighbors(0).tolist() == [3]
        assert image.in_csr.neighbors(2).tolist() == [0, 1]

    def test_duplicates_dropped(self):
        edges = np.array([[0, 1], [0, 1], [1, 0]])
        image = build_directed(edges, 2)
        assert image.num_edges == 2

    def test_serialized_files_parse_back(self):
        image = small_directed()
        view = memoryview(image.out_bytes)
        offset, _size = image.out_index.locate(0)
        vid, neighbors = parse_edge_list(view, offset)
        assert vid == 0
        assert neighbors.tolist() == [1, 2]
        offset, _size = image.in_index.locate(2)
        vid, neighbors = parse_edge_list(memoryview(image.in_bytes), offset)
        assert vid == 2
        assert neighbors.tolist() == [0, 1]

    def test_index_sizes_match_files(self):
        image = small_directed()
        assert image.out_index.file_size == len(image.out_bytes)
        assert image.in_index.file_size == len(image.in_bytes)

    def test_storage_and_memory_accounting(self):
        image = small_directed()
        assert image.storage_bytes() == len(image.out_bytes) + len(image.in_bytes)
        assert image.index_memory_bytes() > 0

    def test_csr_and_index_accessors(self):
        image = small_directed()
        assert image.csr(EdgeType.OUT) is image.out_csr
        assert image.csr(EdgeType.IN) is image.in_csr
        assert image.index(EdgeType.OUT) is image.out_index
        with pytest.raises(ValueError):
            image.csr(EdgeType.BOTH)
        with pytest.raises(ValueError):
            image.index(EdgeType.BOTH)
        with pytest.raises(ValueError):
            image.file_bytes(EdgeType.BOTH)


class TestBuildUndirected:
    def test_symmetric_adjacency(self):
        edges = np.array([[0, 1], [1, 2]])
        image = build_undirected(edges, 3)
        assert not image.directed
        assert image.num_edges == 2
        assert image.out_csr.neighbors(0).tolist() == [1]
        assert image.out_csr.neighbors(1).tolist() == [0, 2]
        assert image.in_csr is image.out_csr

    def test_reverse_duplicates_collapse(self):
        edges = np.array([[0, 1], [1, 0]])
        image = build_undirected(edges, 2)
        assert image.num_edges == 1

    def test_self_loop_stored_once(self):
        edges = np.array([[0, 0], [0, 1]])
        image = build_undirected(edges, 2)
        assert image.out_csr.neighbors(0).tolist() == [0, 1]
        assert image.num_edges == 2

    def test_single_file(self):
        edges = np.array([[0, 1]])
        image = build_undirected(edges, 2)
        assert image.out_bytes == image.in_bytes
        assert image.storage_bytes() == len(image.out_bytes)


class TestWeights:
    def test_directed_weights_follow_csr_order(self):
        edges = np.array([[0, 2], [0, 1], [1, 0]])
        weights = np.array([2.0, 1.0, 3.0], dtype=np.float32)
        image = build_directed(edges, 3, weights=weights)
        attrs = np.frombuffer(image.attr_bytes[EdgeType.OUT], dtype="<f4")
        # CSR order for vertex 0 is [1, 2] -> weights [1.0, 2.0], then 1->0.
        assert attrs.tolist() == [1.0, 2.0, 3.0]
        assert image.attr_offsets[EdgeType.OUT].tolist() == [0, 8, 12, 12]


class TestAttachToSAFS:
    def make_safs(self):
        return SAFS(
            SSDArray(SSDArrayConfig(num_ssds=2, stripe_pages=2)),
            SAFSConfig(cache_bytes=16 * 4096),
        )

    def test_directed_creates_two_files(self):
        safs = self.make_safs()
        image = small_directed()
        image.attach_to_safs(safs)
        assert safs.open_file("graph.out-edges").size == len(image.out_bytes)
        assert safs.open_file("graph.in-edges").size == len(image.in_bytes)

    def test_undirected_creates_one_file(self):
        safs = self.make_safs()
        image = build_undirected(np.array([[0, 1]]), 2)
        image.attach_to_safs(safs)
        assert safs.file_names() == ["graph.out-edges"]

    def test_attrs_create_extra_file(self):
        safs = self.make_safs()
        image = build_directed(
            np.array([[0, 1]]), 2, weights=np.array([1.0], dtype=np.float32)
        )
        image.attach_to_safs(safs)
        assert "graph.out-attrs" in safs.file_names()


@pytest.mark.parametrize("build", [build_directed, build_undirected])
class TestInputValidation:
    EDGES = np.array([[0, 1], [1, 2]])

    @pytest.mark.parametrize(
        "weights",
        [np.ones(1), np.arange(5.0), np.ones((2, 1)), np.ones((1, 2)), np.float32(1.0)],
        ids=["short", "long", "column", "row", "scalar"],
    )
    def test_weights_need_one_entry_per_edge(self, build, weights):
        with pytest.raises(ValueError, match="one entry per edge"):
            build(self.EDGES, 3, weights=weights)

    def test_weights_per_input_edge_not_per_distinct_edge(self, build):
        edges = np.array([[0, 1], [0, 1], [1, 2]])
        with pytest.raises(ValueError, match="one entry per edge"):
            build(edges, 3, weights=np.ones(2))
        image = build(edges, 3, weights=np.ones(3))
        assert image.num_edges == 2

    @pytest.mark.parametrize(
        "edges",
        [[[0.5, 1.0]], [[0.0, np.nan]], [[np.inf, 1.0]], [[1.0, -np.inf]]],
        ids=["fraction", "nan", "inf", "-inf"],
    )
    def test_non_integral_endpoints_rejected(self, build, edges):
        with pytest.raises(ValueError, match="integers"):
            build(np.array(edges), 2)

    def test_integral_floats_build(self, build):
        image = build(self.EDGES.astype(np.float64), 3)
        assert image.out_csr.neighbors(0).tolist() == [1]
        assert image.num_edges == 2
