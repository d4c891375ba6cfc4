"""The sort-reduce builder against the five-sort reference builder.

``build_directed``, ``build_undirected``, ``adjacency_from_edges`` and
``_dedup`` (its keys decoded) must return exactly what
``reference_builder`` returns: the same arrays with the same dtypes, the
same file bytes, the same attributes, on random graphs with duplicates,
self-loops, isolated vertices, reversed pairs and empty edge arrays.
Out-of-range endpoints raise ``ValueError`` in every entry point, as
they do in the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import _dedup, build_directed, build_undirected
from repro.graph.format import adjacency_from_edges, key_dtype
from repro.graph.types import EdgeType
from tests.graph.reference_builder import (
    reference_adjacency,
    reference_build_directed,
    reference_build_undirected,
    reference_dedup,
)


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    """``(edges, n, weights)``: small ``n`` forces duplicates and loops;
    a drawn share of the edges repeats reversed, and every edge carries
    a distinct weight so "first weight wins" is observable."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Endpoints from a prefix of the ids leave the rest isolated.
    used = draw(st.integers(1, n))
    edges = rng.integers(0, used, size=(m, 2), dtype=np.int64)
    flipped = edges[rng.random(m) < draw(st.floats(0.0, 1.0))][:, ::-1]
    edges = np.concatenate([edges, flipped])
    weights = rng.permutation(edges.shape[0]).astype(np.float32) + 0.5
    return edges, n, weights


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_image(image, want: dict) -> None:
    for direction, csr, data, index in (
        ("out", image.out_csr, image.out_bytes, image.out_index),
        ("in", image.in_csr, image.in_bytes, image.in_index),
    ):
        _assert_same(csr.indptr, want[direction]["indptr"])
        _assert_same(csr.indices, want[direction]["indices"])
        assert data == want[direction]["bytes"]
        assert index.file_size == want[direction]["file_size"]
    assert image.edge_count == want["edge_count"]
    if "attr_bytes" in want:
        assert image.attr_bytes[EdgeType.OUT] == want["attr_bytes"]
        _assert_same(image.attr_offsets[EdgeType.OUT], want["attr_offsets"])
    else:
        assert image.attr_bytes == {}
        assert image.attr_offsets == {}


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(graph=edge_lists(), fmt=st.sampled_from(["v1", "v2"]), weighted=st.booleans())
    def test_build_directed(self, graph, fmt, weighted):
        edges, n, weights = graph
        weights = weights if weighted else None
        image = build_directed(edges, n, weights=weights, fmt=fmt)
        _assert_image(image, reference_build_directed(edges, n, weights, fmt))

    @settings(max_examples=150, deadline=None)
    @given(graph=edge_lists(), fmt=st.sampled_from(["v1", "v2"]), weighted=st.booleans())
    def test_build_undirected(self, graph, fmt, weighted):
        edges, n, weights = graph
        weights = weights if weighted else None
        image = build_undirected(edges, n, weights=weights, fmt=fmt)
        _assert_image(image, reference_build_undirected(edges, n, weights, fmt))

    @settings(max_examples=150, deadline=None)
    @given(graph=edge_lists(), dtype=st.sampled_from([np.int64, np.int32, np.uint32]))
    def test_adjacency_keeps_parallel_edges(self, graph, dtype):
        edges, n, _ = graph
        edges = edges.astype(dtype)
        indptr, indices = adjacency_from_edges(edges, n)
        want_indptr, want_indices = reference_adjacency(edges, n)
        _assert_same(indptr, want_indptr)
        _assert_same(indices, want_indices)
        assert indices.size == edges.shape[0]

    @settings(max_examples=150, deadline=None)
    @given(graph=edge_lists(), weighted=st.booleans())
    def test_dedup_is_reference_in_key_order(self, graph, weighted):
        edges, n, weights = graph
        weights = weights if weighted else None
        keys, got_weights = _dedup(edges, weights, n)
        want, want_weights = reference_dedup(edges, weights)
        order = np.lexsort((want[:, 1], want[:, 0]))
        # The keys come at their narrowest exact width, u32 below n = 2**16.
        assert keys.dtype == key_dtype(n)
        _assert_same(np.stack(np.divmod(keys.astype(np.int64), n), axis=1), want[order])
        if weighted:
            _assert_same(got_weights, want_weights[order])
        else:
            assert got_weights is None


class TestExplicitCases:
    @pytest.mark.parametrize("edges", [np.empty((0, 2), dtype=np.int64), []])
    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_empty_edge_arrays(self, edges, fmt):
        _assert_image(
            build_directed(edges, 5, fmt=fmt), reference_build_directed(edges, 5, fmt=fmt)
        )
        _assert_image(
            build_undirected(edges, 5, fmt=fmt),
            reference_build_undirected(edges, 5, fmt=fmt),
        )

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_key_width_boundary(self, n, dtype, weighted):
        # n = 2**16 keys in u32 up to 2**32 - 1; one more vertex needs int64.
        last = n - 1
        edges = np.array(
            [[last, last], [last, 0], [0, last], [last, last], [1, last - 1], [last, 0]],
            dtype=dtype,
        )
        weights = np.arange(6, dtype=np.float32) if weighted else None
        for build, reference in (
            (build_directed, reference_build_directed),
            (build_undirected, reference_build_undirected),
        ):
            for fmt in ("v1", "v2"):
                _assert_image(
                    build(edges, n, weights=weights, fmt=fmt),
                    reference(edges, n, weights=weights, fmt=fmt),
                )

    def test_first_weight_wins(self):
        edges = np.array([[0, 1], [1, 2], [0, 1], [1, 2], [0, 1]])
        weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0], dtype=np.float32)
        image = build_directed(edges, 3, weights=weights)
        attrs = np.frombuffer(image.attr_bytes[EdgeType.OUT], dtype="<f4")
        assert attrs.tolist() == [1.0, 2.0]

    def test_reversed_pair_collapses_undirected_with_first_weight(self):
        edges = np.array([[2, 0], [0, 2], [1, 1], [1, 1]])
        weights = np.array([7.0, 8.0, 3.0, 4.0], dtype=np.float32)
        image = build_undirected(edges, 3, weights=weights)
        assert image.edge_count == 2
        assert image.out_csr.neighbors(0).tolist() == [2]
        assert image.out_csr.neighbors(1).tolist() == [1]
        assert image.out_csr.neighbors(2).tolist() == [0]
        attrs = np.frombuffer(image.attr_bytes[EdgeType.OUT], dtype="<f4")
        assert attrs.tolist() == [7.0, 3.0, 7.0]


#: With n = 3, (1, -1) and (0, 3) pack into keys 2 and 3, the keys of the
#: in-range edges (0, 2) and (1, 0): only the range check rejects them.
OUT_OF_RANGE = [[[1, -1]], [[-1, 0]], [[0, 3]], [[3, 1]]]


class TestOutOfRangeEndpoints:
    @pytest.mark.parametrize("edges", OUT_OF_RANGE)
    @pytest.mark.parametrize("build", [build_directed, build_undirected])
    def test_builds_raise(self, edges, build):
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            build(np.array(edges), 3)

    @pytest.mark.parametrize("edges", OUT_OF_RANGE)
    def test_weighted_build_raises(self, edges):
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            build_directed(np.array(edges), 3, weights=np.ones(1, dtype=np.float32))

    @pytest.mark.parametrize("edges", OUT_OF_RANGE)
    def test_dedup_and_adjacency_raise(self, edges):
        edges = np.array(edges, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            _dedup(edges, None, 3)
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            adjacency_from_edges(edges, 3)

    @pytest.mark.parametrize("edges", OUT_OF_RANGE)
    @pytest.mark.parametrize(
        "build", [reference_build_directed, reference_build_undirected]
    )
    def test_reference_raises_too(self, edges, build):
        with pytest.raises(ValueError, match=r"\[0, num_vertices\)"):
            build(np.array(edges), 3)
