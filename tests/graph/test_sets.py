"""``union_segments`` and ``intersect_count_segments`` against numpy's
set routines, list by list and pair by pair."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import build_directed, build_undirected
from repro.graph.sets import (
    INTERSECT_CHUNK_MEMBERS,
    intersect_count_segments,
    union_segments,
)
from tests.graph.test_build_oracle import edge_lists


@st.composite
def images(draw, max_vertices=30, max_edges=120):
    """A small directed or undirected image with duplicates, self-loops,
    reciprocal pairs and isolated vertices, or no edges at all."""
    edges, n, _ = draw(edge_lists(max_vertices, max_edges))
    build = build_directed if draw(st.booleans()) else build_undirected
    return build(edges, n, name="sets")


@given(image=images())
@settings(max_examples=150, deadline=None)
def test_union_segments_is_the_loop_free_union(image):
    csr = union_segments(image)
    assert csr.indptr.size == image.num_vertices + 1
    assert csr.indices.dtype == np.uint32
    for v in range(image.num_vertices):
        union = np.union1d(image.out_csr.neighbors(v), image.in_csr.neighbors(v))
        assert np.array_equal(csr.neighbors(v), union[union != v])


@given(image=images(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_intersect_count_segments_counts_the_common_members(image, data):
    csr = image.out_csr if data.draw(st.booleans()) else union_segments(image)
    n = image.num_vertices
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex, st.integers(-3, n + 3))))
    a, b, above = (np.asarray([p[i] for p in pairs], dtype=np.int64) for i in range(3))
    counts = intersect_count_segments(csr, a, b, above)
    assert counts.dtype == np.int64
    want = [
        int((np.intersect1d(csr.neighbors(x), csr.neighbors(y)) > t).sum())
        for x, y, t in pairs
    ]
    assert counts.tolist() == want


def test_intersect_count_segments_spans_chunks():
    # A clique's pairs enumerate more members than one chunk holds.
    n = 800
    ids = np.arange(n)
    edges = np.stack(np.meshgrid(ids, ids), axis=-1).reshape(-1, 2)
    csr = build_undirected(edges, n, name="clique").out_csr
    a = np.repeat(ids, 2)
    b = (a * 7 + 3) % n
    above = a % 5 - 1
    counts = intersect_count_segments(csr, a, b, above)
    assert counts.sum() > 2 * INTERSECT_CHUNK_MEMBERS
    # Every member of the clique is in both rows (self-loops included).
    assert counts.tolist() == (n - 1 - above).tolist()
