"""The image's one neighbor array against its CSRs and list table.

Both execution modes read every wave, in both formats, as one
``gather_ranges(words, positions, degrees)`` over
:meth:`GraphImage.edge_words`: the builder writes each direction's
neighbors into its half of that one array, and both CSRs' ``indices``
are views into it.  For every lane, the gather over all vertices must be
the direction's CSR ``indices``; a v2 image's check of its files must
pass however the decode chunks cut the lists.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import builder, format as graph_format
from repro.graph.builder import build_directed, build_undirected
from repro.graph.format import FORMATS, gather_ranges
from repro.graph.generators import rmat_graph
from repro.graph.page_vertex import DIRECTIONS

#: Lane -> SAFS file id; attribute lanes have no file here.
FILE_IDS = (0, -1, 1, -1)
PAGE_SIZE = 128


def _check_source(image):
    """The words are the CSRs' one array, and every edge lane of the list
    table gathers its CSR out of them."""
    source = image.edge_words()
    sizes, degrees, positions = image.list_rows()
    n = image.num_vertices
    assert source.dtype == np.uint32
    assert source is image.words
    assert source.size == (1 + image.directed) * image.out_csr.num_edges
    for code, direction in enumerate(DIRECTIONS):
        lane = slice(2 * code * n, (2 * code + 1) * n)
        csr = image.csr(direction)
        assert np.shares_memory(csr.indices, source) or csr.num_edges == 0
        np.testing.assert_array_equal(degrees[lane], csr.degrees())
        offsets = image.index(direction)._exact_offsets()
        np.testing.assert_array_equal(sizes[lane], np.diff(offsets))
        lists = gather_ranges(source, positions[lane], degrees[lane])
        np.testing.assert_array_equal(lists, csr.indices)
    if not image.directed:
        # One file serves both directions: one region of the words.
        np.testing.assert_array_equal(positions[: n], positions[2 * n : 3 * n])


@st.composite
def _images(draw):
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=80))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return (
        edges,
        n,
        draw(st.sampled_from(FORMATS)),
        draw(st.booleans()),
        draw(st.sampled_from([1, 2, 3, 7, builder.DECODE_CHUNK_EDGES])),
    )


@given(case=_images())
@example(case=(np.array([[0, v] for v in range(1, 12)] + [[5, 2]]), 16, "v2", True, 4))
@settings(max_examples=80, deadline=None)
def test_every_lane_gathers_its_csr(case):
    """Zero-degree vertices (isolated ones and empty in-lists) included;
    small chunks cut lists in the middle (the example's hub has 11)."""
    edges, n, fmt, directed, chunk = case
    build = build_directed if directed else build_undirected
    image = build(edges, n, name="w", fmt=fmt)
    with mock.patch.object(builder, "DECODE_CHUNK_EDGES", chunk):
        _check_source(image)


def test_lists_cross_the_default_chunk_boundary(monkeypatch):
    """A graph of more than one chunk per file, at the default chunk size:
    several decode calls per file, and one list straddles a boundary."""
    edges, n = rmat_graph(12, 16, seed=5)
    image = build_directed(edges, n, name="big", fmt="v2")
    chunk = builder.DECODE_CHUNK_EDGES
    assert image.out_csr.num_edges > chunk
    assert chunk not in image.out_csr.indptr
    calls = []

    def counted(*args):
        calls.append(args)
        return graph_format.decode_lists_v2(*args)

    monkeypatch.setattr(builder, "decode_lists_v2", counted)
    _check_source(image)
    assert len(calls) >= 2 * (image.out_csr.num_edges // chunk)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("build", [build_directed, build_undirected])
def test_csrs_share_the_one_array(fmt, build):
    """No build copies the neighbors: both CSRs' ``indices`` are views of
    the words, the out half first."""
    edges, n = rmat_graph(6, 4, seed=1)
    image = build(edges, n, name="one", fmt=fmt)
    words = image.edge_words()
    m = image.out_csr.num_edges
    assert np.shares_memory(image.out_csr.indices, words)
    assert np.shares_memory(image.in_csr.indices, words)
    np.testing.assert_array_equal(words[:m], image.out_csr.indices)
    if image.directed:
        assert words.size == 2 * m
        assert not np.shares_memory(image.out_csr.indices, image.in_csr.indices)
        np.testing.assert_array_equal(words[m:], image.in_csr.indices)
    else:
        assert image.in_csr is image.out_csr and words.size == m


@pytest.mark.parametrize("fmt", FORMATS)
def test_source_is_built_once_per_image(fmt):
    """Other file ids or another page size rebuild the keys, not the rows
    or the words."""
    edges, n = rmat_graph(6, 4, seed=1)
    image = build_directed(edges, n, name="once", fmt=fmt)
    rows, words = image.list_rows(), image.edge_words()
    first = image.list_keys(FILE_IDS, PAGE_SIZE)[0]
    other = image.list_keys((3, -1, 2, -1), 4 * PAGE_SIZE)[0]
    assert image.list_rows() is rows and image.edge_words() is words
    assert not np.array_equal(other[0], first[0])
