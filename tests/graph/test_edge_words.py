"""The image's edge words against its CSR.

The semi-external read path reads every wave, in both formats, as one
``gather_ranges(source, positions, degrees)`` over
:meth:`GraphImage.edge_words` — v1's files as stored, v2's decoded once
per image in chunks of lists.  For every lane, that gather over all
vertices must be the direction's CSR ``indices``, however the decode
chunks cut the lists.
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
    """Every edge lane of the list table gathers its CSR out of the source."""
    table, source, _ = image.list_table(FILE_IDS, PAGE_SIZE)
    n = image.num_vertices
    assert source.dtype == np.uint32
    positions = []
    for code, direction in enumerate(DIRECTIONS):
        rows = table[:, 2 * code * n : (2 * code + 1) * n]
        csr = image.csr(direction)
        np.testing.assert_array_equal(rows[3], csr.degrees())
        np.testing.assert_array_equal(gather_ranges(source, rows[4], rows[3]), csr.indices)
        positions.append(rows[4])
    if not image.directed:
        # One file serves both directions: one region of the source.
        np.testing.assert_array_equal(positions[0], positions[1])
    if image.fmt == "v2":
        files = 2 if image.directed else 1
        assert source.size == files * image.out_csr.num_edges


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
def test_source_is_built_once_per_image(fmt):
    """Other file ids or another page size rebuild the keys, not the words."""
    edges, n = rmat_graph(6, 4, seed=1)
    image = build_directed(edges, n, name="once", fmt=fmt)
    first = image.list_table(FILE_IDS, PAGE_SIZE)
    other = image.list_table((3, -1, 2, -1), 4 * PAGE_SIZE)
    assert other[1] is first[1] is image.edge_words()
    assert not np.array_equal(other[0][0], first[0][0])
