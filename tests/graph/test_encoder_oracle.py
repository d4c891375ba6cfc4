"""The edge-list encoders against the ones they replaced.

``serialize_adjacency`` (v1) and ``serialize_adjacency_v2`` must return
exactly the bytes and offsets of ``reference_builder``'s encoders — the
int64 scatter bodies the builder used before its temporaries narrowed,
v2 whole-file where the encoder now works a run of lists at a time —
on random sorted CSRs: empty lists, every degree 1–9 (a partial last tag
byte), longer lists, duplicate neighbors, and ids up to 2**32 - 1 with
deltas at every byte-length boundary.  ``v2_edge_list_sizes`` must size
each record as the encoder lays it out.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import format as graph_format
from repro.graph.format import (
    ENCODE_CHUNK_EDGES,
    serialize_adjacency,
    serialize_adjacency_v2,
    v2_edge_list_sizes,
)
from tests.graph.reference_builder import (
    reference_serialize_adjacency,
    reference_serialize_adjacency_v2,
)

#: Ids on each side of the 1/2/3/4-byte delta boundaries.
BOUNDARIES = np.array(
    [0, 1, 0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFF, 0x1000000, 0xFFFFFFFF],
    dtype=np.uint64,
)


@st.composite
def sorted_csrs(draw, max_vertices=24):
    """``(indptr, indices)``: per-vertex sorted u32 lists whose degrees mix
    0, 1–9 and up to 40, with ids drawn below ``2**bits``."""
    n = draw(st.integers(0, max_vertices))
    degrees = draw(
        st.lists(
            st.integers(0, 9) | st.integers(10, 40), min_size=n, max_size=n
        )
    )
    bits = draw(st.sampled_from([4, 8, 16, 24, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = sum(degrees)
    ids = rng.integers(0, 1 << bits, size=total, dtype=np.uint64)
    # Boundary ids, and so boundary-sized deltas, land in a drawn share.
    swap = rng.random(total) < draw(st.floats(0.0, 0.5))
    ids[swap] = rng.choice(BOUNDARIES, size=int(swap.sum()))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    for start, stop in zip(indptr[:-1], indptr[1:]):
        ids[start:stop].sort()
    return indptr, ids.astype(np.uint32)


def _assert_same_file(got, want):
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype
    assert np.array_equal(got[1], want[1])


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(csr=sorted_csrs())
    def test_v1_bytes_and_offsets(self, csr):
        _assert_same_file(
            serialize_adjacency(*csr), reference_serialize_adjacency(*csr)
        )

    @settings(max_examples=300, deadline=None)
    @given(csr=sorted_csrs(), chunk=st.sampled_from([1, 2, 3, 7, ENCODE_CHUNK_EDGES]))
    def test_v2_bytes_and_offsets(self, csr, chunk):
        # Small chunks encode the file in many runs of lists.
        with mock.patch.object(graph_format, "ENCODE_CHUNK_EDGES", chunk):
            got = serialize_adjacency_v2(*csr)
        _assert_same_file(got, reference_serialize_adjacency_v2(*csr))
        assert np.array_equal(v2_edge_list_sizes(*csr), np.diff(got[1]))

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_every_tail_length_at_max_ids(self, degree):
        # Two lists so the second one starts mid tag-phase.
        indices = np.concatenate(
            [np.arange(degree), np.full(degree, 0xFFFFFFFF)]
        ).astype(np.uint32)
        indptr = np.array([0, degree, 2 * degree, 2 * degree])
        for encode, reference in (
            (serialize_adjacency, reference_serialize_adjacency),
            (serialize_adjacency_v2, reference_serialize_adjacency_v2),
        ):
            _assert_same_file(encode(indptr, indices), reference(indptr, indices))

    def test_unsorted_list_rejected_like_reference(self):
        indptr, indices = np.array([0, 2, 4]), np.array([1, 5, 9, 3], dtype=np.uint32)
        for encode in (serialize_adjacency_v2, reference_serialize_adjacency_v2):
            with pytest.raises(ValueError, match="sorted"):
                encode(indptr, indices)
        with pytest.raises(ValueError, match="sorted"):
            v2_edge_list_sizes(indptr, indices)
        # A list may start below the previous list's last neighbor.
        indptr, indices = np.array([0, 2, 4]), np.array([5, 9, 1, 3], dtype=np.uint32)
        _assert_same_file(
            serialize_adjacency_v2(indptr, indices),
            reference_serialize_adjacency_v2(indptr, indices),
        )
