"""Unit and property tests for edge-list format v2 (delta + group varint)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.format import (
    EDGE_BYTES,
    HEADER_BYTES,
    VALUES_PER_TAG,
    decode_lists_v2,
    parse_edge_list,
    parse_edge_list_v2,
    serialize_adjacency,
    serialize_adjacency_v2,
    v2_edge_list_sizes,
)
from repro.graph.index import LARGE_SIZE, GraphIndexV2, build_index_v2


def _csr(neighbor_lists):
    """Build (indptr, indices) from explicit per-vertex neighbor lists."""
    degrees = [len(lst) for lst in neighbor_lists]
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    flat = [n for lst in neighbor_lists for n in lst]
    return indptr, np.asarray(flat, dtype=np.uint32)


def _roundtrip(neighbor_lists):
    indptr, indices = _csr(neighbor_lists)
    data, offsets = serialize_adjacency_v2(indptr, indices)
    assert len(data) == offsets[-1]
    assert v2_edge_list_sizes(indptr, indices).tolist() == np.diff(offsets).tolist()
    view = memoryview(data)
    for v, expected in enumerate(neighbor_lists):
        vid, neighbors = parse_edge_list_v2(view, int(offsets[v]))
        assert vid == v
        assert neighbors.tolist() == list(expected)
    degrees = np.diff(indptr)
    decoded = decode_lists_v2(
        np.frombuffer(data, dtype=np.uint8), offsets[:-1], degrees
    )
    assert decoded.tolist() == indices.tolist()
    return data, offsets


class TestRoundtrip:
    def test_degree_zero(self):
        data, offsets = _roundtrip([[]])
        assert len(data) == HEADER_BYTES

    def test_degree_one(self):
        _roundtrip([[42]])

    def test_trailing_empty_lists(self):
        # A trailing degree-0 vertex starts exactly at the file end; the
        # batched decoder must not index past the buffer.
        _roundtrip([[1, 2, 3], [], []])

    def test_max_u32_ids(self):
        _roundtrip([[0xFFFFFFFF], [0, 0xFFFFFFFF], [0xFFFFFFFE, 0xFFFFFFFF]])

    def test_duplicates(self):
        # Duplicate neighbors are legal (multigraph edges): delta 0.
        _roundtrip([[7, 7, 7], [1, 1, 2, 2]])

    def test_all_byte_length_classes(self):
        # First values spanning 1/2/3/4-byte varint classes.
        _roundtrip([[0x12], [0x1234], [0x123456], [0x12345678]])

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_batch_decode_at_every_plane_count(self, width):
        # The batched decoder reads only as many byte planes as the widest
        # value of the batch needs: a batch whose widest value is
        # ``width`` bytes, beside narrower lists, in one call.
        top = 1 << (8 * (width - 1))
        lists = [[top, 2 * top, 2 * top + 1]] + [[1 << (8 * k)] for k in range(width - 1)]
        indptr, indices = _csr(lists)
        data, offsets = serialize_adjacency_v2(indptr, indices)
        order = np.arange(len(lists))[::-1]
        decoded = decode_lists_v2(
            np.frombuffer(data, dtype=np.uint8), offsets[order], np.diff(indptr)[order]
        )
        assert decoded.tolist() == [n for i in order for n in lists[i]]

    def test_mixed_lengths_within_one_tag_byte(self):
        # Four values of different byte lengths share one tag byte.
        _roundtrip([[1, 0x300, 0x40000, 0x5000000 + 0x40301]])

    def test_empty_graph(self):
        data, offsets = serialize_adjacency_v2(
            np.array([0]), np.array([], dtype=np.uint32)
        )
        assert data == b""
        assert offsets.tolist() == [0]

    def test_unsorted_neighbors_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            serialize_adjacency_v2(
                np.array([0, 2]), np.array([5, 3], dtype=np.uint32)
            )

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            serialize_adjacency_v2(np.array([1, 2]), np.array([1], dtype=np.uint32))

    def test_truncated_rejected(self):
        data, _ = _roundtrip([[1, 1000, 100000]])
        for cut in (1, HEADER_BYTES, HEADER_BYTES + 1, len(data) - 1):
            with pytest.raises(ValueError):
                parse_edge_list_v2(memoryview(data)[:cut], 0)

    @given(
        lists=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                min_size=0,
                max_size=25,
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, lists):
        _roundtrip([sorted(lst) for lst in lists])

    @given(
        degrees=st.lists(
            st.integers(min_value=0, max_value=60), min_size=1, max_size=20
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        span=st.sampled_from([50, 5000, 0xFFFFFFFF]),
    )
    @settings(max_examples=60, deadline=None)
    def test_skewed_random_csr_matches_v1(self, degrees, seed, span):
        # v1 and v2 must agree list-for-list on arbitrary sorted CSRs,
        # including id ranges that force every varint length class.
        rng = np.random.default_rng(seed)
        indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = rng.integers(
            0, span + 1, size=int(indptr[-1]), dtype=np.int64
        ).astype(np.uint32)
        for v in range(len(degrees)):
            indices[indptr[v] : indptr[v + 1]].sort()
        v1_data, v1_offsets = serialize_adjacency(indptr, indices)
        v2_data, v2_offsets = serialize_adjacency_v2(indptr, indices)
        v1_view, v2_view = memoryview(v1_data), memoryview(v2_data)
        for v in range(len(degrees)):
            vid1, n1 = parse_edge_list(v1_view, int(v1_offsets[v]))
            vid2, n2 = parse_edge_list_v2(v2_view, int(v2_offsets[v]))
            assert vid1 == vid2 == v
            assert n1.tolist() == n2.tolist()

    def test_power_law_compresses(self):
        # Sorted power-law neighbor lists have small deltas: v2 must beat
        # v1 on size, not just round-trip.
        rng = np.random.default_rng(7)
        degrees = np.minimum((rng.pareto(1.2, size=200) * 4).astype(np.int64), 500)
        indptr = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = rng.integers(0, 200, size=int(indptr[-1])).astype(np.uint32)
        for v in range(degrees.size):
            indices[indptr[v] : indptr[v + 1]].sort()
        v1_size = HEADER_BYTES * degrees.size + EDGE_BYTES * int(degrees.sum())
        _, offsets = serialize_adjacency_v2(indptr, indices)
        assert int(offsets[-1]) < v1_size


class TestSizes:
    def test_header_only_for_isolated(self):
        indptr, indices = _csr([[], []])
        assert v2_edge_list_sizes(indptr, indices).tolist() == [
            HEADER_BYTES,
            HEADER_BYTES,
        ]

    def test_tag_byte_rounding(self):
        for degree in range(1, 10):
            indptr, indices = _csr([list(range(degree))])
            expected_tags = (degree + VALUES_PER_TAG - 1) // VALUES_PER_TAG
            size = int(v2_edge_list_sizes(indptr, indices)[0])
            # Deltas here are all 1-byte, so payload == degree bytes.
            assert size == HEADER_BYTES + expected_tags + degree


class TestGraphIndexV2:
    def _build(self, lists, checkpoint_interval=4):
        indptr, indices = _csr(lists)
        data, offsets = serialize_adjacency_v2(indptr, indices)
        degrees = np.diff(indptr).astype(np.int64)
        index = GraphIndexV2(
            degrees, np.diff(offsets), checkpoint_interval=checkpoint_interval
        )
        return index, data, offsets

    def test_locate_matches_offsets(self):
        lists = [sorted([3, 900, 70000, 0xFFFFFFFF][: i % 5]) for i in range(23)]
        index, _, offsets = self._build(lists)
        for v in range(len(lists)):
            offset, size = index.locate(v)
            assert offset == offsets[v]
            assert size == offsets[v + 1] - offsets[v]

    def test_locate_many_matches_locate(self):
        lists = [list(range(i % 7)) for i in range(40)]
        index, _, _ = self._build(lists)
        vertices = np.array([0, 39, 7, 7, 20])
        offsets, sizes = index.locate_many(vertices)
        for v, off, size in zip(vertices, offsets, sizes):
            assert (off, size) == index.locate(int(v))

    def test_build_index_v2(self):
        lists = [[1, 2], [], [5]]
        indptr, indices = _csr(lists)
        data, offsets = serialize_adjacency_v2(indptr, indices)
        index = build_index_v2(np.diff(indptr), offsets)
        assert index.file_size == len(data)
        with pytest.raises(ValueError):
            build_index_v2(np.diff(indptr), offsets + 1)

    def test_large_list_spills(self):
        # One list bigger than the u16 size-word ceiling must spill to the
        # side table and still locate exactly.
        big = sorted(
            np.random.default_rng(3)
            .integers(0, 2**32, size=30000, dtype=np.int64)
            .tolist()
        )
        lists = [[1, 2], big, [9]]
        index, data, offsets = self._build(lists)
        assert int(np.diff(offsets)[1]) > LARGE_SIZE
        for v in range(3):
            offset, size = index.locate(v)
            assert offset == offsets[v]
            assert size == offsets[v + 1] - offsets[v]
        assert index.memory_bytes() > 0
