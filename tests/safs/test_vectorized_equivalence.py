"""Property tests: the array-shaped read path is observationally identical
to its per-object reference implementations.

Two invariants back the engine's read path (see ``docs/architecture.md``,
"The read path"):

- ``merge_request_arrays`` produces span-for-span the same merge as the
  object-based ``merge_requests`` — same spans, same part-to-span
  assignment, same stable ``(file, offset)`` order — for every
  ``adjacency_gap`` and ``window``;
- ``PageCache.lookup_range`` / ``insert_range`` leave the hit, miss,
  eviction and insertion counters *and* the full recency state exactly
  where the per-page ``lookup`` / ``insert`` calls would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safs.io_request import IORequest, merge_request_arrays, merge_requests
from repro.safs.page import Page, SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.stats import StatsCollector

PAGE = 512
FILE_BYTES = PAGE * 64


# One (offset, length) request against one of up to three files.
request_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),  # file slot
    st.integers(min_value=0, max_value=FILE_BYTES - 1),  # offset
    st.integers(min_value=1, max_value=PAGE * 3),  # length
)


def _clamp(offset, length):
    return min(length, FILE_BYTES - offset)


@given(
    raw=st.lists(request_strategy, min_size=0, max_size=40),
    adjacency_gap=st.integers(min_value=0, max_value=3),
    window=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
)
@settings(max_examples=200, deadline=None)
def test_merge_arrays_matches_merge_requests(raw, adjacency_gap, window):
    files = [SAFSFile(f"f{i}", bytes(FILE_BYTES)) for i in range(3)]
    requests = [
        IORequest(files[slot], offset, _clamp(offset, length))
        for slot, offset, length in raw
    ]
    merged = merge_requests(
        requests, PAGE, adjacency_gap=adjacency_gap, window=window
    )
    spans = merge_request_arrays(
        np.asarray([r.file.file_id for r in requests]),
        np.asarray([r.offset for r in requests]),
        np.asarray([r.length for r in requests]),
        PAGE,
        adjacency_gap=adjacency_gap,
        window=window,
    )

    assert spans.num_spans == len(merged)
    for i, m in enumerate(merged):
        assert spans.file_ids[i] == m.file.file_id
        assert spans.first_pages[i] == m.first_page
        assert spans.last_pages[i] == m.last_page
    # Part assignment: the sorted elements grouped by span must list the
    # same requests, in the same order, as each MergedRequest's parts.
    flat_parts = [id(part) for m in merged for part in m.parts]
    assert flat_parts == [id(requests[j]) for j in spans.order]
    span_sizes = np.bincount(spans.span_of_part, minlength=spans.num_spans)
    assert span_sizes.tolist() == [len(m.parts) for m in merged]
    # span_of_part is grouped: non-decreasing along the sorted elements.
    if spans.span_of_part.size:
        assert np.all(np.diff(spans.span_of_part) >= 0)


# A cache operation: either a span lookup or a span insert.
op_strategy = st.tuples(
    st.sampled_from(["lookup", "insert"]),
    st.integers(min_value=0, max_value=1),  # file id
    st.integers(min_value=0, max_value=40),  # first page
    st.integers(min_value=1, max_value=12),  # span length
)


def _apply_per_page(cache, ops):
    for kind, file_id, first, count in ops:
        if kind == "lookup":
            for page_no in range(first, first + count):
                cache.lookup(file_id, page_no)
        else:
            for page_no in range(first, first + count):
                cache.insert(Page(file_id, page_no, memoryview(b"x")))


def _apply_bulk(cache, ops):
    for kind, file_id, first, count in ops:
        if kind == "lookup":
            cache.lookup_range(file_id, first, first + count - 1)
        else:
            cache.insert_range(
                Page(file_id, page_no, memoryview(b"x"))
                for page_no in range(first, first + count)
            )


def _recency_state(cache):
    state = {index: list(s.keys()) for index, s in cache._sets.items() if s}
    if cache.config.eviction == "gclock":
        bits = {
            index: [bool(b[k]) for k in cache._rings[index]]
            for index, b in cache._ref_bits.items()
        }
        hands = dict(cache._hands)
        rings = {index: list(r) for index, r in cache._rings.items()}
        return state, bits, hands, rings
    return state


@pytest.mark.parametrize("eviction", ["lru", "gclock"])
@given(ops=st.lists(op_strategy, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_bulk_cache_ops_match_per_page(eviction, ops):
    config = PageCacheConfig(
        capacity_bytes=16 * PAGE, page_size=PAGE, associativity=4, eviction=eviction
    )
    scalar_stats = StatsCollector()
    bulk_stats = StatsCollector()
    scalar = PageCache(config, scalar_stats)
    bulk = PageCache(config, bulk_stats)

    _apply_per_page(scalar, ops)
    _apply_bulk(bulk, ops)

    assert scalar_stats.snapshot() == bulk_stats.snapshot()
    assert scalar._resident == bulk._resident
    assert _recency_state(scalar) == _recency_state(bulk)


def test_lookup_range_returns_hit_mask():
    cache = PageCache(PageCacheConfig(capacity_bytes=64 * PAGE, page_size=PAGE))
    cache.insert(Page(0, 3, memoryview(b"x")))
    cache.insert(Page(0, 5, memoryview(b"x")))
    mask = cache.lookup_range(0, 2, 6)
    assert mask.tolist() == [False, True, False, True, False]
    assert cache.stats.get("cache.hits") == 2
    assert cache.stats.get("cache.misses") == 3
