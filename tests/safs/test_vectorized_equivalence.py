"""Property tests: the array-shaped read path is observationally identical
to its per-object reference implementations.

Two invariants back the engine's read path (see ``docs/architecture.md``,
"The read path"):

- ``merge_request_arrays``, over requests banded by ``band_requests``
  with a band fixed by the files alone (as the list table's is), produces
  span-for-span the same merge as the object-based ``merge_requests`` —
  same spans, same part-to-span assignment, same stable ``(file,
  offset)`` order — for every ``adjacency_gap`` and ``window``, over
  several files of different sizes and duplicate requests;
- ``PageCache.lookup_range`` / ``insert_range`` return the miss runs and
  eviction counts, and leave every counter *and* the full recency state,
  exactly where the page-by-page walk of ``reference_page_cache.py``
  would — interleaved with ``invalidate``, with per-set tracking on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safs.io_request import IORequest, merge_request_arrays, merge_requests
from repro.safs.page import SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig
from repro.sim.stats import StatsCollector
from tests.safs.reads import band_requests
from tests.safs.reference_page_cache import ReferencePageCache

PAGE = 512
#: Three files of different sizes, the largest 64 pages.
FILE_BYTES = (PAGE * 64, PAGE * 17 + 100, PAGE * 3)


# One (offset, length) request against one of the three files.
request_strategy = st.tuples(
    st.integers(min_value=0, max_value=2),  # file slot
    st.integers(min_value=0, max_value=FILE_BYTES[0] - 1),  # offset
    st.integers(min_value=1, max_value=PAGE * 3),  # length
)


@given(
    raw=st.lists(request_strategy, min_size=0, max_size=40),
    duplicates=st.lists(st.integers(min_value=0, max_value=39), max_size=8),
    adjacency_gap=st.integers(min_value=0, max_value=3),
    window=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    spare=st.sampled_from([0, 1, 1000]),
)
@settings(max_examples=300, deadline=None)
def test_merge_arrays_matches_merge_requests(raw, duplicates, adjacency_gap, window, spare):
    files = [SAFSFile(f"f{i}", bytes(size)) for i, size in enumerate(FILE_BYTES)]
    if raw:
        # Duplicate rows: the same read requested again later in the wave.
        raw = raw + [raw[i % len(raw)] for i in duplicates]
    requests = []
    for slot, offset, length in raw:
        size = FILE_BYTES[slot]
        offset %= size
        requests.append(IORequest(files[slot], offset, min(length, size - offset)))
    merged = merge_requests(
        requests, PAGE, adjacency_gap=adjacency_gap, window=window
    )
    # The band depends on the files alone, never on the wave: the largest
    # file's pages plus the gap plus 2 (the list table's rule), or wider.
    band = files[0].num_pages(PAGE) + adjacency_gap + 2 + spare
    keys, last = band_requests(
        [r.file.file_id for r in requests],
        [r.offset for r in requests],
        [r.length for r in requests],
        PAGE,
        band,
    )
    spans = merge_request_arrays(
        keys, last, PAGE, band, adjacency_gap=adjacency_gap, window=window
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


@pytest.mark.parametrize(
    "file_ids, offsets, lengths, message",
    [
        # The inverted span first_pages=[1], last_pages=[0] at the parent.
        ([0], [4096], [0], "length must be positive"),
        ([0], [4096], [-5], "length must be positive"),
        ([0], [-1], [10], "offset cannot be negative"),
        ([-1], [0], [10], "file ids cannot be negative"),
        # A wrong-sized column broadcast silently at the parent.
        ([0, 0], [0, 100], [10], "of one length"),
        ([0], [0, 100], [10, 10], "of one length"),
        ([[0]], [[0]], [[10]], "1-D"),
        ([0], [7 * 4096], [4097], "escapes its file's band"),
    ],
)
def test_band_requests_rejects_what_io_request_rejects(file_ids, offsets, lengths, message):
    with pytest.raises(ValueError, match=message):
        band_requests(file_ids, offsets, lengths, 4096, band=8)


def test_banded_merge_rejects_bad_arguments():
    keys, last = band_requests([0, 1], [0, 10], [5, 5], PAGE, band=4)
    with pytest.raises(ValueError, match="page size"):
        band_requests([0], [0], [1], 0, band=4)
    with pytest.raises(ValueError, match="one length"):
        merge_request_arrays(keys, last[:1], PAGE, 4)
    with pytest.raises(ValueError, match="adjacency_gap"):
        merge_request_arrays(keys, last, PAGE, 4, adjacency_gap=-1)
    with pytest.raises(ValueError, match="window"):
        merge_request_arrays(keys, last, PAGE, 4, window=0)
    spans = merge_request_arrays(keys, last, PAGE, 4)
    assert spans.file_ids.tolist() == [0, 1]
    assert spans.first_pages.tolist() == spans.last_pages.tolist() == [0, 0]


# A cache operation over a page span; ``invalidate`` drops the span's
# first page.
op_strategy = st.tuples(
    st.sampled_from(["lookup", "lookup", "insert", "insert", "invalidate"]),
    st.integers(min_value=0, max_value=1),  # file id
    st.integers(min_value=0, max_value=40),  # first page
    st.integers(min_value=1, max_value=12),  # span length
)


def _miss_runs(hit_flags, first):
    """``[(first_page, count), ...]`` of the ``False`` stretches."""
    runs = []
    for page_no, hit in enumerate(hit_flags, first):
        if hit:
            continue
        if runs and sum(runs[-1]) == page_no:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page_no, 1))
    return runs


def _apply(cache, op, per_page):
    """Run one op; returns what the caller observes (miss runs, eviction
    count, whether a page was dropped)."""
    kind, file_id, first, count = op
    pages = range(first, first + count)
    if kind == "lookup":
        if per_page:
            return _miss_runs([cache.lookup(file_id, p) for p in pages], first)
        return cache.lookup_range(file_id, first, first + count - 1)
    if kind == "insert":
        if per_page:
            return sum(cache.insert(file_id, p) is not None for p in pages)
        return cache.insert_range(file_id, first, count)
    return cache.invalidate(file_id, first)


@pytest.mark.parametrize("eviction", ["lru", "gclock"])
@given(ops=st.lists(op_strategy, min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_bulk_cache_ops_match_per_page(eviction, ops):
    config = PageCacheConfig(
        capacity_bytes=16 * PAGE, page_size=PAGE, associativity=4, eviction=eviction
    )
    oracle = ReferencePageCache(config, StatsCollector())
    cache = PageCache(config, StatsCollector())
    for c in (oracle, cache):
        c.enable_set_tracking()

    for op in ops:
        assert _apply(cache, op, per_page=False) == _apply(oracle, op, per_page=True)

    assert cache.stats.snapshot() == oracle.stats.snapshot()
    assert (cache.lookups, cache.hits) == (oracle.lookups, oracle.hits)
    assert cache.set_hit_rate_samples() == oracle.set_hit_rate_samples()
    assert cache.export_state() == oracle.export_state()
    assert cache._resident == oracle._resident


def test_lookup_range_returns_miss_runs():
    cache = PageCache(PageCacheConfig(capacity_bytes=64 * PAGE, page_size=PAGE))
    cache.insert_range(0, 3, 1)
    cache.insert_range(0, 6, 2)
    assert cache.lookup_range(0, 2, 9) == [(2, 1), (4, 2), (8, 2)]
    assert cache.lookup_range(0, 6, 7) == []
    assert cache.stats.get("cache.hits") == 5
    assert cache.stats.get("cache.misses") == 5
