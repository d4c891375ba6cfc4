"""I/O request representation and FlashGraph's conservative merge rule.

FlashGraph merges I/O requests *conservatively*: two requests are joined
only when they touch the same SAFS page or adjacent pages (§3.6).  A merged
request therefore never fetches a page no constituent asked for, yet one
issued request can range from a single page to many megabytes — exactly the
flexibility the paper credits for adapting to different access patterns.

The engine holds a wave of requests as parallel arrays and merges it
with :func:`merge_request_arrays`.  The per-request objects
(:class:`IORequest`, :class:`MergedRequest`) and :func:`merge_requests`
are the readable reference the property tests compare the array merger
against; nothing under ``src/`` calls them.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.safs.page import SAFSFile


@dataclass
class IORequest:
    """A read of ``[offset, offset + length)`` from ``file``: the object
    form of one element of a wave (see the module docstring)."""

    file: SAFSFile
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError("request offset cannot be negative")
        if self.length <= 0:
            raise ValueError("request length must be positive")
        if self.offset + self.length > self.file.size:
            raise ValueError(
                f"request [{self.offset}, {self.offset + self.length}) escapes "
                f"{self.file.name!r} (size {self.file.size})"
            )

    def page_span(self, page_size: int) -> Tuple[int, int]:
        """``(first_page, last_page)`` (inclusive) touched by this request."""
        if page_size <= 0:
            raise ValueError("page size must be positive")
        first = self.offset // page_size
        last = (self.offset + self.length - 1) // page_size
        return first, last

    @property
    def end(self) -> int:
        """One past the last byte of the request."""
        return self.offset + self.length


@dataclass
class MergedRequest:
    """One or more page-adjacent requests issued to the device together."""

    file: SAFSFile
    first_page: int
    last_page: int
    parts: List[IORequest]

    @property
    def num_pages(self) -> int:
        """Pages covered by the merged span."""
        return self.last_page - self.first_page + 1

    def covers(self, request: IORequest, page_size: int) -> bool:
        """Whether ``request`` lies entirely inside this merged span."""
        first, last = request.page_span(page_size)
        return (
            request.file.file_id == self.file.file_id
            and first >= self.first_page
            and last <= self.last_page
        )


def merge_requests(
    requests: Sequence[IORequest],
    page_size: int,
    adjacency_gap: int = 1,
    window: Optional[int] = None,
) -> List[MergedRequest]:
    """Merge ``requests`` under FlashGraph's conservative rule (the
    reference implementation of :func:`merge_request_arrays`).

    Requests are sorted by ``(file, offset)`` and joined while the next
    request starts within ``adjacency_gap`` pages of the current span's
    last page — the default ``1`` means "same page or adjacent page", a
    gap of ``0`` would merge only overlapping spans, and larger gaps model
    more aggressive (bandwidth-wasting) merging used in ablations.

    ``window`` bounds how many queued requests the merger may look at
    before flushing a span, modelling filesystem- or block-level mergers
    that lack FlashGraph's global view (Figure 12): within one window the
    sort is local, so spans adjacent across window boundaries stay split.
    """
    if page_size <= 0:
        raise ValueError("page size must be positive")
    if adjacency_gap < 0:
        raise ValueError("adjacency_gap cannot be negative")
    if window is not None and window <= 0:
        raise ValueError("window must be positive when given")
    if not requests:
        return []

    merged: List[MergedRequest] = []
    if window is None:
        chunks: List[Sequence[IORequest]] = [requests]
    else:
        chunks = [requests[i : i + window] for i in range(0, len(requests), window)]

    for chunk in chunks:
        ordered = sorted(chunk, key=lambda r: (r.file.file_id, r.offset))
        current: Optional[MergedRequest] = None
        for request in ordered:
            first, last = request.page_span(page_size)
            if (
                current is not None
                and request.file.file_id == current.file.file_id
                and first <= current.last_page + adjacency_gap
            ):
                if last > current.last_page:
                    current.last_page = last
                current.parts.append(request)
            else:
                current = MergedRequest(request.file, first, last, [request])
                merged.append(current)
    return merged


@dataclass
class MergedSpans:
    """The array form of a merged wave (one entry per issued span).

    ``order`` is the stable ``(file, offset)`` permutation of the input
    elements; ``span_of_part[i]`` maps sorted element ``i`` to its span.
    The object-based :func:`merge_requests` remains the reference
    implementation — the property tests assert span-for-span agreement.
    """

    #: File id of each span.
    file_ids: np.ndarray
    #: First and last page (inclusive) of each span.
    first_pages: np.ndarray
    last_pages: np.ndarray
    #: Stable sort permutation applied to the input elements.
    order: np.ndarray
    #: Span index of each *sorted* element.
    span_of_part: np.ndarray

    @property
    def num_spans(self) -> int:
        return int(self.file_ids.size)


def merge_request_arrays(
    file_ids: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    page_size: int,
    adjacency_gap: int = 1,
    window: Optional[int] = None,
) -> MergedSpans:
    """Vectorised :func:`merge_requests` over parallel request arrays.

    Implements the identical conservative rule without materialising
    :class:`IORequest` objects: a stable ``(file, offset)`` argsort, then
    span breaks wherever the file changes or the next request starts more
    than ``adjacency_gap`` pages past the running span maximum.  A global
    ``maximum.accumulate`` stands in for the per-span maximum: a span
    break at ``i`` requires ``first[i] > cummax[i-1] + gap``, and firsts
    are non-decreasing per file, so pages from earlier spans can never
    reach far enough forward to cause a false merge.

    ``window`` reproduces the bounded-queue merging of
    :func:`merge_requests` by restarting the sort-and-merge every
    ``window`` elements of the *input* order.
    """
    if page_size <= 0:
        raise ValueError("page size must be positive")
    if adjacency_gap < 0:
        raise ValueError("adjacency_gap cannot be negative")
    if window is not None and window <= 0:
        raise ValueError("window must be positive when given")
    file_ids = np.asarray(file_ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = offsets.size
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return MergedSpans(empty, empty, empty.copy(), empty.copy(), empty.copy())

    if window is None or window >= n:
        starts = [0, n]
    else:
        starts = list(range(0, n, window)) + [n]

    all_order: List[np.ndarray] = []
    all_span: List[np.ndarray] = []
    all_fids: List[np.ndarray] = []
    all_first: List[np.ndarray] = []
    all_last: List[np.ndarray] = []
    span_base = 0
    for lo, hi in zip(starts[:-1], starts[1:]):
        sl = slice(lo, hi)
        order = np.lexsort((offsets[sl], file_ids[sl])) + lo
        first = offsets[order] // page_size
        last = (offsets[order] + lengths[order] - 1) // page_size
        fids = file_ids[order]
        # Lift each file's pages into a disjoint band so the running
        # maximum cannot leak across the sorted file boundary (a later
        # file restarts at offset 0, below the previous file's maximum).
        stride = int(last.max()) + adjacency_gap + 2
        lift = fids * stride
        cummax = np.maximum.accumulate(last + lift)
        breaks = np.empty(order.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = (fids[1:] != fids[:-1]) | (
            first[1:] + lift[1:] > cummax[:-1] + adjacency_gap
        )
        span_starts = np.nonzero(breaks)[0]
        all_order.append(order)
        all_span.append(span_base + np.cumsum(breaks) - 1)
        all_fids.append(fids[span_starts])
        all_first.append(first[span_starts])
        all_last.append(np.maximum.reduceat(last, span_starts))
        span_base += span_starts.size

    return MergedSpans(
        file_ids=np.concatenate(all_fids),
        first_pages=np.concatenate(all_first),
        last_pages=np.concatenate(all_last),
        order=np.concatenate(all_order),
        span_of_part=np.concatenate(all_span),
    )
