"""I/O request representation and FlashGraph's conservative merge rule.

FlashGraph merges I/O requests *conservatively*: two requests are joined
only when they touch the same SAFS page or adjacent pages (§3.6).  A merged
request therefore never fetches a page no constituent asked for, yet one
issued request can range from a single page to many megabytes — exactly the
flexibility the paper credits for adapting to different access patterns.

The engine holds a wave of requests as parallel arrays, keyed by file
band (:func:`band_requests`), and merges it with
:func:`merge_request_arrays`.  The per-request objects
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


def band_requests(
    file_ids, offsets, lengths, page_size: int, band: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, last pages)`` of ``(file, offset, length)`` request arrays:
    the banded form :func:`merge_request_arrays` takes.  Raises what
    :class:`IORequest` raises, and for columns of different lengths, a
    negative file id or a request reaching past page ``band`` of its file.
    """
    if page_size <= 0:
        raise ValueError("page size must be positive")
    file_ids, offsets, lengths = (
        np.asarray(a, dtype=np.int64) for a in (file_ids, offsets, lengths)
    )
    if not file_ids.ndim == 1 or not file_ids.shape == offsets.shape == lengths.shape:
        raise ValueError("file ids, offsets and lengths must be 1-D and of one length")
    if (file_ids < 0).any():
        raise ValueError("file ids cannot be negative")
    if (offsets < 0).any():
        raise ValueError("request offset cannot be negative")
    if (lengths <= 0).any():
        raise ValueError("request length must be positive")
    last = (offsets + lengths - 1) // page_size
    if (last >= band).any():
        raise ValueError(f"request escapes its file's band of {band} pages")
    lift = file_ids * band
    return offsets + lift * page_size, last + lift


def merge_request_arrays(
    keys: np.ndarray,
    last_pages: np.ndarray,
    page_size: int,
    band: int,
    adjacency_gap: int = 1,
    window: Optional[int] = None,
) -> MergedSpans:
    """Vectorised :func:`merge_requests` over requests in banded form.

    Request ``i`` of file ``f`` reads from byte ``keys[i] - f * band *
    page_size`` through page ``last_pages[i] - f * band``: each file's
    pages are lifted into a band of ``band`` pages, which must exceed
    every file's page count by more than ``adjacency_gap``.  The caller
    lifts once, per request (:func:`band_requests`) or per image
    (:meth:`~repro.graph.builder.GraphImage.list_keys`), not per call.

    One stable argsort of the keys sorts by ``(file, offset)`` — the
    reference's stable sort, ties included — and a span breaks wherever
    the next request starts more than ``adjacency_gap`` pages past the
    running maximum of last pages.  That global ``maximum.accumulate``
    stands in for the per-span maximum: firsts are non-decreasing, so
    pages of earlier spans cannot reach far enough forward to cause a
    false merge, nor into the next file's band.

    ``window`` reproduces the bounded-queue merging of
    :func:`merge_requests`: the sort is by window first, and window ``c``
    is lifted ``c`` times past every page, so no span crosses windows.
    """
    if page_size <= 0:
        raise ValueError("page size must be positive")
    if adjacency_gap < 0:
        raise ValueError("adjacency_gap cannot be negative")
    if window is not None and window <= 0:
        raise ValueError("window must be positive when given")
    if keys.shape != last_pages.shape:
        raise ValueError("keys and last_pages must be of one length")
    n = keys.size
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return MergedSpans(empty, empty, empty.copy(), empty.copy(), empty.copy())
    # Array methods, not ``np.`` wrappers: a wave is ~50 rows, so call
    # overhead is most of its cost.
    windowed = window is not None and window < n
    if windowed:
        chunk = np.arange(n) // window
        order = np.lexsort((keys, chunk))
        shift = chunk * (int(last_pages.max()) + adjacency_gap + 1)
        first = keys[order] // page_size + shift
        last = last_pages[order] + shift
    else:
        order = keys.argsort(kind="stable")
        first = keys[order] // page_size
        last = last_pages[order]
    cummax = np.maximum.accumulate(last)
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.greater(first[1:], cummax[:-1] + adjacency_gap, out=breaks[1:])
    span_starts = breaks.nonzero()[0]
    first, last = first[span_starts], np.maximum.reduceat(last, span_starts)
    if windowed:
        first -= shift[span_starts]
        last -= shift[span_starts]
    file_ids = first // band
    base = file_ids * band
    span_of_part = breaks.cumsum()
    span_of_part -= 1
    return MergedSpans(file_ids, first - base, last - base, order, span_of_part)
