"""Drive byte-range reads through SAFS the way the engine does.

The engine is the only production caller of the read path; these
helpers let SAFS-level tests issue reads without one: a wave of
``(file, offset, length)`` reads banded by ``band_requests``, merged by
``merge_request_arrays`` and issued by ``SAFS.submit_spans``, one byte range dispatched as a page
span, or a one-page probe / install against a ``PageCache``.
"""

from typing import Tuple

import numpy as np

from repro.safs.io_request import merge_request_arrays


def band_requests(
    file_ids, offsets, lengths, page_size: int, band: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, last pages)`` of ``(file, offset, length)`` request arrays:
    the banded form ``merge_request_arrays`` takes.  Raises what
    ``IORequest`` raises, and for columns of different lengths, a negative
    file id or a request reaching past page ``band`` of its file.
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


def submit_reads(safs, reads, issue_time=0.0, window=None, kernel_path=False):
    """Issue ``reads`` as one wave; ``window``/``kernel_path`` select the
    Figure 12 disciplines the way the engine does.

    Returns ``(done, cpu)``: each read's completion time, in input order,
    and the wave's CPU cost.
    """
    spans = merge_reads(reads, safs.page_size, window=window)
    span_done, cpu, _, _ = safs.submit_spans(
        spans,
        {file.file_id: file for file, _, _ in reads},
        issue_time,
        len(reads) if kernel_path else 0,
    )
    done = np.empty(len(reads))
    done[spans.order] = span_done[spans.span_of_part]
    return done, cpu


def merge_reads(reads, page_size, adjacency_gap=1, window=None):
    """Merge ``(file, offset, length)`` reads in the banded form, with the
    list table's band: the largest file's page count plus the gap plus 2."""
    pages = max((file.num_pages(page_size) for file, _, _ in reads), default=0)
    band = pages + adjacency_gap + 2
    keys, last = band_requests(
        [file.file_id for file, _, _ in reads],
        [offset for _, offset, _ in reads],
        [length for _, _, length in reads],
        page_size,
        band,
    )
    return merge_request_arrays(keys, last, page_size, band, adjacency_gap, window)


def dispatch_bytes(scheduler, file, offset, length, issue_time):
    """``dispatch_span`` over the pages ``[offset, offset + length)`` touches."""
    page = scheduler.page_size
    return scheduler.dispatch_span(
        file, offset // page, (offset + length - 1) // page, issue_time
    )


def lookup(cache, file_id, page_no):
    """Probe one page (counts a hit or a miss); whether it hit."""
    return not cache.lookup_range(file_id, page_no, page_no)


def insert(cache, file_id, page_no):
    """Install one page; the number of pages it evicted (0 or 1)."""
    return cache.insert_range(file_id, page_no, 1)
