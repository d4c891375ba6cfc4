"""SAFS — the set-associative file system (Zheng et al. [32], [31]).

SAFS is a user-space filesystem for SSD arrays: dedicated per-SSD I/O
threads, a scalable set-associative page cache, and an asynchronous
*user-task* I/O interface in which a user-defined task runs inside the
filesystem against the page cache when its request completes — no buffer
allocation, no copy.

This package implements SAFS faithfully over the simulated SSD array:

- :mod:`repro.safs.page` — SAFS pages over an in-memory flash image.
- :mod:`repro.safs.page_cache` — the set-associative page cache, a model
  of which page *keys* are resident: hit, miss and eviction are computed
  exactly, bytes are never moved.
- :mod:`repro.safs.io_request` — FlashGraph's conservative merge rule
  (same or adjacent pages only) over parallel request arrays
  (:func:`merge_request_arrays`, optionally within a bounded queue
  window, over banded request keys), plus the
  object-based reference the property tests compare it against
  (:func:`merge_requests`).
- :mod:`repro.safs.io_scheduler` — dispatch of merged page spans to the
  per-device queues through the page cache; each request's completion
  time is when the engine runs the vertex program's task on its data.
- :mod:`repro.safs.filesystem` — the SAFS facade the engine talks to.
- :mod:`repro.safs.integrity` — per-page splitmix64 checksums verified on
  every device fetch when a fault plan or parity layout is attached
  (see ``docs/recovery.md``).
"""

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.integrity import (
    IntegrityError,
    IntegrityMap,
    page_checksum,
    page_checksums,
)
from repro.safs.io_request import (
    IORequest,
    MergedRequest,
    MergedSpans,
    merge_request_arrays,
    merge_requests,
)
from repro.safs.page import SAFSFile
from repro.safs.page_cache import PageCache, PageCacheConfig

__all__ = [
    "SAFS",
    "SAFSConfig",
    "IntegrityError",
    "IntegrityMap",
    "page_checksum",
    "page_checksums",
    "IORequest",
    "MergedRequest",
    "MergedSpans",
    "merge_request_arrays",
    "merge_requests",
    "SAFSFile",
    "PageCache",
    "PageCacheConfig",
]
