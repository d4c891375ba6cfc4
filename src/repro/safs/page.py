"""SAFS pages and file images.

A :class:`SAFSFile` is the simulated on-SSD content of one file: a flat
byte buffer (the graph builder produces these).  SAFS divides a file into
fixed-size pages — 4KB by default, variable for the page-size experiment of
Figure 13 — and the page is the smallest I/O unit the engine can request.

Because the flash translation layer operates on 4KB flash pages regardless
of the SAFS page size, reading one SAFS page costs
``max(1, safs_page_size / 4096)`` flash pages at the device (§5.4.2: a page
smaller than 4KB does not increase the I/O rate of SSDs).
"""

from typing import Optional, Union

from repro.sim.ssd import FLASH_PAGE_SIZE

#: Default SAFS page size; the paper concludes 4KB is the right choice.
DEFAULT_PAGE_SIZE = FLASH_PAGE_SIZE


def flash_pages_per_safs_page(page_size: int) -> int:
    """Flash pages the device must move to deliver one SAFS page."""
    if page_size <= 0:
        raise ValueError("page size must be positive")
    return max(1, (page_size + FLASH_PAGE_SIZE - 1) // FLASH_PAGE_SIZE)


class SAFSFile:
    """The simulated content of one file stored on the SSD array.

    ``file_id`` keys the file's pages in the cache and on the array.
    ``SAFS.create_file`` numbers its files 0, 1, … so identically built
    stacks agree; a bare file built without one draws from a counter.
    """

    _next_id = 0

    def __init__(
        self,
        name: str,
        data: Union[bytes, bytearray, memoryview],
        file_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self._data = bytes(data)
        if file_id is None:
            file_id = SAFSFile._next_id
            SAFSFile._next_id += 1
        self.file_id = file_id

    @property
    def size(self) -> int:
        """File length in bytes."""
        return len(self._data)

    def num_pages(self, page_size: int) -> int:
        """Number of SAFS pages of ``page_size`` bytes covering the file."""
        if page_size <= 0:
            raise ValueError("page size must be positive")
        return (len(self._data) + page_size - 1) // page_size

    def read(self, offset: int, length: int) -> memoryview:
        """Bytes ``[offset, offset + length)`` of the file, zero-copy.

        Raises :class:`ValueError` when the range escapes the file — SAFS
        never silently truncates a read.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        if offset + length > len(self._data):
            raise ValueError(
                f"read past EOF: [{offset}, {offset + length}) of "
                f"{self.name!r} (size {len(self._data)})"
            )
        return memoryview(self._data)[offset : offset + length]

    def read_page(self, page_no: int, page_size: int) -> memoryview:
        """The content of SAFS page ``page_no`` (may be short at EOF)."""
        if page_no < 0:
            raise ValueError("page numbers are non-negative")
        start = page_no * page_size
        if start >= len(self._data):
            raise ValueError(f"page {page_no} is past EOF of {self.name!r}")
        end = min(start + page_size, len(self._data))
        return memoryview(self._data)[start:end]
