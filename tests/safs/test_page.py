"""Unit tests for SAFS pages and file images."""

import pytest

from repro.safs.page import (
    DEFAULT_PAGE_SIZE,
    SAFSFile,
    flash_pages_per_safs_page,
)


class TestFlashPagesPerSAFSPage:
    def test_default_page_is_one_flash_page(self):
        assert flash_pages_per_safs_page(DEFAULT_PAGE_SIZE) == 1

    def test_small_pages_still_cost_one_flash_page(self):
        # §5.4.2: a SAFS page smaller than 4KB does not increase the I/O
        # rate — the device still moves a whole flash page.
        assert flash_pages_per_safs_page(1024) == 1
        assert flash_pages_per_safs_page(512) == 1

    def test_large_pages_scale(self):
        assert flash_pages_per_safs_page(8192) == 2
        assert flash_pages_per_safs_page(1 << 20) == 256

    def test_non_multiple_rounds_up(self):
        assert flash_pages_per_safs_page(5000) == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            flash_pages_per_safs_page(0)


class TestSAFSFile:
    def test_size_and_pages(self):
        f = SAFSFile("a", bytes(10_000))
        assert f.size == 10_000
        assert f.num_pages(4096) == 3
        assert f.num_pages(10_000) == 1

    def test_read_roundtrip(self):
        payload = bytes(range(256)) * 4
        f = SAFSFile("a", payload)
        assert bytes(f.read(0, len(payload))) == payload
        assert bytes(f.read(10, 5)) == payload[10:15]

    def test_read_zero_length(self):
        f = SAFSFile("a", b"abc")
        assert bytes(f.read(1, 0)) == b""

    def test_read_past_eof_rejected(self):
        f = SAFSFile("a", b"abc")
        with pytest.raises(ValueError):
            f.read(2, 2)
        with pytest.raises(ValueError):
            f.read(-1, 1)

    def test_read_page(self):
        data = bytes(range(100)) * 100
        f = SAFSFile("a", data)
        page = f.read_page(1, 4096)
        assert bytes(page) == data[4096:8192]

    def test_read_last_short_page(self):
        f = SAFSFile("a", bytes(5000))
        assert len(f.read_page(1, 4096)) == 5000 - 4096

    def test_read_page_past_eof_rejected(self):
        f = SAFSFile("a", bytes(100))
        with pytest.raises(ValueError):
            f.read_page(1, 4096)
        with pytest.raises(ValueError):
            f.read_page(-1, 4096)

    def test_file_ids_unique(self):
        a = SAFSFile("a", b"x")
        b = SAFSFile("b", b"x")
        assert a.file_id != b.file_id
