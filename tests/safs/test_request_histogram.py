"""Unit tests for the §3.6 request-size histogram."""

import pytest

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from tests.safs.reads import submit_reads

PAGE = 4096


@pytest.fixture()
def safs():
    array = SSDArray(SSDArrayConfig(num_ssds=2, stripe_pages=4))
    return SAFS(array, SAFSConfig(cache_bytes=256 * PAGE), stats=array.stats)


def submit_span(safs, file, first_page, num_pages):
    submit_reads(safs, [(file, first_page * PAGE, num_pages * PAGE)])


class TestRequestSizeHistogram:
    def test_single_page_bucket(self, safs):
        file = safs.create_file("f", bytes(PAGE * 128))
        submit_span(safs, file, 0, 1)
        assert safs.stats.get("io.size_1_page") == 1

    def test_small_span_bucket(self, safs):
        file = safs.create_file("f", bytes(PAGE * 128))
        submit_span(safs, file, 0, 8)
        assert safs.stats.get("io.size_2_8_pages") == 1

    def test_medium_span_bucket(self, safs):
        file = safs.create_file("f", bytes(PAGE * 128))
        submit_span(safs, file, 0, 64)
        assert safs.stats.get("io.size_9_64_pages") == 1

    def test_large_span_bucket(self, safs):
        file = safs.create_file("f", bytes(PAGE * 128))
        submit_span(safs, file, 0, 65)
        assert safs.stats.get("io.size_65plus_pages") == 1

    def test_buckets_partition_dispatches(self, safs):
        file = safs.create_file("f", bytes(PAGE * 128))
        for first, count in ((0, 1), (4, 3), (16, 20), (40, 80)):
            submit_span(safs, file, first, count)
        total = sum(
            safs.stats.get(f"io.size_{bucket}")
            for bucket in ("1_page", "2_8_pages", "9_64_pages", "65plus_pages")
        )
        assert total == safs.stats.get("io.dispatched") == 4
