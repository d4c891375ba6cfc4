"""Integration tests for the SAFS facade and I/O scheduler."""

import numpy as np
import pytest

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.safs.reads import merge_reads, submit_reads

PAGE = 4096


def make_safs(cache_pages=64, page_size=PAGE, num_ssds=4):
    stats = StatsCollector()
    array = SSDArray(SSDArrayConfig(num_ssds=num_ssds, stripe_pages=4), stats)
    config = SAFSConfig(page_size=page_size, cache_bytes=cache_pages * page_size)
    return SAFS(array, config, stats=stats)


class TestNamespace:
    def test_create_and_open(self):
        safs = make_safs()
        created = safs.create_file("graph", bytes(PAGE * 8))
        assert safs.open_file("graph") is created
        assert safs.file_names() == ["graph"]

    def test_duplicate_name_rejected(self):
        safs = make_safs()
        safs.create_file("graph", b"x")
        with pytest.raises(ValueError):
            safs.create_file("graph", b"y")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            make_safs().open_file("nope")


class TestSubmit:
    def test_fetched_pages_carry_the_file_bytes(self):
        safs = make_safs()
        payload = bytes(range(256)) * (PAGE // 16)
        file = safs.create_file("f", payload)
        done, _cpu = submit_reads(safs, [(file, 100, 64)])
        assert len(done) == 1
        # SAFS reports when the page is cached; the bytes the engine then
        # decodes are the file image's.
        assert safs.cache.contains(file.file_id, 0)
        assert bytes(file.read(100, 64)) == payload[100:164]

    def test_spans_issue_back_to_back_in_file_order(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 32))
        reads = [(file, p * PAGE, 16) for p in (30, 2, 17, 5)]
        spans = merge_reads(reads, PAGE)
        done, cpu, issued, io_ids = safs.submit_spans(
            spans, {file.file_id: file}, 0.0
        )
        assert spans.first_pages.tolist() == [2, 5, 17, 30]
        assert len(done) == 4 and io_ids is None
        # Each span's issue time includes the CPU spent on its predecessors.
        assert issued[0] == 0.0
        assert (np.diff(issued) > 0).all()
        assert issued[-1] < cpu
        assert (done > issued).all()

    def test_cache_hit_is_faster_and_counted(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        first, _ = submit_reads(safs, [(file, 0, 10)])
        assert safs.stats.get("io.full_hits") == 0
        second, _ = submit_reads(safs, [(file, 0, 10)], first[0])
        assert safs.stats.get("io.full_hits") == 1
        device_time = first[0]
        hit_time = second[0] - first[0]
        assert hit_time < device_time

    def test_cached_pages_cost_no_device_reads(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        submit_reads(safs, [(file, 0, 4 * PAGE)])
        fetched_before = safs.stats.get("io.pages_fetched")
        submit_reads(safs, [(file, 0, 4 * PAGE)], 1.0)
        assert safs.stats.get("io.pages_fetched") == fetched_before

    def test_partial_hit_fetches_only_missing_run(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        # Prime pages 0-1.
        submit_reads(safs, [(file, 0, 2 * PAGE)])
        fetched_before = safs.stats.get("io.pages_fetched")
        # Request pages 0-3: only 2-3 should be fetched.
        submit_reads(safs, [(file, 0, 4 * PAGE)], 1.0)
        assert safs.stats.get("io.pages_fetched") == fetched_before + 2

    def test_unregistered_file_rejected(self):
        safs = make_safs()
        from repro.safs.page import SAFSFile

        rogue = SAFSFile("rogue", bytes(PAGE))
        with pytest.raises(ValueError):
            submit_reads(safs, [(rogue, 0, 10)])

    def test_empty_submit(self):
        safs = make_safs()
        done, cpu = submit_reads(safs, [])
        assert done.size == 0
        assert cpu == 0.0


class TestMergeDisciplines:
    def test_engine_merge_issues_fewer_device_requests(self):
        # Two SAFS instances over identical files; one merges the raw
        # per-vertex requests within its queue window, the other not at all.
        def run(window):
            safs = make_safs(cache_pages=4)  # tiny cache, no reuse
            file = safs.create_file("f", bytes(PAGE * 64))
            reads = [(file, p * PAGE, PAGE) for p in range(32)]
            done, cpu = submit_reads(safs, reads, window=window, kernel_path=True)
            return done.max(), cpu, safs.stats.get("io.dispatched")

        t_unmerged, cpu_unmerged, n_unmerged = run(window=1)
        t_fs, cpu_fs, n_fs = run(window=SAFSConfig().fs_merge_window)
        assert n_unmerged == 32
        assert n_fs < n_unmerged
        assert t_fs <= t_unmerged

    def test_fs_window_splits_spans_adjacent_across_windows(self):
        safs = make_safs(cache_pages=4)
        file = safs.create_file("f", bytes(PAGE * 64))
        reads = [(file, p * PAGE, PAGE) for p in range(32)]
        submit_reads(safs, reads, window=8, kernel_path=True)
        # 32 adjacent pages, seen 8 at a time: one span per window.
        assert safs.stats.get("io.dispatched") == 4

    def test_engine_merge_cheaper_cpu_than_fs_merge(self):
        # Figure 12: merging in FlashGraph beats merging in SAFS because
        # the kernel path costs more CPU per incoming request.
        stats_cost = {}
        for mode in ("engine", "fs"):
            safs = make_safs(cache_pages=4)
            file = safs.create_file("f", bytes(PAGE * 64))
            reads = [(file, p * PAGE, PAGE) for p in range(32)]
            if mode == "engine":
                _, cpu = submit_reads(safs, reads)
            else:
                _, cpu = submit_reads(
                    safs, reads, window=safs.config.fs_merge_window, kernel_path=True
                )
            stats_cost[mode] = cpu
        assert stats_cost["engine"] < stats_cost["fs"]

    def test_kernel_surcharge_is_per_raw_request(self):
        costs = {}
        for kernel_path in (False, True):
            safs = make_safs(cache_pages=4)
            file = safs.create_file("f", bytes(PAGE * 64))
            reads = [(file, p * PAGE, PAGE) for p in range(32)]
            _, costs[kernel_path] = submit_reads(safs, reads, kernel_path=kernel_path)
            issue_time = safs.stats.get("io.cpu_issue_time")
            assert issue_time == pytest.approx(costs[kernel_path])
        cm = safs.cost_model
        surcharge = 32 * (cm.cpu_per_io_request_kernel - cm.cpu_per_io_request)
        assert costs[True] - costs[False] == pytest.approx(surcharge)


class TestPageSizes:
    def test_large_pages_fetch_more_flash_pages(self):
        small = make_safs(cache_pages=256, page_size=PAGE)
        large = make_safs(cache_pages=16, page_size=16 * PAGE)
        data = bytes(PAGE * 64)
        f_small = small.create_file("f", data)
        f_large = large.create_file("f", data)
        submit_reads(small, [(f_small, 0, 100)])
        submit_reads(large, [(f_large, 0, 100)])
        assert small.stats.get("ssd.pages_read") == 1
        assert large.stats.get("ssd.pages_read") == 16

    def test_sub_flash_page_still_reads_full_flash_page(self):
        safs = make_safs(cache_pages=256, page_size=1024)
        file = safs.create_file("f", bytes(PAGE * 4))
        submit_reads(safs, [(file, 0, 10)])
        assert safs.stats.get("ssd.pages_read") == 1

    def test_cached_bytes(self):
        safs = make_safs(cache_pages=64)
        file = safs.create_file("f", bytes(PAGE * 8))
        submit_reads(safs, [(file, 0, 3 * PAGE)])
        assert safs.cached_bytes() == 3 * PAGE

    def test_reset_timing(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        submit_reads(safs, [(file, 0, PAGE)])
        safs.reset_timing()
        assert safs.cached_bytes() == 0
        assert safs.array.drain_time() == 0.0
