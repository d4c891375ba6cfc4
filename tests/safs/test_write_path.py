"""Tests for the SAFS write path and the read-only-computation invariant."""

import numpy as np
import pytest

from repro.graph.builder import build_directed
from repro.safs.write_path import GraphLoader
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector


@pytest.fixture()
def loader():
    stats = StatsCollector()
    array = SSDArray(SSDArrayConfig(num_ssds=4), stats)
    return GraphLoader(array, stats=stats)


@pytest.fixture()
def image():
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 500, size=(3000, 2), dtype=np.int64)
    return build_directed(edges, 500, name="wp")


class TestWriteTime:
    def test_scales_with_bytes(self, loader):
        assert loader.write_time(2_000_000) == 2 * loader.write_time(1_000_000)

    def test_scales_with_devices(self, image):
        small = GraphLoader(SSDArray(SSDArrayConfig(num_ssds=2)))
        large = GraphLoader(SSDArray(SSDArrayConfig(num_ssds=8)))
        assert small.write_time(1 << 20) == 4 * large.write_time(1 << 20)

    def test_writes_slower_than_reads(self, loader):
        # Consumer SSDs of the paper's era: write bandwidth below read.
        read_bw = loader.array.config.ssd_config.seq_bandwidth
        assert loader.model.seq_write_bandwidth < read_bw

    def test_negative_rejected(self, loader):
        with pytest.raises(ValueError):
            loader.write_time(-1)


class TestLoadImage:
    def test_accounts_bytes_and_pages(self, loader, image):
        seconds, programmed = loader.load_image(image)
        assert seconds > 0
        assert programmed > 0
        assert loader.stats.get("write.bytes") == image.storage_bytes()
        # Write amplification adds flash programs beyond host pages.
        assert programmed >= loader.stats.get("write.host_pages")

    def test_repeated_loads_accumulate(self, loader, image):
        loader.load_image(image)
        first = loader.stats.get("write.flash_pages_programmed")
        loader.load_image(image)
        assert loader.stats.get("write.flash_pages_programmed") == 2 * first


class TestReadOnlyInvariant:
    def test_engine_runs_never_write(self, rmat_image, make_engine):
        # The whole-system invariant: algorithms only read.
        from repro.algorithms.bfs import bfs
        from repro.algorithms.wcc import wcc

        engine = make_engine(rmat_image)
        bfs(engine, 0)
        wcc(engine)
        assert engine.stats.get("write.bytes", 0.0) == 0.0
