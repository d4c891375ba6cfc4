"""Tests for the extra comparators: PEGASUS, TurboGraph, Pregel, Trinity."""

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.baselines import (
    PegasusEngine,
    PregelEngine,
    TrinityEngine,
    TurboGraphEngine,
)
from repro.baselines.cluster import ClusterCostModel
from repro.baselines.pegasus import PegasusCostModel

from tests.conftest import engine_for


class TestPegasusTiming:
    def test_job_latency_floor(self, rmat_image):
        report = PegasusEngine(rmat_image).run("pagerank", max_iterations=5)
        # Hadoop's per-job latency alone dwarfs everything at this scale.
        assert report.runtime >= report.iterations * PegasusCostModel().job_latency

    def test_traversals_pay_full_scans(self, rmat_image):
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        report = PegasusEngine(rmat_image).run("bfs", source)
        per_iter = rmat_image.out_csr.num_edges * PegasusCostModel().bytes_per_edge
        assert report.bytes_read >= report.iterations * per_iter

    def test_unsupported(self, rmat_image):
        with pytest.raises(ValueError):
            PegasusEngine(rmat_image).run("triangle_count")

    def test_orders_of_magnitude_slower_than_flashgraph(self, rmat_image):
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        _, fg = bfs(engine_for(rmat_image, num_threads=32), source)
        report = PegasusEngine(rmat_image).run("bfs", source)
        assert report.runtime > 100 * fg.runtime


class TestTurboGraph:
    def test_large_blocks_read_more_bytes(self, rmat_image):
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        _, fg = bfs(engine_for(rmat_image, num_threads=32, cache_kib=64), source)
        report = TurboGraphEngine(rmat_image).run("bfs", source)
        assert report.bytes_read > fg.bytes_read
        assert report.details["block_size"] > 4096  # far coarser than a flash page

    def test_results_equivalent_iterations(self, rmat_image):
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        levels, fg = bfs(engine_for(rmat_image, num_threads=32), source)
        report = TurboGraphEngine(rmat_image).run("bfs", source)
        assert report.iterations == fg.iterations

    def test_unsupported(self, rmat_image):
        with pytest.raises(ValueError):
            TurboGraphEngine(rmat_image).run("scan_statistics")


class TestClusterEngines:
    def test_pregel_defaults(self, rmat_image):
        engine = PregelEngine(rmat_image)
        assert engine.cost.num_machines == 300
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        report = engine.run("bfs", source)
        assert report.details["num_machines"] == 300.0
        assert report.details["network_bytes"] > 0

    def test_trinity_fewer_machines_better_network(self, rmat_image):
        pregel = PregelEngine(rmat_image)
        trinity = TrinityEngine(rmat_image)
        assert trinity.cost.num_machines < pregel.cost.num_machines
        assert trinity.cost.bytes_per_message < pregel.cost.bytes_per_message

    def test_barrier_dominates_traversals(self, rmat_image):
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        report = PregelEngine(rmat_image).run("bfs", source)
        floor = report.iterations * PregelEngine.default_cost_model().barrier_latency
        assert report.runtime >= floor

    def test_flashgraph_beats_clusters_on_this_workload(self, rmat_image):
        # §5.6's headline: one SEM machine beats published cluster numbers.
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        _, fg = bfs(engine_for(rmat_image, num_threads=32), source)
        for engine in (PregelEngine(rmat_image), TrinityEngine(rmat_image)):
            report = engine.run("bfs", source)
            assert fg.runtime < report.runtime, engine.name

    def test_invalid_machines(self, rmat_image):
        with pytest.raises(ValueError):
            PregelEngine(rmat_image, ClusterCostModel(num_machines=0))

    def test_unsupported(self, rmat_image):
        with pytest.raises(ValueError):
            TrinityEngine(rmat_image).run("scan_statistics")
