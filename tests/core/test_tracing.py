"""Per-iteration tracing: the armed Observer's iteration rows and their
CSV view (:func:`repro.obs.write_iteration_csv`)."""

import csv

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.obs import arm, write_iteration_csv

from tests.conftest import engine_for

#: Each row's counter-delta key and the counter it is a delta of.
COUNTERS = {
    "edges_delivered": "engine.edges_delivered",
    "io_requests": "engine.io_requests",
    "pages_fetched": "io.pages_fetched",
    "cache_hits": "cache.hits",
    "messages": "msg.delivered",
}


def frontier_sizes(observer):
    return [row["frontier"] for row in observer.iterations]


class TestIterationTracer:
    def test_records_one_row_per_iteration(self, rmat_image):
        engine = engine_for(rmat_image)
        observer = arm(engine)
        _, result = bfs(engine, 0)
        assert len(observer.iterations) == result.iterations

    def test_frontier_curve_matches_bfs_levels(self, rmat_image):
        engine = engine_for(rmat_image)
        source = int(np.argmax(rmat_image.out_csr.degrees()))
        observer = arm(engine)
        levels, _ = bfs(engine, source)
        for level, size in enumerate(frontier_sizes(observer)):
            # The frontier at iteration i contains the level-i vertices
            # plus re-activated already-visited ones; at minimum it covers
            # the level-i set.
            assert size >= int((levels == level).sum())

    def test_first_frontier_is_the_source(self, rmat_image):
        engine = engine_for(rmat_image)
        observer = arm(engine)
        bfs(engine, 0)
        assert frontier_sizes(observer)[0] == 1

    def test_end_times_monotonic(self, rmat_image):
        engine = engine_for(rmat_image)
        observer = arm(engine)
        pagerank(engine, max_iterations=5)
        times = [row["end"] for row in observer.iterations]
        assert times == sorted(times)

    def test_counter_deltas_sum_to_the_run(self, rmat_image):
        engine = engine_for(rmat_image)
        observer = arm(engine)
        _, result = pagerank(engine, max_iterations=5)
        for key, name in COUNTERS.items():
            total = sum(row[key] for row in observer.iterations)
            assert total == int(result.counters.get(name, 0)), key
        assert sum(row["pages_fetched"] for row in observer.iterations) > 0

    def test_csv_roundtrip(self, rmat_image, tmp_path):
        engine = engine_for(rmat_image)
        observer = arm(engine)
        bfs(engine, 0)
        path = tmp_path / "trace.csv"
        assert write_iteration_csv(observer, path) == len(observer.iterations)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == (
            ["iteration", "active_vertices"] + list(COUNTERS) + ["end_time"]
        )
        assert len(rows) == len(observer.iterations)
        assert int(rows[0]["active_vertices"]) == 1
        for row, traced in zip(rows, observer.iterations):
            assert int(row["iteration"]) == traced["iteration"]
            assert int(row["edges_delivered"]) == traced["edges_delivered"]
            assert float(row["end_time"]) == traced["end"]

    def test_pagerank_frontier_shrinks(self, er_image):
        engine = engine_for(er_image)
        observer = arm(engine)
        pagerank(engine, max_iterations=30)
        sizes = frontier_sizes(observer)
        assert sizes[0] == er_image.num_vertices
        assert sizes[-1] < sizes[0]
