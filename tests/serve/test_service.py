"""The serving path replays the batch engine bit for bit.

A single-tenant service run drives each query through the exact code
path ``GraphEngine.run`` uses (the job generator *is* the batch loop),
so its simulated counter stream must be bit-identical to the equivalent
batch runs — the acceptance invariant of the serving layer.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine
from repro.graph.builder import build_directed
from repro.graph.generators import rmat_graph
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.serve.queries import QueryFactory
from repro.serve.service import JobRecord, ServiceReport
from repro.serve.traffic import Arrival


def batch_sequence(image, count):
    """``count`` sequential PageRank(5) runs on one fresh batch stack."""
    engine = make_engine(image, cache_bytes=1 << 20, num_threads=32, range_shift=8)
    results = []
    programs = []
    for _ in range(count):
        program = PageRankProgram(image.num_vertices)
        results.append(engine.run(program, max_iterations=5))
        programs.append(program)
    return results, programs


class TestSingleTenantBitIdentity:
    def test_one_query_at_time_zero_is_the_batch_run(self):
        image = load_dataset("twitter-sim")
        (batch,), (program,) = batch_sequence(image, 1)
        service = GraphService(
            image,
            [TenantSpec(name="solo", max_concurrent=1)],
            ServiceConfig(policy="fifo", pr_iterations=5),
        )
        report = service.serve(
            [Arrival(time=0.0, tenant="solo", app="pr", index=0)]
        )
        assert report.completed == 1 and report.aborted == 0
        record = report.records[0]
        # Full identity, runtime included: same start of time, same
        # operations in the same order.
        assert record.result.runtime == batch.runtime
        assert record.result.cpu_busy == batch.cpu_busy
        assert record.result.counters == batch.counters
        assert record.result.iterations == batch.iterations
        assert np.array_equal(record.values, program.rank + program.pending)

    def test_sequential_queries_match_sequential_batch_runs(self):
        image = load_dataset("twitter-sim")
        results, _ = batch_sequence(image, 2)
        service = GraphService(
            image,
            [TenantSpec(name="solo", max_concurrent=1)],
            ServiceConfig(policy="fifo", pr_iterations=5),
        )
        report = service.serve(
            [
                Arrival(time=0.0, tenant="solo", app="pr", index=0),
                Arrival(time=0.5, tenant="solo", app="pr", index=1),
            ]
        )
        assert report.completed == 2
        for record, batch in zip(report.records, results):
            # The counter stream (and cpu busy) is bit-identical; only
            # absolute-clock quantities like runtime shift with the
            # arrival offset.
            assert record.result.counters == batch.counters
            assert record.result.cpu_busy == batch.cpu_busy
            assert record.result.iterations == batch.iterations


class TestReportShape:
    @pytest.fixture(scope="class")
    def report(self):
        image = load_dataset("twitter-sim")
        traffics = [
            TenantTraffic(tenant="acme", rate_qps=100.0),
            TenantTraffic(tenant="globex", rate_qps=50.0, apps=("bfs", "wcc")),
        ]
        trace = generate_trace(traffics, 0.1, seed=11)
        service = GraphService(
            image,
            [
                TenantSpec(name="acme", weight=2.0, max_concurrent=3),
                TenantSpec(name="globex", max_concurrent=2),
            ],
            ServiceConfig(policy="fair"),
        )
        return service.serve(trace), trace

    def test_every_arrival_is_accounted_for(self, report):
        report, trace = report
        assert report.completed + report.aborted == len(trace) == report.offered
        assert len(report.records) == len(trace)

    def test_duration_is_the_last_finish(self, report):
        report, _ = report
        assert report.duration_s == max(r.finish_time for r in report.records)

    def test_causality_per_record(self, report):
        report, _ = report
        for record in report.records:
            assert record.start_time >= record.arrival_time
            assert record.finish_time >= record.start_time
            assert record.latency >= record.queue_wait >= 0.0

    def test_to_dict_is_json_ready(self, report):
        import json

        report, _ = report
        payload = report.to_dict()
        json.dumps(payload)
        assert set(payload["tenants"]) == {"acme", "globex"}
        for row in payload["tenants"].values():
            assert row["latency_p99_s"] >= row["latency_p50_s"] >= 0.0


class TestOneServePerInstance:
    def test_second_serve_raises_instead_of_mixing_runs(self):
        # A second run on the same instance would inherit the first
        # run's quota waits, tenant busy time, cache state and flushed
        # counters, so its report would silently sum the two runs.
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 120, size=(600, 2), dtype=np.int64)
        image = build_directed(edges, 120, name="serve-once")
        traffics = [
            TenantTraffic(tenant="a", rate_qps=2000.0),
            TenantTraffic(tenant="b", rate_qps=1000.0),
        ]
        trace = generate_trace(traffics, 0.003, seed=3)
        service = GraphService(
            image,
            [TenantSpec(name="a"), TenantSpec(name="b")],
            ServiceConfig(policy="fair"),
        )
        first = service.serve(trace)
        counters = service.stats.snapshot()
        with pytest.raises(RuntimeError, match="once per service instance"):
            service.serve(trace)
        # The refused call changed nothing.
        assert service.stats.snapshot() == counters
        assert first.completed == len(trace)


class TestArrivalValidation:
    @pytest.mark.parametrize(
        "times",
        [
            [0.0, float("nan"), 0.001],
            [-0.5, 0.0, 0.001],
            [0.0, 0.001, float("inf")],
            [0.001, 0.0, 0.002],
        ],
        ids=["nan", "negative", "inf", "unsorted"],
    )
    def test_bad_trace_rejected_before_any_state_moves(self, times):
        # A NaN arrival used to hang the loop, a negative one to fail
        # inside the device after the first job started (leaving the
        # service unusable), and an infinite one to report a completed
        # query with a finite makespan.
        edges, n = rmat_graph(8, 8, seed=1)
        image = build_directed(edges, n, name="serve-arrivals")
        service = GraphService(
            image, [TenantSpec(name="solo")], ServiceConfig(policy="fifo")
        )
        bad = [
            Arrival(time=t, tenant="solo", app="bfs", index=i)
            for i, t in enumerate(times)
        ]
        counters = service.stats.snapshot()
        with pytest.raises(ValueError, match="arrival time"):
            service.serve(bad)
        assert service.stats.snapshot() == counters
        good = [
            Arrival(time=t, tenant="solo", app="bfs", index=i)
            for i, t in enumerate([0.0, 0.0005, 0.001])
        ]
        report = service.serve(good)
        assert report.completed == len(good)


class TestQueryFactory:
    def test_unknown_app_rejected(self):
        image = load_dataset("twitter-sim")
        factory = QueryFactory(image)
        with pytest.raises(ValueError, match="unsupported app"):
            factory.build("sssp")

    def test_service_validates_tenants(self):
        image = load_dataset("twitter-sim")
        with pytest.raises(ValueError, match="unique"):
            GraphService(
                image, [TenantSpec(name="a"), TenantSpec(name="a")]
            )
        with pytest.raises(ValueError, match="at least one tenant"):
            GraphService(image, [])
