"""Chaos regression suite: faults mid-service never corrupt a query.

The service inherits the fault layer's contract (``docs/fault_model.md``)
job by job: under recoverable chaos every query completes with exactly
the values a clean run produces (faults move simulated time, never
data); under unrecoverable loss a query aborts cleanly with
partial-progress stats — never a wrong answer, never a hang — while the
service itself keeps draining the trace.
"""

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine
from repro.algorithms.pagerank import PageRankProgram
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.serve.queries import QueryFactory
from repro.serve.traffic import Arrival
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    StuckQueue,
    TransientErrors,
)

#: Recoverable chaos mid-service: flaky reads, a stuck queue and one
#: whole-SSD death, all survivable under CHAOS_POLICY.
CHAOS_PLAN = FaultPlan(
    [
        TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
        StuckQueue(device=7, start=0.0005, end=0.012),
        DeviceFailure(device=11, at=0.002),
    ],
    seed=42,
)
CHAOS_POLICY = FaultPolicy(
    max_retries=12, retry_backoff=200e-6, request_timeout=0.002
)

#: Nothing recovers from every device failing for good.
TOTAL_LOSS_PLAN = FaultPlan(
    [DeviceFailure(device=d, at=0.0005) for d in range(15)], seed=42
)

TENANTS = [
    TenantSpec(name="acme", weight=2.0, max_concurrent=3),
    TenantSpec(name="globex", max_concurrent=2),
]
TRAFFICS = [
    TenantTraffic(tenant="acme", rate_qps=120.0),
    TenantTraffic(tenant="globex", rate_qps=60.0, apps=("bfs", "wcc")),
]


@pytest.fixture(scope="module")
def image():
    return load_dataset("twitter-sim")


@pytest.fixture(scope="module")
def clean_values(image):
    """Reference outputs per app from fresh single-job runs."""
    values = {}
    for app in ("pr", "bfs", "wcc"):
        factory = QueryFactory(image, pr_iterations=5)
        query = factory.build(app)
        engine = make_engine(image, cache_bytes=1 << 20)
        engine.run(
            query.program,
            initial_active=query.initial_active,
            max_iterations=query.max_iterations,
        )
        values[app] = query.values()
    return values


class TestRecoverableChaos:
    def test_every_query_completes_with_clean_values(self, image, clean_values):
        trace = generate_trace(TRAFFICS, 0.15, seed=11)
        service = GraphService(
            image,
            TENANTS,
            ServiceConfig(policy="fair"),
            fault_plan=CHAOS_PLAN,
            fault_policy=CHAOS_POLICY,
        )
        report = service.serve(trace)
        assert report.completed + report.aborted == len(trace)
        assert report.completed > 0
        for record in report.records:
            if record.ok:
                # Recoverable faults may stretch simulated time but can
                # never change a completed query's answer.
                assert np.array_equal(record.values, clean_values[record.app])
            else:
                assert record.abort_reason
                assert record.result.iterations >= 0
                assert record.result.counters

    def test_single_tenant_chaos_counters_match_batch(self, image):
        engine = make_engine(
            image,
            cache_bytes=1 << 20,
            fault_plan=CHAOS_PLAN,
            fault_policy=CHAOS_POLICY,
        )
        batch = engine.run(PageRankProgram(image.num_vertices), max_iterations=5)
        service = GraphService(
            image,
            [TenantSpec(name="solo", max_concurrent=1)],
            ServiceConfig(policy="fifo", pr_iterations=5),
            fault_plan=CHAOS_PLAN,
            fault_policy=CHAOS_POLICY,
        )
        report = service.serve(
            [Arrival(time=0.0, tenant="solo", app="pr", index=0)]
        )
        record = report.records[0]
        assert record.ok
        # Same fault plan, same clock origin: the chaos run's counter
        # stream is bit-identical to the batch engine's.
        assert record.result.counters == batch.counters
        assert record.result.runtime == batch.runtime
        assert record.result.cpu_busy == batch.cpu_busy


class TestUnrecoverableLoss:
    def test_jobs_abort_cleanly_and_the_service_drains(self, image):
        trace = generate_trace(TRAFFICS, 0.1, seed=3)
        service = GraphService(
            image,
            TENANTS,
            ServiceConfig(policy="fair"),
            fault_plan=TOTAL_LOSS_PLAN,
            fault_policy=CHAOS_POLICY,
        )
        report = service.serve(trace)
        # The service never hangs: every arrival gets a terminal record.
        assert len(report.records) == len(trace)
        assert report.aborted > 0
        for record in report.records:
            if not record.ok:
                assert record.abort_reason
                assert record.values is None
                assert record.finish_time >= record.start_time
        # Tenant abort counts reconcile with the records.
        for name, tenant_report in report.tenants.items():
            assert tenant_report.aborts == sum(
                1 for r in report.records if r.tenant == name and not r.ok
            )
