"""Property tests: fair-share admission never starves, never over-admits,
and tenant busy-time attribution tiles device time exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import build_directed
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.serve.service import STARVATION_BOUND_S


def _image():
    rng = np.random.default_rng(0)
    n, m = 120, 600
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    return build_directed(edges, n, name="prop-serve")


IMAGE = _image()


@st.composite
def serve_runs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    policy = draw(st.sampled_from(["fifo", "fair", "deadline"]))
    num_tenants = draw(st.integers(min_value=1, max_value=3))
    tenants, traffics = [], []
    for i in range(num_tenants):
        name = f"t{i}"
        tenants.append(
            TenantSpec(
                name=name,
                weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
                max_concurrent=draw(st.integers(min_value=1, max_value=3)),
                deadline_s=draw(st.sampled_from([None, 0.002, 0.01])),
            )
        )
        bursty = draw(st.booleans())
        traffics.append(
            TenantTraffic(
                tenant=name,
                rate_qps=draw(st.sampled_from([500.0, 1500.0, 3000.0])),
                apps=draw(
                    st.sampled_from([("pr",), ("pr", "bfs"), ("bfs", "wcc")])
                ),
                burst_factor=3.0 if bursty else 1.0,
                burst_fraction=0.2 if bursty else 0.0,
                burst_period_s=0.002,
            )
        )
    trace = generate_trace(traffics, 0.004, seed=seed)
    return tenants, traffics, trace, policy


def _run(tenants, trace, policy):
    service = GraphService(
        IMAGE,
        tenants,
        ServiceConfig(
            policy=policy,
            cache_bytes=1 << 16,
            num_threads=4,
            range_shift=4,
        ),
    )
    return service, service.serve(trace)


class TestFairShareProperties:
    @given(run=serve_runs())
    @settings(max_examples=12, deadline=None)
    def test_quotas_are_never_exceeded(self, run):
        tenants, _, trace, policy = run
        service, report = _run(tenants, trace, policy)
        for spec in tenants:
            # Peak concurrency ever granted, not just the final count.
            assert service.admission.peak[spec.name] <= spec.max_concurrent
        assert report.completed + report.aborted == len(trace)

    @given(run=serve_runs())
    @settings(max_examples=12, deadline=None)
    def test_device_busy_time_tiles_exactly_across_tenants(self, run):
        tenants, _, trace, policy = run
        service, _ = _run(tenants, trace, policy)
        accountant = service.accountant
        devices = list(service.safs.array.ssds) + list(service.safs.array.spares)
        for ssd in devices:
            # Replaying the attributed charges in order reproduces the
            # device's own float accumulation bit for bit: the split is
            # a true partition of device time, not an approximation.
            assert accountant.replay_busy(ssd.device_index) == ssd.busy_time

    @given(run=serve_runs())
    @settings(max_examples=12, deadline=None)
    def test_no_query_waits_unboundedly(self, run):
        tenants, _, trace, policy = run
        _, report = _run(tenants, trace, policy)
        if not report.records:
            return
        longest_job = max(r.finish_time - r.start_time for r in report.records)
        for record in report.records:
            # Backlog: same-tenant queries in flight when this one
            # arrived — each must drain through the tenant's own quota.
            backlog = sum(
                1
                for other in report.records
                if other.tenant == record.tenant
                and other.arrival_time < record.arrival_time
                and other.finish_time > record.arrival_time
            )
            bound = STARVATION_BOUND_S + (backlog + 1) * longest_job
            assert record.queue_wait <= bound

    @given(run=serve_runs())
    @settings(max_examples=12, deadline=None)
    def test_quota_waits_cover_every_delayed_start(self, run):
        tenants, _, trace, policy = run
        _, report = _run(tenants, trace, policy)
        delayed = sum(1 for r in report.records if r.queue_wait > 0.0)
        # Every delayed start was counted as a quota wait (the converse
        # need not hold: a blocked arrival can still start on time).
        assert report.quota_waits >= delayed
