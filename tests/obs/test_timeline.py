"""The timeline sampler: deterministic windows, zero-cost disarmed.

Three contracts pinned here (the issue's S3 checklist):

1. **Determinism** — two same-seed runs with an armed sampler produce
   byte-identical snapshot streams (``json.dumps`` of the rows).
2. **Zero drift** — arming the sampler never perturbs the run: the
   final ``serve.*`` counters (and the whole counter snapshot) of an
   armed chaos serve are bit-identical to a disarmed one.
3. **Conservation** — windowed ``completed``/``aborted`` counts sum
   exactly to the :class:`ServiceReport` totals, whatever the seed and
   window length (a hypothesis property; late completions land in the
   open window, never dropped, never double-counted).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import build_directed
from repro.obs import TimelineSampler
from repro.obs import registry as reg
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.sim.faults import DeviceFailure, FaultPlan, FaultPolicy, TransientErrors


def _image():
    rng = np.random.default_rng(0)
    n, m = 120, 600
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    return build_directed(edges, n, name="timeline-prop")


IMAGE = _image()

TENANTS = [
    TenantSpec(name="acme", weight=2.0, max_concurrent=3),
    TenantSpec(name="globex", max_concurrent=2),
]
TRAFFICS = [
    TenantTraffic(
        tenant="acme", rate_qps=3000.0, burst_factor=4.0, burst_fraction=0.2
    ),
    TenantTraffic(tenant="globex", rate_qps=1500.0, apps=("bfs", "wcc")),
]

#: Recoverable chaos + overload control: the adversarial setting the
#: zero-drift contract has to hold under.
CHAOS_PLAN = FaultPlan(
    [
        TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
        DeviceFailure(device=11, at=0.002),
    ],
    seed=42,
)
CHAOS_POLICY = FaultPolicy(
    max_retries=12, retry_backoff=200e-6, request_timeout=0.002
)


def _chaos_run(seed, timeline=None, duration=0.01):
    trace = generate_trace(TRAFFICS, duration, seed=seed)
    config = ServiceConfig(
        policy="fair",
        pr_iterations=3,
        overload=OverloadConfig(
            tenant_queue_cap=8,
            global_queue_cap=16,
            brownout=True,
            wait_budget_s=0.002,
        ),
    )
    service = GraphService(
        IMAGE,
        TENANTS,
        config,
        fault_plan=CHAOS_PLAN,
        fault_policy=CHAOS_POLICY,
        timeline=timeline,
    )
    report = service.serve(trace)
    return service, report


class TestTimelineConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimelineSampler(interval_s=0.0)
        with pytest.raises(ValueError):
            TimelineSampler(interval_s=-1.0)

    def test_unbound_sampler_is_disarmed_and_finish_is_a_noop(self):
        sampler = TimelineSampler()
        assert not sampler.armed
        sampler.finish(1.0)  # never bound: nothing to close
        assert sampler.snapshots == []


class TestDeterminism:
    def test_same_seed_byte_identical_snapshot_stream(self):
        _, _ = _chaos_run(7)  # warm nothing — each run is independent
        one = TimelineSampler()
        _chaos_run(7, timeline=one)
        two = TimelineSampler()
        _chaos_run(7, timeline=two)
        assert json.dumps(one.snapshots, sort_keys=True) == json.dumps(
            two.snapshots, sort_keys=True
        )
        assert one.to_markdown() == two.to_markdown()

    def test_rows_cover_every_tenant_every_window_in_order(self):
        sampler = TimelineSampler()
        _chaos_run(7, timeline=sampler)
        assert sampler.snapshots
        windows = sorted({row["window"] for row in sampler.snapshots})
        assert windows == list(range(len(windows)))
        for window in windows:
            rows = [r for r in sampler.snapshots if r["window"] == window]
            assert [r["tenant"] for r in rows] == ["acme", "globex"]


class TestZeroDrift:
    def test_armed_chaos_serve_counters_bit_identical_to_disarmed(self):
        armed_service, armed_report = _chaos_run(
            11, timeline=TimelineSampler()
        )
        plain_service, plain_report = _chaos_run(11, timeline=None)
        armed_counters = armed_service.stats.snapshot()
        plain_counters = plain_service.stats.snapshot()
        assert armed_counters == plain_counters
        serve_keys = [k for k in armed_counters if k.startswith("serve.")]
        assert serve_keys  # the serve family actually flushed
        assert armed_report.to_dict() == plain_report.to_dict()

    def test_gauge_series_live_outside_counter_snapshots(self):
        service, _ = _chaos_run(11, timeline=TimelineSampler())
        metrics = service.stats.metrics_snapshot()
        series_names = list(metrics["series"])
        assert f"{reg.GAUGE_SERVE_WINDOW_THROUGHPUT}.acme" in series_names
        assert f"{reg.GAUGE_SERVE_WINDOW_P99}.globex" in series_names
        assert reg.GAUGE_SERVE_BROWNOUT_STATE in series_names
        assert reg.GAUGE_SERVE_GLOBAL_QUEUE_DEPTH in series_names
        # Every sampled series is registry-declared.
        assert reg.unknown_gauges(series_names) == []
        # And none of them leaked into the counter dict.
        assert not any(
            name in service.stats.snapshot() for name in series_names
        )


@st.composite
def timeline_runs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    interval = draw(st.sampled_from([0.001, 0.002, 0.005, 0.02]))
    duration = draw(st.sampled_from([0.004, 0.008]))
    return seed, interval, duration


class TestConservation:
    @settings(max_examples=8, deadline=None)
    @given(run=timeline_runs())
    def test_window_counts_sum_to_report_totals(self, run):
        seed, interval, duration = run
        sampler = TimelineSampler(interval_s=interval)
        _, report = _chaos_run(seed, timeline=sampler, duration=duration)
        assert (
            sum(row["completed"] for row in sampler.snapshots)
            == report.completed
        )
        assert (
            sum(row["aborted"] for row in sampler.snapshots) == report.aborted
        )
        # Nominal-interval throughput is consistent with the counts.
        for row in sampler.snapshots:
            assert row["throughput_qps"] == pytest.approx(
                row["completed"] / interval
            )
