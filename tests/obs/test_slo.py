"""Burn-rate tracking: window math, hysteresis, the repro.slo/v1 doc.

The tracker's contract (``docs/observability.md``): per declared
objective it maintains fast/slow sliding windows on the simulated
clock, fires ``burn-start`` when *both* windows burn at or above the
threshold and ``burn-stop`` when the fast window falls back under it,
and the whole thing is a pure function of the outcome stream — two
identical streams give byte-identical summaries and event logs.
"""

import json

import numpy as np
import pytest

from repro.graph.builder import build_directed
from repro.obs import (
    SLO_SCHEMA,
    SLOTracker,
    TimelineSampler,
    build_slo_report,
    format_slo_report,
    validate_slo_report,
)
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)


def _tracker(target=0.9, threshold_s=0.005):
    spec = TenantSpec(
        name="acme",
        max_concurrent=2,
        slo_latency_s=threshold_s,
        slo_target=target,
    )
    return SLOTracker({"acme": spec})


class TestTenantObjectives:
    def test_spec_without_objectives_builds_an_inactive_tracker(self):
        spec = TenantSpec(name="plain", max_concurrent=1)
        assert spec.slo_objectives == {}
        assert not SLOTracker({"plain": spec}).active

    def test_declared_objectives_become_states(self):
        spec = TenantSpec(
            name="acme",
            max_concurrent=1,
            slo_latency_s=0.004,
            slo_target=0.95,
            slo_availability=0.99,
        )
        tracker = SLOTracker({"acme": spec})
        assert tracker.active
        summary = tracker.summary()
        assert set(summary["tenants"]["acme"]) == {"latency", "availability"}
        assert summary["tenants"]["acme"]["latency"]["threshold_s"] == 0.004
        assert summary["tenants"]["acme"]["availability"]["target"] == 0.99


class TestBurnMath:
    def test_good_stream_never_burns(self):
        tracker = _tracker()
        for i in range(50):
            tracker.record("acme", i * 0.001, "completed", latency=0.001)
        assert tracker.events == []
        row = tracker.summary()["tenants"]["acme"]["latency"]
        assert row["good"] == 50 and row["bad"] == 0
        assert row["compliance"] == 1.0
        assert row["burn_seconds"] == 0.0

    def test_burn_starts_only_when_both_windows_cross(self):
        # Slow window 5x the fast one (0.1 s vs 0.02 s): a burst of bad
        # outcomes saturates the fast window immediately but must also
        # push the *slow* window's bad fraction over budget before the
        # event fires.
        tracker = _tracker(target=0.5)  # budget = 0.5
        for i in range(20):
            tracker.record("acme", i * 0.002, "completed", latency=0.001)
        tracker.record("acme", 0.040, "shed")
        # fast window: 10 entries ending at t=0.040 hold 1 bad -> burn
        # 0.2; slow window burn 1/21/0.5 < 1.  No event yet.
        assert tracker.events == []
        # Keep shedding: the fast window saturates quickly (burn 2.0)
        # but the slow window still holds the 20 good outcomes, so the
        # event only fires once the bad outcomes outnumber them.
        for i in range(25):
            tracker.record("acme", 0.042 + i * 0.001, "shed")
        kinds = [e.kind for e in tracker.events]
        assert kinds == ["burn-start"]
        event = tracker.events[0]
        assert event.fast_burn >= 1.0 and event.slow_burn >= 1.0

    def test_burn_stop_fires_when_fast_window_recovers(self):
        tracker = _tracker(target=0.5)
        for i in range(10):
            tracker.record("acme", i * 0.002, "shed")
        assert [e.kind for e in tracker.events] == ["burn-start"]
        # A run of good completions pushes the bad entries out of the
        # fast window: burn-stop, with burn-in-progress time accounted.
        for i in range(30):
            tracker.record(
                "acme", 0.020 + i * 0.002, "completed", latency=0.001
            )
        kinds = [e.kind for e in tracker.events]
        assert kinds == ["burn-start", "burn-stop"]
        row = tracker.summary()["tenants"]["acme"]["latency"]
        assert row["burn_seconds"] > 0.0
        assert not row["burning"]

    def test_slow_latency_counts_against_the_latency_budget(self):
        tracker = _tracker(threshold_s=0.002)
        tracker.record("acme", 0.01, "completed", latency=0.005)  # late
        tracker.record("acme", 0.02, "completed", latency=0.001)  # in time
        tracker.record("acme", 0.03, "aborted", latency=0.001)
        row = tracker.summary()["tenants"]["acme"]["latency"]
        assert row["good"] == 1 and row["bad"] == 2

    def test_availability_only_penalizes_unserved_queries(self):
        spec = TenantSpec(
            name="acme", max_concurrent=1, slo_availability=0.9
        )
        tracker = SLOTracker({"acme": spec})
        tracker.record("acme", 0.01, "completed", latency=9.0)  # slow but served
        tracker.record("acme", 0.02, "shed")
        tracker.record("acme", 0.03, "aborted")
        row = tracker.summary()["tenants"]["acme"]["availability"]
        assert row["good"] == 1 and row["bad"] == 2

    def test_non_monotone_times_are_clamped_to_the_high_water(self):
        # The service finalizes jobs in event-loop order; finish times
        # are not globally monotone.  The tracker clamps, so the event
        # log stays time-ordered (the validator's contract).
        tracker = _tracker(target=0.5)
        tracker.record("acme", 0.020, "shed")
        tracker.record("acme", 0.005, "shed")  # late completion, earlier time
        times = [e.time for e in tracker.events]
        assert times == sorted(times)
        assert all(t >= 0.020 for t in times)

    def test_finish_closes_open_burn_accounting(self):
        tracker = _tracker(target=0.5)
        for i in range(5):
            tracker.record("acme", i * 0.001, "shed")
        assert tracker.summary()["tenants"]["acme"]["latency"]["burning"]
        tracker.finish(0.104)
        row = tracker.summary()["tenants"]["acme"]["latency"]
        assert row["burn_seconds"] == pytest.approx(0.104 - tracker.events[0].time)


def _image():
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 120, size=(600, 2), dtype=np.int64)
    return build_directed(edges, 120, name="slo-report")


def _slo_run(seed=5, timeline=None):
    tenants = [
        TenantSpec(
            name="acme",
            weight=2.0,
            max_concurrent=2,
            slo_latency_s=0.003,
            slo_target=0.95,
            slo_availability=0.9,
        ),
        TenantSpec(name="globex", max_concurrent=1, queue_cap=2),
    ]
    traffics = [
        TenantTraffic(tenant="acme", rate_qps=6000.0),
        TenantTraffic(tenant="globex", rate_qps=3000.0, apps=("bfs", "wcc")),
    ]
    trace = generate_trace(traffics, 0.006, seed=seed)
    config = ServiceConfig(
        policy="fair",
        pr_iterations=3,
        overload=OverloadConfig(tenant_queue_cap=4, global_queue_cap=8),
    )
    service = GraphService(_image(), tenants, config, timeline=timeline)
    report = service.serve(trace)
    return service, report


class TestServiceIntegration:
    def test_service_without_objectives_has_no_tracker(self):
        tenants = [TenantSpec(name="plain", max_concurrent=1)]
        traffics = [TenantTraffic(tenant="plain", rate_qps=500.0)]
        trace = generate_trace(traffics, 0.004, seed=1)
        service = GraphService(_image(), tenants, ServiceConfig(policy="fifo"))
        report = service.serve(trace)
        assert service.slo is None
        assert report.slo is None

    def test_same_seed_byte_identical_slo_summaries(self):
        _, one = _slo_run(seed=5)
        _, two = _slo_run(seed=5)
        assert one.slo is not None
        assert json.dumps(one.slo, sort_keys=True) == json.dumps(
            two.slo, sort_keys=True
        )

    def test_report_carries_summary_and_events_stay_in_run(self):
        _, report = _slo_run(seed=5)
        slo = report.slo
        assert set(slo["tenants"]) == {"acme"}
        times = [e["time"] for e in slo["events"]]
        assert times == sorted(times)
        assert all(0.0 <= t <= report.duration_s for t in times)


class TestSLOReportDoc:
    @pytest.fixture(scope="class")
    def doc(self):
        timeline = TimelineSampler()
        service, report = _slo_run(seed=5, timeline=timeline)
        return build_slo_report(
            report, service.slo, timeline, label="slo-report seed=5"
        )

    def test_round_trip_validates(self, doc):
        assert doc["schema"] == SLO_SCHEMA
        assert validate_slo_report(doc) == []
        # ...and survives JSON serialization.
        assert validate_slo_report(json.loads(json.dumps(doc))) == []

    def test_formatting_mentions_objectives_and_events(self, doc):
        text = format_slo_report(doc)
        assert "acme" in text
        assert "latency" in text and "availability" in text
        if doc["slo"]["events"] or doc["overload_events"]:
            assert "events (burn-rate + overload, merged)" in text

    def test_validator_catches_broken_documents(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["schema"] = "repro.profile/v1"
        assert any("schema" in p for p in validate_slo_report(bad))

        bad = json.loads(json.dumps(doc))
        bad["completed"] += 1
        problems = validate_slo_report(bad)
        assert any("accounting" in p or "timeline" in p for p in problems)

        bad = json.loads(json.dumps(doc))
        bad["slo"]["events"] = [
            {"time": 1.0, "tenant": "acme", "objective": "latency",
             "kind": "burn-start", "fast_burn": 2.0, "slow_burn": 2.0},
            {"time": 0.5, "tenant": "acme", "objective": "latency",
             "kind": "burn-stop", "fast_burn": 0.0, "slow_burn": 1.0},
        ]
        assert any(
            "time-ordered" in p for p in validate_slo_report(bad)
        )

        bad = json.loads(json.dumps(doc))
        del bad["timeline"]
        assert any("timeline" in p for p in validate_slo_report(bad))
