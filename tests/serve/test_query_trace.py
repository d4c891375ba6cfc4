"""End-to-end query tracing: the issue's acceptance criteria.

One adversarial serve run — queue-cap shedding, brownout degradation
and running-job deadline cancellation all firing — must yield, per
query id, a complete admission→outcome critical path from
:func:`repro.obs.query_path`:

- a **shed** query: queued, then shed, and *nothing else* — it never
  became a job, so no engine spans carry its id;
- a **brownout-degraded** query: queued → admitted (``degraded``) →
  iteration barriers and I/O → completed, every engine span tagged;
- a **deadline-cancelled** query: queued → admitted → barriers →
  deadline-abort → aborted, with the abort's iteration recorded.

The burn-rate events the same run produces must be consistent with the
:class:`ServiceReport` event log (time-ordered, inside the run, valid
``repro.slo/v1`` document), and a *batch* run armed with the same
observer type must carry no query records at all — the serving-layer
tagging is invisible outside the service.
"""

import numpy as np
import pytest

from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine, run_algorithm
from repro.graph.builder import build_directed
from repro.obs import (
    Observer,
    TimelineSampler,
    arm,
    build_slo_report,
    query_path,
    to_jsonl,
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


def _image():
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 120, size=(600, 2), dtype=np.int64)
    return build_directed(edges, 120, name="trace-accept")


#: Tight deadline + brownout + small per-tenant queue cap: one run in
#: which sheds, degraded admissions and running-job deadline aborts all
#: occur (pinned below — the fixture fails loudly if the mix drifts).
def _traced_run():
    tenants = [
        TenantSpec(
            name="acme",
            weight=2.0,
            max_concurrent=2,
            deadline_s=0.001,
            slo_latency_s=0.003,
            slo_availability=0.95,
        ),
        TenantSpec(name="globex", max_concurrent=1, queue_cap=2, degradable=False),
    ]
    traffics = [
        TenantTraffic(tenant="acme", rate_qps=12_000.0),
        TenantTraffic(tenant="globex", rate_qps=6000.0, apps=("bfs", "wcc")),
    ]
    trace = generate_trace(traffics, 0.008, seed=5)
    config = ServiceConfig(
        policy="fair",
        pr_iterations=5,
        overload=OverloadConfig(
            tenant_queue_cap=12,
            global_queue_cap=24,
            enforce_deadlines=True,
            brownout=True,
            wait_budget_s=0.001,
        ),
    )
    observer = Observer()
    timeline = TimelineSampler()
    service = GraphService(
        _image(), tenants, config, observer=observer, timeline=timeline
    )
    report = service.serve(trace)
    return service, observer, timeline, report


@pytest.fixture(scope="module")
def run():
    return _traced_run()


def _events(path):
    return [r["event"] for r in path if r["type"] == "query"]


class TestQueryPaths:
    def test_run_produces_all_three_outcome_classes(self, run):
        _, _, _, report = run
        assert report.shed > 0
        assert report.deadline_aborts > 0
        assert any(r.degraded and r.ok for r in report.records)

    def test_shed_query_path_is_queued_then_shed(self, run):
        _, observer, _, report = run
        shed = report.sheds[0]
        path = query_path(observer, shed.index)
        assert _events(path) == ["queued", "shed"]
        # A shed query never became a job: no engine spans carry it.
        assert all(r["type"] == "query" for r in path)
        shed_record = path[-1]
        assert shed_record["reason"] == shed.reason
        assert shed_record["time"] == shed.shed_time
        assert shed_record["age"] == pytest.approx(shed.age)

    def test_degraded_query_path_runs_admission_to_completion(self, run):
        _, observer, _, report = run
        record = next(r for r in report.records if r.degraded and r.ok)
        path = query_path(observer, record.index)
        events = _events(path)
        assert events[0] == "queued"
        assert "admitted" in events and events[-1] == "completed"
        admitted = next(r for r in path if r.get("event") == "admitted")
        assert admitted["degraded"] is True
        assert admitted["queue_wait"] == pytest.approx(record.queue_wait)
        # The engine spans its steps produced are tagged and joined in.
        types = {r["type"] for r in path}
        assert "iteration" in types and "io" in types
        barriers = [r for r in path if r.get("event") == "barrier"]
        assert barriers  # at least one iteration barrier crossed
        completed = path[-1]
        assert completed["latency"] == pytest.approx(record.latency)
        assert completed["iterations"] == record.iterations

    def test_deadline_cancelled_query_path_ends_in_abort(self, run):
        _, observer, _, report = run
        record = next(
            r
            for r in report.records
            if not r.ok and r.abort_reason and "deadline" in r.abort_reason
        )
        path = query_path(observer, record.index)
        events = _events(path)
        assert events[0] == "queued"
        assert "admitted" in events
        assert "deadline-abort" in events
        assert events[-1] == "aborted"
        assert events.index("admitted") < events.index("deadline-abort")
        abort = next(r for r in path if r.get("event") == "deadline-abort")
        assert abort["iteration"] <= record.iterations
        aborted = path[-1]
        assert aborted["reason"] == record.abort_reason

    def test_every_path_is_time_ordered_and_single_query(self, run):
        _, observer, _, report = run
        for record in report.records[:10]:
            qid = record.index
            path = query_path(observer, qid)
            lifecycle = [r for r in path if r["type"] == "query"]
            times = [r["time"] for r in lifecycle]
            assert times == sorted(times)
            assert all(r["query"] == qid for r in path)


class TestBurnEventsAgainstServiceLog:
    def test_slo_events_interleave_with_overload_events(self, run):
        service, _, timeline, report = run
        assert report.slo is not None and report.slo["events"]
        duration = report.duration_s
        for event in report.slo["events"]:
            assert 0.0 <= event["time"] <= duration
            assert event["tenant"] == "acme"  # the only declaring tenant
        doc = build_slo_report(report, service.slo, timeline, label="accept")
        assert validate_slo_report(doc) == []

    def test_burn_reflects_actual_badness(self, run):
        _, _, _, report = run
        row = report.slo["tenants"]["acme"]["availability"]
        bad = sum(1 for s in report.sheds if s.tenant == "acme") + sum(
            1 for r in report.records if r.tenant == "acme" and not r.ok
        )
        good = sum(1 for r in report.records if r.tenant == "acme" and r.ok)
        assert row["bad"] == bad
        assert row["good"] == good


class TestBatchRunsStayUntagged:
    def test_batch_trace_carries_no_query_records(self):
        engine = make_engine(load_dataset("page-sim"))
        observer = arm(engine)
        run_algorithm(engine, "pr", max_iterations=5)
        assert observer.query_spans == []
        assert '"query"' not in to_jsonl(observer)
