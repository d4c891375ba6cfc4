"""Overload control: bounded queues, shedding, deadlines, brownout.

Three contracts pinned here (see ``docs/overload.md``):

1. **Bounded queues** — whatever the trace, the waiting queue never
   exceeds its per-tenant or global caps, and every offered query is
   accounted for exactly once (completed + aborted + shed == offered).
2. **Determinism** — shed, deadline and brownout decisions are a pure
   function of (config, trace seed): same-seed reruns produce
   byte-identical reports and overload event logs.
3. **The PR 7 invariant survives** — an armed-but-idle overload
   controller leaves the single-tenant serve path bit-identical to the
   batch engine.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine
from repro.algorithms.pagerank import PageRankProgram
from repro.graph.builder import build_directed
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.serve.admission import AdmissionController
from repro.serve.overload import (
    ENTER_SAMPLES,
    EXIT_SAMPLES,
    SAMPLE_PERIOD_S,
    WINDOW_S,
    OverloadController,
    SHED_POLICIES,
    STATE_BROWNOUT,
    STATE_HEALTHY,
    STATE_OVERLOADED,
    STATE_RECOVERING,
)
from repro.serve.traffic import Arrival


def _image():
    rng = np.random.default_rng(0)
    n, m = 120, 600
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    return build_directed(edges, n, name="prop-overload")


IMAGE = _image()


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@st.composite
def overload_runs(draw):
    """A saturating two-tenant run with small queue caps."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    policy = draw(st.sampled_from(["fifo", "fair", "deadline"]))
    shed_policy = draw(st.sampled_from(SHED_POLICIES))
    tenant_cap = draw(st.integers(min_value=1, max_value=4))
    global_cap = draw(st.integers(min_value=2, max_value=6))
    enforce = draw(st.booleans())
    tenants = [
        TenantSpec(
            name="a",
            weight=2.0,
            max_concurrent=2,
            deadline_s=0.01 if enforce else None,
        ),
        TenantSpec(name="b", max_concurrent=1, queue_cap=1),
    ]
    traffics = [
        TenantTraffic(
            tenant="a",
            rate_qps=6000.0,
            burst_factor=4.0,
            burst_fraction=0.2,
            burst_period_s=0.002,
        ),
        TenantTraffic(tenant="b", rate_qps=3000.0, apps=("bfs", "wcc")),
    ]
    trace = generate_trace(traffics, 0.004, seed=seed)
    config = ServiceConfig(
        policy=policy,
        pr_iterations=3,
        overload=OverloadConfig(
            tenant_queue_cap=tenant_cap,
            global_queue_cap=global_cap,
            shed_policy=shed_policy,
            enforce_deadlines=enforce,
        ),
    )
    return tenants, trace, config


class TestBoundedQueues:
    @settings(max_examples=10, deadline=None)
    @given(overload_runs())
    def test_queues_never_exceed_caps_and_accounting_balances(self, run):
        tenants, trace, config = run
        service = GraphService(IMAGE, tenants, config)
        report = service.serve(trace)
        overload = report.overload
        assert overload["peak_queue_depth"] <= config.overload.global_queue_cap
        caps = {"a": config.overload.tenant_queue_cap, "b": 1}
        for name, peak in overload["peak_tenant_depth"].items():
            assert peak <= caps[name]
        # Conservation: every arrival ran to completion, aborted, or was
        # refused (queue-cap shed or queued-deadline drop) — exactly once.
        assert report.completed + report.aborted + report.shed == report.offered
        assert len(report.records) + len(report.sheds) == report.offered


class TestDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(overload_runs())
    def test_same_seed_reruns_are_byte_identical(self, run):
        tenants, trace, config = run
        one = GraphService(IMAGE, tenants, config).serve(trace)
        two = GraphService(IMAGE, tenants, config).serve(trace)
        assert _report_bytes(one) == _report_bytes(two)
        # The decision log specifically — sheds, deadline verdicts and
        # state transitions in order — is what the bench digests.
        assert one.overload["events"] == two.overload["events"]

    @pytest.mark.parametrize("shed_policy", SHED_POLICIES)
    def test_each_shed_policy_is_deterministic_under_brownout(self, shed_policy):
        tenants = [
            TenantSpec(name="a", max_concurrent=2, deadline_s=0.01),
            TenantSpec(name="b", max_concurrent=1, degradable=False),
        ]
        traffics = [
            TenantTraffic(tenant="a", rate_qps=8000.0),
            TenantTraffic(tenant="b", rate_qps=4000.0, apps=("bfs",)),
        ]
        trace = generate_trace(traffics, 0.004, seed=7)
        config = ServiceConfig(
            policy="fair",
            pr_iterations=3,
            overload=OverloadConfig(
                tenant_queue_cap=2,
                global_queue_cap=4,
                shed_policy=shed_policy,
                enforce_deadlines=True,
                brownout=True,
                wait_budget_s=0.002,
            ),
        )
        one = GraphService(IMAGE, tenants, config).serve(trace)
        two = GraphService(IMAGE, tenants, config).serve(trace)
        assert _report_bytes(one) == _report_bytes(two)
        assert one.shed > 0  # the run actually exercised shedding


class TestBatchIdentityWithOverloadArmed:
    def test_armed_but_idle_controller_changes_nothing(self):
        """PR 7's acceptance invariant survives the overload layer: with
        generous caps and no pressure, a single query at t=0 replays the
        batch engine bit for bit."""
        image = load_dataset("twitter-sim")
        engine = make_engine(
            image, cache_bytes=1 << 20, num_threads=32, range_shift=8
        )
        program = PageRankProgram(image.num_vertices)
        batch = engine.run(program, max_iterations=5)

        service = GraphService(
            image,
            [TenantSpec(name="solo", max_concurrent=1, deadline_s=10.0)],
            ServiceConfig(
                policy="fifo",
                pr_iterations=5,
                overload=OverloadConfig(
                    enforce_deadlines=True, brownout=True
                ),
            ),
        )
        report = service.serve(
            [Arrival(time=0.0, tenant="solo", app="pr", index=0)]
        )
        assert report.completed == 1 and report.shed == 0
        record = report.records[0]
        assert record.result.runtime == batch.runtime
        assert record.result.cpu_busy == batch.cpu_busy
        assert record.result.counters == batch.counters
        assert not record.degraded
        assert report.overload["state"] == STATE_HEALTHY


class TestDeadlineEnforcement:
    def test_expired_and_infeasible_queries_are_cut_short(self):
        tenants = [TenantSpec(name="a", max_concurrent=1, deadline_s=0.0005)]
        traffics = [TenantTraffic(tenant="a", rate_qps=8000.0)]
        trace = generate_trace(traffics, 0.004, seed=3)
        config = ServiceConfig(
            policy="fifo",
            pr_iterations=5,
            overload=OverloadConfig(
                tenant_queue_cap=8,
                global_queue_cap=24,
                enforce_deadlines=True,
            ),
        )
        report = GraphService(IMAGE, tenants, config).serve(trace)
        kinds = {event["kind"] for event in report.overload["events"]}
        # A 0.5ms deadline against a growing backlog: queued queries
        # expire before starting, and running jobs are cancelled at a
        # barrier once the estimate says they cannot land.
        assert "deadline-expired" in kinds
        assert "deadline-abort" in kinds
        assert report.deadline_aborts > 0
        # Every running cancel still produced a record with a partial
        # result (the IterationAborted surface), never a silent drop.
        aborted = [r for r in report.records if not r.ok]
        assert len(aborted) >= report.deadline_aborts
        for record in aborted:
            assert record.result.iterations >= 0
            assert record.finish_time >= record.start_time
        assert report.completed + report.aborted + report.shed == report.offered


class TestBrownoutDegradation:
    @pytest.fixture(scope="class")
    def report(self):
        tenants = [
            TenantSpec(name="a", weight=2.0, max_concurrent=2),
            TenantSpec(name="b", max_concurrent=1, degradable=False),
        ]
        traffics = [
            TenantTraffic(tenant="a", rate_qps=12_000.0),
            TenantTraffic(tenant="b", rate_qps=6000.0, apps=("pr",)),
        ]
        trace = generate_trace(traffics, 0.006, seed=5)
        config = ServiceConfig(
            policy="fair",
            pr_iterations=5,
            overload=OverloadConfig(
                tenant_queue_cap=12,
                global_queue_cap=24,
                brownout=True,
                wait_budget_s=0.002,
            ),
        )
        return GraphService(IMAGE, tenants, config).serve(trace)

    def test_brownout_enters_and_degrades_only_degradable_tenants(self, report):
        states = {
            event["detail"]
            for event in report.overload["events"]
            if event["kind"] == "state"
        }
        assert any(s.endswith("->brownout") for s in states)
        assert report.overload["brownout_seconds"] > 0.0
        assert report.overload["degraded_jobs"]["a"] > 0
        assert report.overload["degraded_jobs"]["b"] == 0  # degradable=False
        assert report.tenants["a"].degraded == report.overload["degraded_jobs"]["a"]

    def test_degraded_jobs_run_fewer_iterations(self, report):
        degraded = [r for r in report.records if r.degraded and r.ok]
        assert degraded
        for record in degraded:
            assert record.result.iterations <= 2  # brownout_pr_iterations


class TestControllerUnits:
    class _Waiting:
        def __init__(self, time, index):
            self.arrival = Arrival(time=time, tenant="t", app="pr", index=index)

    def _controller(self, shed_policy):
        return OverloadController(
            OverloadConfig(shed_policy=shed_policy),
            {"t": TenantSpec(name="t")},
        )

    def test_choose_victim_per_policy(self):
        oldest = self._Waiting(0.001, 0)
        middle = self._Waiting(0.002, 1)
        newest = self._Waiting(0.003, 2)
        queue = [oldest, middle, newest]
        # The scheduler would serve `middle` last under this key.
        order_key = {0: 0.0, 1: 9.0, 2: 1.0}
        key = lambda w: order_key[w.arrival.index]
        assert self._controller("reject-newest").choose_victim(queue, key) is newest
        assert self._controller("by-priority").choose_victim(queue, key) is middle

    def test_deadline_estimator_rules(self):
        ctl = self._controller("reject-newest")
        # Rule 1: deadline already passed.
        assert ctl.deadline_unreachable(
            now=2.0, start=0.0, deadline=1.0, iterations=3,
            max_iterations=5, frontier_size=10,
        )
        # No progress signal yet: never abort blind.
        assert ctl.deadline_unreachable(
            now=0.5, start=0.5, deadline=1.0, iterations=0,
            max_iterations=5, frontier_size=10,
        ) is None
        # Rule 2: capped job, remaining iterations overshoot.
        assert ctl.deadline_unreachable(
            now=0.6, start=0.0, deadline=1.0, iterations=3,
            max_iterations=10, frontier_size=10,
        )
        # Capped job on track: no verdict.
        assert ctl.deadline_unreachable(
            now=0.3, start=0.0, deadline=1.0, iterations=3,
            max_iterations=5, frontier_size=10,
        ) is None
        # Rule 3: uncapped, non-empty frontier, one more round overshoots.
        assert ctl.deadline_unreachable(
            now=0.9, start=0.0, deadline=1.0, iterations=3,
            max_iterations=None, frontier_size=1,
        )
        # Uncapped but drained frontier: about to converge, let it.
        assert ctl.deadline_unreachable(
            now=0.9, start=0.0, deadline=1.0, iterations=3,
            max_iterations=None, frontier_size=0,
        ) is None

    def test_state_machine_walks_the_full_cycle_with_hysteresis(self):
        ctl = OverloadController(
            OverloadConfig(brownout=True), {"t": TenantSpec(name="t")}
        )
        t = [0.0]

        def feed(depth, wait):
            # Every sample lands inside one WINDOW_S, so none ages out.
            t[0] += SAMPLE_PERIOD_S
            ctl.observe(t[0], queue_depth=depth, mean_wait=wait, health_fraction=0.0)

        # One hot sample is not enough (hysteresis).
        feed(24, 0.0)
        assert ctl.state == STATE_HEALTHY
        feed(24, 0.0)
        assert ctl.state == STATE_OVERLOADED
        # Escalate to brownout on sustained extreme pressure.
        feed(24, 0.05)
        feed(24, 0.05)
        assert ctl.state == STATE_BROWNOUT
        # Cool off -> recovering -> healthy (double exit streak).
        for _ in range(EXIT_SAMPLES):
            feed(0, 0.0)
        assert ctl.state == STATE_RECOVERING
        for _ in range(2 * EXIT_SAMPLES):
            feed(0, 0.0)
        assert ctl.state == STATE_HEALTHY
        assert t[0] < WINDOW_S
        assert ctl.transitions == 4
        assert ctl.brownout_seconds > 0.0
        details = [e.detail for e in ctl.events if e.kind == "state"]
        assert details == [
            "healthy->overloaded",
            "overloaded->brownout",
            "brownout->recovering",
            "recovering->healthy",
        ]

    def test_finish_closes_open_brownout_interval(self):
        ctl = OverloadController(
            OverloadConfig(brownout=True), {"t": TenantSpec(name="t")}
        )
        # Streaks reset at each transition, so even extreme pressure
        # escalates one state per ENTER_SAMPLES samples: healthy ->
        # overloaded -> brownout.
        t = 0.0
        for state in (STATE_OVERLOADED, STATE_BROWNOUT):
            for _ in range(ENTER_SAMPLES):
                t += SAMPLE_PERIOD_S
                ctl.observe(t, queue_depth=48, mean_wait=0.1, health_fraction=1.0)
            assert ctl.state == state
        ctl.finish(t + 0.010)
        assert ctl.brownout_seconds == pytest.approx(0.010)

    def test_detector_samples_once_per_period(self):
        # The service's clocked-subscriber shape: note_time is called at
        # frontiers past next_boundary_s, and samples only when a full
        # SAMPLE_PERIOD_S has passed since the last sample.
        seen = []
        ctl = OverloadController(
            OverloadConfig(brownout=True),
            {"t": TenantSpec(name="t")},
            signal=lambda now: seen.append(now) or (0, 0.0, 0.0),
        )
        for now in (0.0, 0.0004, 0.0009, 0.001, 0.0015, 0.0021, 0.0025):
            if now >= ctl.next_boundary_s:
                ctl.note_time(now)
        assert seen == [0.0, 0.001, 0.0021]


class TestValidation:
    def test_overload_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="tenant_queue_cap"):
            OverloadConfig(tenant_queue_cap=0)
        with pytest.raises(ValueError, match="shed policy"):
            OverloadConfig(shed_policy="coin-flip")
        with pytest.raises(ValueError, match="wait_budget_s"):
            OverloadConfig(wait_budget_s=0.0)
        with pytest.raises(ValueError, match="brownout_pr_iterations"):
            OverloadConfig(brownout_pr_iterations=0)

    def test_service_config_rejects_nonpositive_iteration_knobs(self):
        with pytest.raises(ValueError, match="pr_iterations"):
            ServiceConfig(pr_iterations=0)

    def test_tenant_queue_cap_validated(self):
        with pytest.raises(ValueError, match="queue_cap"):
            TenantSpec(name="t", queue_cap=0)


class TestAdmissionUnknownTenant:
    def test_release_and_spec_name_the_stranger(self):
        controller = AdmissionController(
            {"acme": TenantSpec(name="acme"), "globex": TenantSpec(name="globex")}
        )
        for method in (
            controller.release,
            controller.spec,
            controller.can_admit,
            controller.note_quota_wait,
        ):
            with pytest.raises(ValueError, match="unknown tenant 'intruder'"):
                method("intruder")
        try:
            controller.release("intruder")
        except ValueError as exc:
            # The message lists who *is* registered, for debuggability.
            assert "acme" in str(exc) and "globex" in str(exc)

    def test_release_without_running_job_still_rejected(self):
        controller = AdmissionController({"acme": TenantSpec(name="acme")})
        with pytest.raises(ValueError, match="no running job"):
            controller.release("acme")
