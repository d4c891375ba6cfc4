"""Chaos tests for the deterministic fault-injection layer.

Covers the fault taxonomy point by point (latency spikes, stuck queues,
transient read errors, whole-SSD failures), the SAFS recovery machinery
(retry with backoff, per-attempt timeouts, degraded-mode rerouting), and
the determinism guarantee: the same (seed, plan) replays bit for bit.
"""

import math

import pytest

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    LatencySpike,
    StuckQueue,
    TransientErrors,
    UnrecoverableIOError,
    fault_coin,
)
from repro.sim.ssd import SSD, SSDConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.safs.reads import lookup, submit_reads
from tests.sim.reference_device import OracleSSD


def _faulty_safs(plan, policy=None, num_ssds=4, stripe_pages=2, cache_bytes=1 << 20):
    array = SSDArray(
        SSDArrayConfig(num_ssds=num_ssds, stripe_pages=stripe_pages),
        fault_plan=plan,
    )
    return SAFS(
        array,
        SAFSConfig(page_size=4096, cache_bytes=cache_bytes),
        stats=array.stats,
        fault_policy=policy,
    )


class TestFaultPlanQueries:
    def test_dead_window(self):
        plan = FaultPlan([DeviceFailure(device=2, at=1.0, until=2.0)])
        assert not plan.is_dead(2, 0.5)
        assert plan.is_dead(2, 1.0)
        assert plan.is_dead(2, 1.999)
        assert not plan.is_dead(2, 2.0)
        assert not plan.is_dead(1, 1.5)
        assert plan.dead_until(2, 1.5) == 2.0

    def test_permanent_failure(self):
        plan = FaultPlan([DeviceFailure(device=0, at=0.25)])
        assert plan.is_dead(0, 1e9)

    def test_stall_release(self):
        plan = FaultPlan([StuckQueue(device=1, start=1.0, end=3.0)])
        assert plan.stall_release(1, 0.5) == 0.5
        assert plan.stall_release(1, 2.0) == 3.0
        assert plan.stall_release(1, 3.0) == 3.0
        assert plan.stall_release(0, 2.0) == 2.0

    def test_spike_factors_stack(self):
        plan = FaultPlan(
            [
                LatencySpike(device=0, start=0.0, end=2.0, factor=2.0),
                LatencySpike(device=0, start=1.0, end=3.0, factor=3.0),
            ]
        )
        assert plan.service_factor(0, 0.5) == 2.0
        assert plan.service_factor(0, 1.5) == 6.0
        assert plan.service_factor(0, 2.5) == 3.0
        assert plan.service_factor(0, 3.5) == 1.0

    def test_read_error_deterministic(self):
        plan = FaultPlan(
            [TransientErrors(device=0, start=0.0, end=1.0, probability=0.5)],
            seed=7,
        )
        draws = [plan.read_error(0, i, 0.5) for i in range(200)]
        assert draws == [plan.read_error(0, i, 0.5) for i in range(200)]
        assert any(draws) and not all(draws)
        # Outside the window nothing fails.
        assert not any(plan.read_error(0, i, 2.0) for i in range(200))

    def test_coin_is_uniform_ish_and_seed_sensitive(self):
        draws = [fault_coin(1, 0, i) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.05
        assert draws != [fault_coin(2, 0, i) for i in range(1000)]

    def test_devices_listed(self):
        plan = FaultPlan(
            [
                DeviceFailure(device=3, at=1.0),
                StuckQueue(device=1, start=0.0, end=1.0),
            ]
        )
        assert plan.devices() == (1, 3)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            LatencySpike(device=0, start=1.0, end=1.0, factor=2.0)
        with pytest.raises(ValueError):
            LatencySpike(device=0, start=0.0, end=1.0, factor=0.0)
        with pytest.raises(ValueError):
            TransientErrors(device=0, start=0.0, end=1.0, probability=1.5)
        with pytest.raises(ValueError):
            StuckQueue(device=0, start=2.0, end=1.0)
        with pytest.raises(ValueError):
            DeviceFailure(device=0, at=2.0, until=2.0)
        with pytest.raises(TypeError):
            FaultPlan(["not a fault"])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(retry_backoff=-1.0)
        with pytest.raises(ValueError):
            FaultPolicy(request_timeout=0.0)
        assert FaultPolicy(retry_backoff=1e-3).backoff(3) == 4e-3


class TestSSDFaults:
    def test_dead_device_rejects_without_service(self):
        plan = FaultPlan([DeviceFailure(device=0, at=0.0)])
        ssd = SSD(fault_plan=plan, device_index=0)
        outcome = ssd.submit_request(0.5, 4)
        assert not outcome.ok and outcome.error == "dead"
        assert outcome.service == 0.0 and outcome.time == 0.5
        assert ssd.busy_time == 0.0
        assert ssd.stats.get("faults.dead_requests") == 1

    def test_stuck_queue_delays_start(self):
        plan = FaultPlan([StuckQueue(device=0, start=0.0, end=0.01)])
        faulty = SSD(fault_plan=plan, device_index=0)
        clean = SSD()
        done_faulty = faulty.submit_request(0.001, 1)
        done_clean = clean.submit_request(0.01, 1)
        assert done_faulty.ok
        assert done_faulty.time == done_clean.time
        assert faulty.stall_time == pytest.approx(0.009)
        assert faulty.stats.get("faults.stalled_requests") == 1

    def test_latency_spike_inflates_service(self):
        plan = FaultPlan([LatencySpike(device=0, start=0.0, end=1.0, factor=3.0)])
        faulty = SSD(fault_plan=plan, device_index=0)
        clean = SSD()
        f = faulty.submit_request(0.0, 8)
        c = clean.submit_request(0.0, 8)
        assert f.ok and f.service == pytest.approx(3.0 * c.service)
        assert faulty.stats.get("faults.spiked_requests") == 1

    def test_transient_error_charges_service(self):
        plan = FaultPlan(
            [TransientErrors(device=0, start=0.0, end=1.0, probability=1.0)]
        )
        ssd = SSD(fault_plan=plan, device_index=0)
        outcome = ssd.submit_request(0.0, 2)
        assert not outcome.ok and outcome.error == "transient"
        # The device did the work: the attempt occupies the queue and the
        # failure is only detected at completion time.
        assert outcome.service == ssd.service_time(2)
        assert outcome.time == ssd.busy_until + ssd.config.read_latency
        assert ssd.busy_time == outcome.service

    @pytest.mark.parametrize("pages", [0, -3])
    def test_dead_device_rejects_empty_reads_like_a_live_one(self, pages):
        plan = FaultPlan([DeviceFailure(device=0, at=0.0)])
        for ssd in (SSD(fault_plan=plan, device_index=0), SSD()):
            with pytest.raises(ValueError, match="at least one page"):
                ssd.submit_request(0.0, pages)

    def test_no_plan_is_bit_identical_to_legacy(self):
        oracle = OracleSSD(SSDConfig(), StatsCollector())
        ssd = SSD(fault_plan=None)
        seq = [(0.0, 1), (0.0001, 7), (0.01, 3), (0.010001, 64)]
        for arrival, pages in seq:
            assert oracle.submit(arrival, pages) == ssd.submit_request(arrival, pages).time
        assert oracle.busy_time == ssd.busy_time
        assert oracle.busy_until == ssd.busy_until

    def test_reset_clears_all_fault_state(self):
        """Regression: reset() must clear *every* mutable field — a stale
        attempt ordinal or stall total would make a reset device replay a
        fault plan differently from a fresh one."""
        plan = FaultPlan(
            [
                TransientErrors(device=0, start=0.0, end=1.0, probability=0.5),
                StuckQueue(device=0, start=0.0, end=0.001),
            ],
            seed=3,
        )
        used = SSD(fault_plan=plan, device_index=0)
        for i in range(20):
            used.submit_request(i * 1e-5, 1 + i % 4)
        used.reset()
        fresh = SSD(fault_plan=plan, device_index=0, stats=used.stats)
        mutable = lambda ssd: {
            k: v
            for k, v in vars(ssd).items()
            if k not in ("config", "stats", "name", "fault_plan", "device_index")
        }
        assert mutable(used) == mutable(fresh)
        replay = [(i * 1e-5, 1 + i % 4) for i in range(20)]
        used_outcomes = [used.submit_request(t, p) for t, p in replay]
        fresh_outcomes = [fresh.submit_request(t, p) for t, p in replay]
        assert [
            (o.time, o.ok, o.error, o.service) for o in used_outcomes
        ] == [(o.time, o.ok, o.error, o.service) for o in fresh_outcomes]

    def test_array_reset_restores_fault_replay(self):
        plan = FaultPlan(
            [TransientErrors(device=0, start=0.0, end=1.0, probability=0.3)],
            seed=11,
        )
        array = SSDArray(
            SSDArrayConfig(num_ssds=2, stripe_pages=2), fault_plan=plan
        )
        first = [array.submit_run(i % 2, i * 1e-5, 1) for i in range(30)]
        array.reset()
        second = [array.submit_run(i % 2, i * 1e-5, 1) for i in range(30)]
        assert [(o.time, o.ok, o.error) for o in first] == [
            (o.time, o.ok, o.error) for o in second
        ]


class TestArrayDegradedMode:
    def test_reroute_target_skips_dead_devices(self):
        plan = FaultPlan(
            [
                DeviceFailure(device=1, at=0.0),
                DeviceFailure(device=2, at=0.0, until=5.0),
            ]
        )
        array = SSDArray(SSDArrayConfig(num_ssds=4), fault_plan=plan)
        assert array.reroute_target(1, 1.0) == 3
        assert array.reroute_target(1, 6.0) == 2
        all_dead = FaultPlan([DeviceFailure(device=d, at=0.0) for d in range(3)])
        array = SSDArray(SSDArrayConfig(num_ssds=3), fault_plan=all_dead)
        assert array.reroute_target(0, 1.0) is None


def _read_all(safs, file, chunk=4096 * 3):
    """Issue merged reads covering the file; returns each read's
    completion time and the total CPU spent."""
    return submit_reads(
        safs,
        [
            (file, off, min(chunk, file.size - off))
            for off in range(0, file.size, chunk)
        ],
    )


class TestSAFSRecovery:
    def test_transient_errors_recovered_by_retry(self):
        plan = FaultPlan(
            [TransientErrors(device=1, start=0.0, end=10.0, probability=0.5)],
            seed=9,
        )
        safs = _faulty_safs(plan, FaultPolicy(max_retries=10, retry_backoff=1e-4))
        file = safs.create_file("data", bytes(4096 * 64))
        completions, _ = _read_all(safs, file)
        assert len(completions) == 22
        assert safs.stats.get("faults.transient_errors") > 0
        assert safs.stats.get("faults.retries") == safs.stats.get(
            "faults.transient_errors"
        )

    def test_retry_backoff_charged_in_simulated_time(self):
        plan = FaultPlan(
            [TransientErrors(device=0, start=0.0, end=10.0, probability=1.0)],
            seed=1,
        )
        # One device, probability 1 in [0, 10): every attempt before t=10
        # fails; the 2^k backoff walks the retries past the window edge
        # and the read finally succeeds in simulated time > 10.
        safs = _faulty_safs(
            plan,
            FaultPolicy(max_retries=30, retry_backoff=0.7),
            num_ssds=1,
        )
        file = safs.create_file("data", bytes(4096))
        completions, _ = _read_all(safs, file)
        assert completions[0] > 10.0
        assert safs.stats.get("faults.retries") >= 4

    def test_dead_device_rerouted(self):
        plan = FaultPlan([DeviceFailure(device=2, at=0.0)])
        safs = _faulty_safs(plan)
        file = safs.create_file("data", bytes(4096 * 64))
        completions, _ = _read_all(safs, file)
        assert len(completions) == 22
        assert safs.stats.get("faults.rerouted_requests") > 0
        assert safs.stats.get("faults.rerouted_pages") > 0
        # The dead device never serviced anything.
        assert safs.array.ssds[2].busy_time == 0.0

    def test_reroute_disabled_aborts(self):
        plan = FaultPlan([DeviceFailure(device=2, at=0.0)])
        safs = _faulty_safs(
            plan, FaultPolicy(max_retries=2, retry_backoff=1e-4, reroute_on_dead=False)
        )
        file = safs.create_file("data", bytes(4096 * 64))
        with pytest.raises(UnrecoverableIOError, match="dead"):
            _read_all(safs, file)

    def test_timeout_detected_and_retried(self):
        # The stuck queue holds the first arrivals past the timeout; the
        # retries land after the window and succeed.
        plan = FaultPlan([StuckQueue(device=0, start=0.0, end=0.05)])
        safs = _faulty_safs(
            plan,
            FaultPolicy(max_retries=10, retry_backoff=1e-3, request_timeout=0.01),
            num_ssds=1,
        )
        file = safs.create_file("data", bytes(4096 * 2))
        completions, _ = _read_all(safs, file)
        assert safs.stats.get("faults.timeouts") > 0
        assert (completions > 0.05).all()

    def test_unrecoverable_raises_not_hangs(self):
        plan = FaultPlan(
            [TransientErrors(device=0, start=0.0, end=math.inf, probability=1.0)],
            seed=2,
        )
        safs = _faulty_safs(
            plan, FaultPolicy(max_retries=3, retry_backoff=1e-4), num_ssds=1
        )
        file = safs.create_file("data", bytes(4096))
        with pytest.raises(UnrecoverableIOError, match="transient"):
            _read_all(safs, file)
        # Retries were attempted before giving up.
        assert safs.stats.get("faults.retries") == 3

    def test_aborted_dispatch_rolls_back_cache(self):
        # Device 1 (pages 2-3) dies with reroute disabled.  Warming page 1
        # splits the next dispatch into two miss runs: pages [0] on the
        # healthy device 0 — fetched and cached — then pages [2, 3] on the
        # dead device, which aborts the dispatch and must roll page 0 back
        # out of the cache.
        plan = FaultPlan([DeviceFailure(device=1, at=0.0)])
        safs = _faulty_safs(
            plan,
            FaultPolicy(max_retries=1, retry_backoff=1e-4, reroute_on_dead=False),
            num_ssds=4,
            stripe_pages=2,
        )
        file = safs.create_file("data", bytes(4096 * 16))
        submit_reads(safs, [(file, 4096, 4096)])
        assert len(safs.cache) == 1
        with pytest.raises(UnrecoverableIOError):
            submit_reads(safs, [(file, 0, 4096 * 4)])
        assert len(safs.cache) == 1
        assert lookup(safs.cache, file.file_id, 1)
        assert not lookup(safs.cache, file.file_id, 0)
        assert safs.stats.get("faults.invalidated_pages") == 1
        assert safs.stats.get("cache.invalidations") == 1

    def test_replay_is_bit_identical(self):
        plan = FaultPlan(
            [
                TransientErrors(device=0, start=0.0, end=10.0, probability=0.3),
                LatencySpike(device=1, start=0.0, end=1.0, factor=5.0),
                StuckQueue(device=2, start=0.0, end=0.002),
                DeviceFailure(device=3, at=0.001),
            ],
            seed=17,
        )
        policy = FaultPolicy(max_retries=8, retry_backoff=2e-4, request_timeout=0.5)

        def run():
            safs = _faulty_safs(plan, policy)
            file = safs.create_file("data", bytes(4096 * 96))
            completions, cpu = _read_all(safs, file)
            return (
                completions.tolist(),
                cpu,
                safs.stats.snapshot(),
            )

        assert run() == run()

    def test_fault_free_plan_changes_nothing(self):
        """An empty FaultPlan must be observationally identical to None:
        the fault machinery only reshapes behaviour when faults fire."""

        def run(plan):
            safs = _faulty_safs(plan)
            file = safs.create_file("data", bytes(4096 * 64))
            completions, cpu = _read_all(safs, file)
            return completions.tolist(), cpu, safs.stats.snapshot()

        assert run(None) == run(FaultPlan())
