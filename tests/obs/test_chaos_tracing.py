"""Spans under chaos: fault stages are narrated, traces stay deterministic.

Reuses the canonical chaos fixtures of
``tests/core/test_engine_under_faults.py`` — a flaky device, a stuck
queue longer than the request timeout, and one mid-run device failure —
which reliably drive the retry, timeout and reroute/reconstruct paths.
"""

import pytest

from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import run_algorithm
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.obs import arm, build_profile, to_jsonl, validate_profile
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    StuckQueue,
    TransientErrors,
)
from repro.sim.parity import ParityConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig


def chaos_plan():
    return FaultPlan(
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


def make_chaos_engine(parity=False):
    image = load_dataset("twitter-sim")
    array = SSDArray(
        SSDArrayConfig(),
        fault_plan=chaos_plan(),
        parity=ParityConfig() if parity else None,
    )
    safs = SAFS(
        array,
        SAFSConfig(page_size=4096, cache_bytes=scaled_cache_bytes(1.0)),
        stats=array.stats,
        fault_policy=CHAOS_POLICY,
    )
    return GraphEngine(
        image,
        safs=safs,
        config=EngineConfig(
            mode=ExecutionMode.SEMI_EXTERNAL, num_threads=32, range_shift=8
        ),
    )


def chaos_run(parity=False, armed=True):
    engine = make_chaos_engine(parity)
    observer = arm(engine) if armed else None
    result = run_algorithm(engine, "pr", max_iterations=10)
    return engine, observer, result


@pytest.fixture(scope="module")
def mirror_run():
    return chaos_run(parity=False)


@pytest.fixture(scope="module")
def parity_run():
    return chaos_run(parity=True)


def stages_of(observer):
    return {event[0] for span in observer.io_spans for event in span["events"]}


class TestChaosStageEvents:
    def test_retry_and_reroute_stages_recorded(self, mirror_run):
        engine, observer, _ = mirror_run
        stages = stages_of(observer)
        assert {"issued", "cache_lookup", "completed"} <= stages
        assert "retried" in stages
        assert "rerouted" in stages
        assert "timeout" in stages
        # The trace narrates at least as many retries as the counter saw.
        retried = sum(
            1
            for span in observer.io_spans
            for event in span["events"]
            if event[0] == "retried"
        )
        assert retried >= engine.stats.get("faults.retries") > 0

    def test_retried_events_carry_device_and_attempt(self, mirror_run):
        _, observer, _ = mirror_run
        for span in observer.io_spans:
            for event in span["events"]:
                if event[0] == "retried":
                    assert event[2]["attempt"] >= 1
                    assert "device" in event[2]
                if event[0] == "rerouted":
                    assert event[2]["device"] != event[2]["target"]

    def test_parity_reconstruction_stages_recorded(self, parity_run):
        engine, observer, _ = parity_run
        stages = stages_of(observer)
        assert "reconstructed" in stages
        assert engine.stats.get("parity.reconstructions") > 0

    def test_recovery_device_spans_flagged(self, parity_run):
        _, observer, _ = parity_run
        recovery_spans = [s for s in observer.device_spans if s["recovery"]]
        assert recovery_spans  # parity peer reads charge recovery

    def test_recovery_shows_up_in_profile(self, parity_run):
        _, observer, _ = parity_run
        profile = build_profile(observer, label="chaos")
        assert validate_profile(profile) == []
        assert profile["totals"]["recovery_s"] > 0.0


class TestChaosInvariants:
    def test_arming_never_moves_chaos_counters(self, mirror_run):
        engine, _, result = mirror_run
        engine2, _, result2 = chaos_run(parity=False, armed=False)
        assert result2.runtime == result.runtime
        assert result2.counters == result.counters
        assert engine2.stats.snapshot() == engine.stats.snapshot()

    def test_device_spans_tile_busy_time_under_chaos(self, parity_run):
        engine, observer, _ = parity_run
        busy = observer.device_busy_seconds()
        devices = list(engine.safs.array.ssds) + list(engine.safs.array.spares)
        for ssd in devices:
            assert busy.get(ssd.name, 0.0) == pytest.approx(
                ssd.busy_time, abs=1e-12
            )

    def test_trace_byte_identical_for_same_fault_seed(self, mirror_run):
        _, observer, _ = mirror_run
        _, observer2, _ = chaos_run(parity=False)
        assert to_jsonl(observer) == to_jsonl(observer2)
