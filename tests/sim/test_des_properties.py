"""Property tests on the discrete-event substrate's physical sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    LatencySpike,
    StuckQueue,
    TransientErrors,
)
from repro.sim.ssd import SSD, SSDConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from tests.safs.reads import submit_reads
from tests.sim.reference_device import read_extent


class TestSSDPhysics:
    @given(
        arrivals=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fifo_completions_monotone(self, arrivals):
        # A FIFO device completes requests in submission order.
        ssd = SSD()
        completions = [ssd.submit_request(t, 1).time for t in sorted(arrivals)]
        assert completions == sorted(completions)

    @given(
        requests=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.integers(min_value=1, max_value=64),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_completion_never_before_arrival_plus_service(self, requests):
        ssd = SSD()
        for arrival, pages in sorted(requests):
            done = ssd.submit_request(arrival, pages).time
            floor = arrival + ssd.service_time(pages) + ssd.config.read_latency
            assert done >= floor - 1e-15

    @given(
        pages=st.integers(min_value=1, max_value=512),
        extra=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=50, deadline=None)
    def test_service_time_superadditive_in_pages(self, pages, extra):
        # One merged request is never slower than two separate ones — the
        # physical basis for conservative merging being safe.
        ssd = SSD()
        merged = ssd.service_time(pages + extra)
        split = ssd.service_time(pages) + ssd.service_time(extra)
        assert merged < split

    @given(
        later=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_busy_time_independent_of_gaps(self, later):
        busy = []
        for gap in (0.0, later):
            ssd = SSD()
            ssd.submit_request(0.0, 4)
            ssd.submit_request(gap, 4)
            busy.append(ssd.busy_time)
        assert busy[0] == pytest.approx(busy[1])


class TestArrayPhysics:
    @given(
        num_ssds=st.integers(min_value=1, max_value=16),
        stripe=st.integers(min_value=1, max_value=32),
        first=st.integers(min_value=0, max_value=1000),
        pages=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_extent_preserves_pages(self, num_ssds, stripe, first, pages):
        array = SSDArray(SSDArrayConfig(num_ssds=num_ssds, stripe_pages=stripe))
        runs = array.split_extent_runs(first, pages)
        assert sum(count for _, _, count in runs) == pages
        page = first
        for device, run_first, count in runs:
            assert run_first == page
            assert device == array.device_for_page(page)
            page += count

    @given(pages=st.integers(min_value=1, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_wider_array_never_slower(self, pages):
        narrow = SSDArray(SSDArrayConfig(num_ssds=2, stripe_pages=4))
        wide = SSDArray(SSDArrayConfig(num_ssds=8, stripe_pages=4))
        wide_done = read_extent(wide, 0.0, 0, pages)
        assert wide_done <= read_extent(narrow, 0.0, 0, pages) + 1e-12


@st.composite
def fault_plans(draw, max_device=3):
    """An arbitrary seeded fault plan over devices ``0..max_device``."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["spike", "stall", "flaky", "dead"]))
        device = draw(st.integers(min_value=0, max_value=max_device))
        start = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        duration = draw(
            st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)
        )
        if kind == "spike":
            factor = draw(
                st.floats(min_value=1.0, max_value=8.0, allow_nan=False)
            )
            events.append(
                LatencySpike(
                    device=device, start=start, end=start + duration, factor=factor
                )
            )
        elif kind == "stall":
            events.append(
                StuckQueue(device=device, start=start, end=start + duration)
            )
        elif kind == "flaky":
            probability = draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            )
            events.append(
                TransientErrors(
                    device=device,
                    start=start,
                    end=start + duration,
                    probability=probability,
                )
            )
        else:
            events.append(DeviceFailure(device=device, at=start))
    return FaultPlan(events, seed=draw(st.integers(min_value=0, max_value=2**32)))


_fault_requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.integers(min_value=1, max_value=32),
    ),
    min_size=1,
    max_size=40,
)


class TestFaultPhysics:
    """Invariants of the fault layer under arbitrary seeded plans."""

    @given(plan=fault_plans(), requests=_fault_requests)
    @settings(max_examples=60, deadline=None)
    def test_busy_time_is_sum_of_charged_service(self, plan, requests):
        # Whatever mix of faults fires, the device's busy time equals the
        # service charged to the attempts it accepted — failed attempts
        # are charged once, dead rejections never.  This is the invariant
        # that makes retried requests unable to double-charge busy time.
        ssd = SSD(fault_plan=plan, device_index=0)
        outcomes = [ssd.submit_request(t, p) for t, p in sorted(requests)]
        assert ssd.busy_time == sum(o.service for o in outcomes)
        assert all(o.service == 0.0 for o in outcomes if o.error == "dead")

    @given(
        probability=st.floats(min_value=0.05, max_value=0.6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**32),
        num_pages=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=30, deadline=None)
    def test_scheduler_retries_never_double_charge(
        self, probability, seed, num_pages
    ):
        # End to end through SAFS: with only transient errors in play,
        # every retry re-reads one page, so the faulty run's device busy
        # time exceeds the clean run's by exactly one page-read service
        # per transient error — no more, no less.
        plan = FaultPlan(
            [TransientErrors(device=0, start=0.0, end=1e6, probability=probability)],
            seed=seed,
        )

        def run(fault_plan):
            array = SSDArray(
                SSDArrayConfig(num_ssds=1, stripe_pages=1),
                fault_plan=fault_plan,
            )
            safs = SAFS(
                array,
                SAFSConfig(page_size=4096, cache_bytes=1 << 22),
                stats=array.stats,
                fault_policy=FaultPolicy(max_retries=60, retry_backoff=1e-4),
            )
            file = safs.create_file("data", bytes(4096 * num_pages))
            for page in range(num_pages):
                submit_reads(safs, [(file, page * 4096, 4096)])
            return array.busy_time(), safs.stats.get("faults.transient_errors")

        clean_busy, _ = run(None)
        faulty_busy, errors = run(plan)
        service = SSD().service_time(1)
        assert faulty_busy == pytest.approx(clean_busy + errors * service)

    @given(plan=fault_plans(), requests=_fault_requests)
    @settings(max_examples=60, deadline=None)
    def test_serviced_completions_stay_ordered(self, plan, requests):
        # Faults may delay completions but never reorder them: a FIFO
        # device under stalls, spikes and flaky reads still completes the
        # attempts it services in submission order.  (Dead rejections are
        # not serviced and are excluded.)
        ssd = SSD(fault_plan=plan, device_index=0)
        serviced = [
            o.time
            for t, p in sorted(requests)
            for o in (ssd.submit_request(t, p),)
            if o.error != "dead"
        ]
        assert serviced == sorted(serviced)

    @given(plan=fault_plans(), requests=_fault_requests)
    @settings(max_examples=60, deadline=None)
    def test_replay_is_bit_identical(self, plan, requests):
        # The same (seed, plan) against the same submissions replays bit
        # for bit: outcomes, busy time and counters all match.
        def run():
            ssd = SSD(fault_plan=plan, device_index=0)
            outcomes = [ssd.submit_request(t, p) for t, p in sorted(requests)]
            return outcomes, ssd.busy_time, ssd.stats.snapshot()

        assert run() == run()
