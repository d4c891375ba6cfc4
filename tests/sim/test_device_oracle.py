"""The one device read path against the plan-free oracle.

``IOScheduler._fetch_extent`` drives every stripe run of an extent
through the fault-recovery loop, with or without a fault plan.  On a
plan-free array every attempt succeeds first time, so its completions,
device queues and counters must equal the old shortcut's
(``tests/sim/reference_device.py``) bit for bit, whatever order the
arrivals come in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.parity import ParityConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.sim.reference_device import OracleArray, scheduler_over

extents = st.tuples(
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=80),
)


class TestFetchExtentMatchesOracle:
    @given(
        num_ssds=st.integers(min_value=1, max_value=8),
        stripe=st.integers(min_value=1, max_value=16),
        parity=st.booleans(),
        requests=st.lists(extents, min_size=1, max_size=40),
        ordered=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_equal_on_plan_free_arrays(
        self, num_ssds, stripe, parity, requests, ordered
    ):
        parity = parity and num_ssds >= 3
        config = SSDArrayConfig(num_ssds=num_ssds, stripe_pages=stripe)
        array = SSDArray(
            config, StatsCollector(), parity=ParityConfig() if parity else None
        )
        oracle = OracleArray(config, StatsCollector(), parity=parity)
        scheduler = scheduler_over(array)
        if ordered:
            requests = sorted(requests)
        for arrival, first, pages in requests:
            got = scheduler._fetch_extent(arrival, first, pages)
            assert got == oracle.submit(arrival, first, pages)
        for ssd, expected in zip(array.ssds, oracle.ssds):
            # Only a fault plan moves the attempt ordinal.
            assert ssd.export_state() == {
                "busy_until": expected.busy_until,
                "busy_time": expected.busy_time,
                "attempts": 0,
                "stall_time": 0.0,
            }
        for spare in array.spares:
            assert spare.busy_time == 0.0
        assert array.stats.snapshot() == oracle.stats.snapshot()
