"""Tests for rotating-parity striping, reconstruction and rebuild.

The issue's contract: a single lost page (whole-device death or silent
rot) reconstructs **exactly** from the row's survivors at real DES cost,
double faults are reported loudly and never silently wrong, and the
background scrubber re-materialises a dead device onto a hot spare while
the engine keeps running — with every scrub and peer read visible in the
counters (no free I/O).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import DeviceFailure, FaultPlan
from repro.sim.parity import ParityConfig, ParityLayout, RebuildState
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector
from tests.sim.reference_device import read_extent


class TestParityLayout:
    def test_needs_three_devices(self):
        with pytest.raises(ValueError):
            ParityLayout(2, 4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=3, max_value=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=200),
    )
    def test_each_device_holds_one_unit_per_row(self, n, stripe, row):
        """Every parity row places exactly one stripe unit — data or
        parity — on every device, so capacity is uniform."""
        layout = ParityLayout(n, stripe)
        pdev = layout.parity_device(row)
        data_devices = [
            layout.device_for_page((row * layout.data_per_row + slot) * stripe)
            for slot in range(layout.data_per_row)
        ]
        assert pdev not in data_devices
        assert sorted(data_devices + [pdev]) == list(range(n))

    def test_parity_run_ids_are_negative_and_distinct_per_row(self):
        layout = ParityLayout(4, 4)
        seen = set()
        for row in range(8):
            first, n = layout.parity_run(row, 0, layout.stripe_pages)
            ids = range(first, first + n)
            assert all(i < 0 for i in ids)
            assert seen.isdisjoint(ids)
            seen.update(ids)

    def test_peers_cover_the_row(self):
        layout = ParityLayout(5, 4)
        first_page = 3 * 4 + 1  # unit 3, offset 1
        peers = layout.peers(first_page, 2)
        # N - 2 data peers plus the parity unit.
        assert len(peers) == 4
        devices = [d for d, _, _ in peers]
        assert len(set(devices)) == len(devices)
        assert layout.device_for_page(first_page) not in devices
        # Exactly one parity read, at negative ids.
        assert sum(1 for _, f, _ in peers if f < 0) == 1

    def test_peers_reject_runs_spanning_units(self):
        layout = ParityLayout(4, 4)
        with pytest.raises(ValueError):
            layout.peers(2, 4)  # crosses the unit boundary at page 4

    def test_rows_for_pages(self):
        layout = ParityLayout(4, 2)  # 3 data units of 2 pages per row
        assert layout.rows_for_pages(0) == 0
        assert layout.rows_for_pages(1) == 1
        assert layout.rows_for_pages(6) == 1
        assert layout.rows_for_pages(7) == 2


class TestRebuildState:
    def make(self, **kw):
        defaults = dict(
            device=2,
            spare=4,
            start_time=1.0,
            total_pages=100,
            rate_pages_per_s=10.0,
            stripe_pages=4,
            peer_reads_per_page=3,
        )
        defaults.update(kw)
        return RebuildState(**defaults)

    def test_progress_is_pure_function_of_time(self):
        rebuild = self.make()
        assert rebuild.pages_rebuilt(0.5) == 0
        assert rebuild.pages_rebuilt(2.0) == 10
        assert rebuild.pages_rebuilt(2.0) == 10  # re-observation is free
        assert rebuild.pages_rebuilt(1e9) == 100
        assert rebuild.complete(11.0)

    def test_rows_serve_only_when_fully_rebuilt(self):
        rebuild = self.make()
        # 10 pages rebuilt at t=2 -> 2 whole rows of 4 pages.
        assert rebuild.rows_rebuilt(2.0) == 2
        assert rebuild.row_covered(1, 2.0)
        assert not rebuild.row_covered(2, 2.0)

    def test_charge_is_telescoping(self):
        """Many small charges equal one lump charge exactly — the
        property that keeps checkpoint resume counter-identical."""
        piecewise, lump = StatsCollector(), StatsCollector()
        a, b = self.make(), self.make()
        for t in (1.3, 2.7, 2.7, 5.0, 8.0, 20.0):
            a.charge(piecewise, t)
        b.charge(lump, 20.0)
        assert piecewise.snapshot() == lump.snapshot()
        assert piecewise.get("scrub.pages_written") == 100
        assert piecewise.get("scrub.pages_read") == 300

    def test_export_restore_round_trip(self):
        rebuild = self.make()
        rebuild.charge(StatsCollector(), 3.0)
        twin = RebuildState.from_state(rebuild.export_state())
        assert twin.export_state() == rebuild.export_state()
        assert twin.pages_rebuilt(7.0) == rebuild.pages_rebuilt(7.0)


def _parity_array(plan=None, num_ssds=4, stripe_pages=2, hot_spares=1):
    array = SSDArray(
        SSDArrayConfig(num_ssds=num_ssds, stripe_pages=stripe_pages),
        fault_plan=plan,
        parity=ParityConfig(hot_spares=hot_spares),
    )
    array.note_capacity(240)
    return array


class TestDegradedArray:
    def test_reconstruction_charges_peer_queues(self):
        """Degraded reads are never free: every surviving peer's queue is
        charged, and the reconstruction completes no earlier than its
        slowest peer read."""
        plan = FaultPlan([DeviceFailure(device=1, at=0.0)])
        array = _parity_array(plan)
        victim_run = next(
            (d, f, n) for d, f, n in array.split_extent_runs(0, 240) if d == 1
        )
        busy_before = array.busy_time()
        outcome = array.reconstruct_run(1, victim_run[1], victim_run[2], 0.001)
        assert outcome.ok
        assert outcome.time > 0.001
        assert array.busy_time() > busy_before
        assert array.stats.get("parity.reconstructions") == 1
        assert array.stats.get("parity.peer_reads") == array.config.num_ssds - 1
        assert array.stats.get("parity.pages_reconstructed") == victim_run[2]

    def test_double_fault_is_reported_never_wrong(self):
        plan = FaultPlan(
            [DeviceFailure(device=1, at=0.0), DeviceFailure(device=2, at=0.0)]
        )
        array = _parity_array(plan)
        victim_run = next(
            (d, f, n) for d, f, n in array.split_extent_runs(0, 240) if d == 1
        )
        outcome = array.reconstruct_run(1, victim_run[1], victim_run[2], 0.001)
        assert not outcome.ok
        assert outcome.error == "double_fault"
        assert array.stats.get("parity.double_faults") == 1

    def test_rebuild_allocates_one_spare_and_is_idempotent(self):
        array = _parity_array(FaultPlan([DeviceFailure(device=0, at=0.0)]))
        first = array.start_rebuild(0, 0.001)
        assert first is not None
        assert array.start_rebuild(0, 5.0) is first
        assert array.stats.get("scrub.rebuilds_started") == 1
        # A second dead device finds no spare left.
        assert array.start_rebuild(2, 0.002) is None

    def test_rebuilt_rows_serve_from_the_spare(self):
        array = _parity_array(FaultPlan([DeviceFailure(device=0, at=0.0)]))
        rebuild = array.start_rebuild(0, 0.0)
        assert array.serving_device(0, 0, 1e-9) == 0  # nothing rebuilt yet
        done = rebuild.total_pages / rebuild.rate_pages_per_s
        assert array.serving_device(0, 0, done * 2) == rebuild.spare
        # Observing progress charged the scrub I/O.
        assert array.stats.get("scrub.pages_written") == rebuild.total_pages

    def test_no_parity_means_no_rebuild(self):
        array = SSDArray(
            SSDArrayConfig(num_ssds=4, stripe_pages=2),
            fault_plan=FaultPlan([DeviceFailure(device=0, at=0.0)]),
        )
        array.note_capacity(240)
        assert array.start_rebuild(0, 0.001) is None
        assert array.serving_device(0, 0, 1.0) == 0

    def test_layout_only_with_parity_config(self):
        """Without parity the array keeps the historical round-robin
        placement — the golden counter stream depends on it."""
        plain = SSDArray(SSDArrayConfig(num_ssds=4, stripe_pages=2))
        assert plain.layout is None
        assert [plain.device_for_page(p) for p in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]

    def test_export_restore_round_trip(self):
        plan = FaultPlan([DeviceFailure(device=0, at=1.0)])
        array = _parity_array(plan)
        read_extent(array, 0.0, 0, 16)
        array.start_rebuild(0, 1.001)
        state = array.export_state()
        twin = _parity_array(plan)
        twin.restore_state(state)
        assert twin.export_state() == state
        assert twin.busy_time() == array.busy_time()
