"""Tracing acceptance: zero-cost disarmed, exact spans armed.

The two contracts from the issue:

- disarmed (the default), counter streams are bit-identical to the seed
  — arming must not perturb the simulation at all;
- armed, per-request span durations are exact simulated time: per
  device, the traced service durations sum to the device's accumulated
  busy time.
"""

import json

import pytest

import numpy as np

from repro.algorithms.sssp import sssp
from repro.bench.datasets import load_dataset
from repro.bench.harness import default_source, make_engine, run_algorithm
from repro.core.config import ScheduleOrder
from repro.graph.builder import build_directed
from repro.graph.generators import rmat_graph
from repro.obs import Observer, arm, disarm, to_chrome, to_jsonl
from repro.obs import registry


def traced_run(app="pr", armed=True, max_iterations=5):
    engine = make_engine(load_dataset("page-sim"))
    observer = arm(engine) if armed else None
    result = run_algorithm(engine, app, max_iterations=max_iterations)
    return engine, observer, result


@pytest.fixture(scope="module")
def armed_run():
    return traced_run()


class TestZeroCostDisarmed:
    def test_armed_run_matches_disarmed_bit_for_bit(self, armed_run):
        engine, _, result = armed_run
        engine2, _, result2 = traced_run(armed=False)
        assert result2.runtime == result.runtime
        assert result2.counters == result.counters
        assert engine2.stats.snapshot() == engine.stats.snapshot()

    def test_disarm_detaches_every_layer(self):
        engine = make_engine(load_dataset("page-sim"))
        arm(engine)
        disarm(engine)
        assert engine.obs is None
        assert engine.safs.obs is None
        assert engine.safs.scheduler.obs is None
        assert engine.safs.array.obs is None
        assert all(s.obs is None for s in engine.safs.array.ssds)

    def test_layers_default_to_disarmed(self):
        engine = make_engine(load_dataset("page-sim"))
        assert engine.obs is None
        assert engine.safs.obs is None
        assert all(s.obs is None for s in engine.safs.array.ssds)


class TestDeviceSpansTileBusyTime:
    def test_service_durations_sum_to_busy_time(self, armed_run):
        engine, observer, _ = armed_run
        busy = observer.device_busy_seconds()
        for ssd in list(engine.safs.array.ssds) + list(engine.safs.array.spares):
            assert busy.get(ssd.name, 0.0) == pytest.approx(
                ssd.busy_time, abs=1e-12
            )

    def test_queue_waits_are_nonnegative(self, armed_run):
        _, observer, _ = armed_run
        assert observer.device_spans
        for span in observer.device_spans:
            assert span["start"] >= span["arrival"]
            assert span["service"] >= 0.0


class TestIoSpans:
    def test_stage_events_bracket_the_span(self, armed_run):
        _, observer, _ = armed_run
        assert observer.io_spans
        for span in observer.io_spans:
            events = span["events"]
            assert events[0][0] == "issued" and events[0][1] == span["issue"]
            assert events[-1][0] == "completed" and events[-1][1] == span["done"]
            assert span["done"] >= span["issue"]

    def test_every_io_span_has_a_cache_lookup(self, armed_run):
        _, observer, _ = armed_run
        for span in observer.io_spans:
            assert any(ev[0] == "cache_lookup" for ev in span["events"])

    def test_request_spans_link_to_io_spans(self, armed_run):
        _, observer, _ = armed_run
        io_ids = {span["id"] for span in observer.io_spans}
        assert observer.request_spans
        for req in observer.request_spans:
            assert req["io"] in io_ids
            assert req["done"] >= req["issued"]

    @pytest.mark.parametrize("app", ["pr", "sssp", "tc"])
    def test_request_spans_are_issued_with_their_io_span(self, app):
        """One definition of ``issued``: the issue time of the io span that
        carried the element — whatever the element is (an attribute block
        under sssp, another vertex's list under tc).  Random order and
        tiny batches scatter a wave over the file, so waves issue several
        spans."""
        edges, n = rmat_graph(10, edge_factor=8, seed=5)
        weights = np.random.default_rng(2).uniform(1.0, 2.0, size=edges.shape[0])
        engine = make_engine(
            build_directed(edges, n, name="tiny", weights=weights),
            cache_bytes=32 * 1024,
            num_threads=4,
            schedule_order=ScheduleOrder.RANDOM,
            max_running_vertices=4,
        )
        observer = arm(engine)
        if app == "sssp":
            sssp(engine, default_source(engine.image))
        else:
            run_algorithm(engine, app, max_iterations=3)
        issue = {span["id"]: span["issue"] for span in observer.io_spans}
        assert observer.request_spans
        for req in observer.request_spans:
            assert req["issued"] == issue[req["io"]]
        kinds = {req["kind"] for req in observer.request_spans}
        assert kinds == ({"edges", "attrs"} if app == "sssp" else {"edges"})
        cross = any(r["target"] != r["vertex"] for r in observer.request_spans)
        assert cross == (app == "tc")

    def test_iteration_count_matches_result(self, armed_run):
        _, observer, result = armed_run
        assert len(observer.iterations) == result.iterations


class TestHistogramsAndGauges:
    def test_per_device_service_histograms_recorded(self, armed_run):
        engine, _, _ = armed_run
        hists = engine.stats.histograms()
        served = [s.name for s in engine.safs.array.ssds if s.busy_time > 0]
        for name in served:
            key = f"{registry.HIST_SSD_SERVICE_SECONDS}.{name}"
            assert key in hists and hists[key].count > 0

    def test_gauges_sampled_once_per_iteration(self, armed_run):
        # Engine-loop gauges only: the serve.* gauges in KNOWN_GAUGES
        # are sampled by the serving timeline, never by a batch run.
        engine, _, result = armed_run
        for gauge in registry.ENGINE_GAUGES:
            assert len(engine.stats.series(gauge)) == result.iterations
        for gauge in registry.KNOWN_GAUGES - registry.ENGINE_GAUGES:
            assert engine.stats.series(gauge) == []

    def test_per_set_hit_rate_gauges_sampled(self, armed_run):
        # Arming enables per-set tallies, and every probed set gets one
        # cumulative-rate sample per iteration barrier.
        engine, _, result = armed_run
        samples = engine.safs.cache.set_hit_rate_samples()
        assert samples  # the run probed at least one set
        for index, rate in samples.items():
            series = engine.stats.series(
                f"{registry.GAUGE_CACHE_SET_HIT_RATE}.{index}"
            )
            assert 0 < len(series) <= result.iterations
            assert series[-1][1] == rate
            assert all(0.0 <= value <= 1.0 for _, value in series)

    def test_per_set_tracking_off_when_disarmed(self):
        engine = make_engine(load_dataset("page-sim"))
        run_algorithm(engine, "pr", max_iterations=2)
        assert engine.safs.cache.set_hit_rate_samples() == {}


class TestExports:
    def test_jsonl_is_valid_and_ordered(self, armed_run):
        _, observer, _ = armed_run
        lines = to_jsonl(observer).splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == (
            len(observer.iterations)
            + len(observer.io_spans)
            + len(observer.device_spans)
            + len(observer.request_spans)
        )
        kinds = {r["type"] for r in records}
        assert kinds == {"iteration", "io", "device", "request"}

    def test_chrome_trace_shape(self, armed_run):
        _, observer, _ = armed_run
        doc = to_chrome(observer)
        json.dumps(doc)  # must serialise
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases >= {"M", "X", "C"}
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
        thread_names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert {"engine", "safs"} <= thread_names
        assert any(name.startswith("ssd") for name in thread_names)
