"""The simulated-time profiler: per-layer decomposition that tiles time."""

import json

import pytest

from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine, run_algorithm
from repro.obs import arm, build_profile, format_profile, validate_profile
from repro.obs.report import LAYERS, PROFILE_SCHEMA, TICK_SECONDS, main


@pytest.fixture(scope="module")
def profile_and_result():
    engine = make_engine(load_dataset("page-sim"))
    observer = arm(engine)
    result = run_algorithm(engine, "pr", max_iterations=5)
    return build_profile(observer, label="pr@page-sim"), result


class TestBuildProfile:
    def test_schema_and_label(self, profile_and_result):
        profile, _ = profile_and_result
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["label"] == "pr@page-sim"

    def test_layers_tile_each_iteration_span(self, profile_and_result):
        profile, _ = profile_and_result
        assert profile["iterations"]
        for row in profile["iterations"]:
            span = row["end_s"] - row["start_s"]
            total = sum(row[f"{layer}_s"] for layer in LAYERS)
            assert total == pytest.approx(span, abs=TICK_SECONDS)

    def test_totals_tile_the_runtime(self, profile_and_result):
        profile, result = profile_and_result
        grand = sum(profile["totals"][f"{layer}_s"] for layer in LAYERS)
        ticks = TICK_SECONDS * (len(profile["iterations"]) + 1)
        assert abs(grand - profile["runtime_s"]) <= ticks
        assert profile["runtime_s"] == pytest.approx(result.runtime)

    def test_two_sweep_bc_tiles_the_summed_runtime(self):
        """bc runs a forward and a backward sweep, each from clock 0; the
        profile's runtime is their sum, as the merged RunResult's is."""
        engine = make_engine(load_dataset("twitter-sim"))
        observer = arm(engine)
        result = run_algorithm(engine, "bc")
        profile = build_profile(observer)
        assert validate_profile(profile) == []
        assert profile["runtime_s"] == pytest.approx(result.runtime)

    def test_layer_times_are_nonnegative(self, profile_and_result):
        profile, _ = profile_and_result
        for row in profile["iterations"]:
            for layer in LAYERS:
                assert row[f"{layer}_s"] >= 0.0

    def test_validate_passes_and_format_renders(self, profile_and_result):
        profile, _ = profile_and_result
        assert validate_profile(profile) == []
        text = format_profile(profile)
        assert "compute" in text and "recovery" in text


class TestValidateProfile:
    def test_rejects_wrong_schema(self, profile_and_result):
        profile, _ = profile_and_result
        bad = dict(profile, schema="nope/v0")
        assert validate_profile(bad)

    def test_rejects_non_tiling_rows(self, profile_and_result):
        profile, _ = profile_and_result
        bad = json.loads(json.dumps(profile))
        bad["iterations"][0]["compute_s"] += 1.0
        assert validate_profile(bad)


class TestReportCli:
    def test_valid_file_exits_zero(self, profile_and_result, tmp_path, capsys):
        profile, _ = profile_and_result
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        assert main([str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_corrupt_file_exits_nonzero(self, profile_and_result, tmp_path):
        profile, _ = profile_and_result
        bad = json.loads(json.dumps(profile))
        bad["iterations"][0]["queue_s"] += 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main([str(path)]) == 1


class TestAbortedRun:
    """An abort mid-iteration closes the open row at the abort time."""

    @pytest.fixture(scope="class")
    def aborted(self):
        from repro.algorithms.pagerank import pagerank
        from repro.core.engine import IterationAborted
        from repro.graph.builder import build_directed
        from repro.graph.generators import rmat_graph
        from repro.sim.faults import default_chaos_plan

        edges, n = rmat_graph(10, 8, seed=1)
        engine = make_engine(
            build_directed(edges, n, name="rmat"),
            num_threads=4,
            range_shift=5,
            fault_plan=default_chaos_plan(4),
        )
        observer = arm(engine)
        with pytest.raises(IterationAborted) as info:
            pagerank(engine)
        return observer, info.value

    def test_row_closes_at_the_abort(self, aborted):
        observer, exc = aborted
        row = observer.iterations[-1]
        assert row["aborted"] is True
        assert row["iteration"] == exc.iteration
        assert row["end"] == exc.partial.runtime > row["start"]
        assert all("aborted" not in r for r in observer.iterations[:-1])

    def test_profile_tiles_the_partial_runtime(self, aborted):
        observer, exc = aborted
        profile = build_profile(observer)
        assert validate_profile(profile) == []
        assert profile["runtime_s"] == exc.partial.runtime
        grand = sum(profile["totals"][f"{layer}_s"] for layer in LAYERS)
        ticks = TICK_SECONDS * (len(profile["iterations"]) + 1)
        assert abs(grand - exc.partial.runtime) <= ticks

    def test_csv_view_leaves_the_aborted_row_out(self, aborted, tmp_path):
        from repro.obs import write_iteration_csv

        observer, _ = aborted
        path = tmp_path / "trace.csv"
        assert write_iteration_csv(observer, path) == len(observer.iterations) - 1
        assert len(path.read_text().splitlines()) == len(observer.iterations)
