"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro import cli
from repro.graph.io_edge_list import load_edges_npz, save_edges_text


class TestGenerate:
    def test_writes_npz(self, tmp_path, capsys):
        out = tmp_path / "tw.npz"
        rc = cli.main(["generate", "--dataset", "twitter-sim", "--out", str(out)])
        assert rc == 0
        edges, num_vertices = load_edges_npz(out)
        assert num_vertices == 8192
        assert edges.shape[1] == 2
        assert "twitter-sim" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["generate", "--dataset", "nope", "--out", "x.npz"])


class TestRun:
    def test_run_on_edge_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 64, size=(256, 2))
        save_edges_text(path, edges, 64)
        rc = cli.main(
            [
                "run",
                "--algorithm",
                "bfs",
                "--edges",
                str(path),
                "--threads",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime_s" in out
        assert "bfs" in out

    def test_run_in_memory_mode(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(1)
        save_edges_text(path, rng.integers(0, 32, size=(128, 2)), 32)
        rc = cli.main(
            [
                "run",
                "--algorithm",
                "wcc",
                "--edges",
                str(path),
                "--mode",
                "in-memory",
                "--threads",
                "2",
            ]
        )
        assert rc == 0
        assert "in-memory" in capsys.readouterr().out

    def test_run_with_trace(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        trace = tmp_path / "trace.csv"
        rng = np.random.default_rng(2)
        save_edges_text(graph, rng.integers(0, 32, size=(128, 2)), 32)
        rc = cli.main(
            [
                "run",
                "--algorithm",
                "bfs",
                "--edges",
                str(graph),
                "--threads",
                "2",
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        assert trace.exists()
        assert trace.read_text().startswith("iteration,")

    @pytest.mark.parametrize(
        "algorithm, flags",
        [
            ("pr", ["--mode", "in-memory", "--max-iterations", "4"]),
            ("wcc", ["--execution", "async"]),
        ],
        ids=["in-memory", "async"],
    )
    def test_run_with_trace_mode(self, tmp_path, capsys, algorithm, flags):
        graph = tmp_path / "g.txt"
        trace = tmp_path / "trace.csv"
        rng = np.random.default_rng(2)
        save_edges_text(graph, rng.integers(0, 32, size=(128, 2)), 32)
        rc = cli.main(
            [
                "run", "--algorithm", algorithm, "--edges", str(graph),
                "--threads", "2", "--trace", str(trace),
            ]
            + flags
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("iteration,active_vertices,")
        rows = len(lines) - 1
        assert rows > 0
        assert f"wrote {rows}-iteration trace" in out
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(i) for i in range(rows)
        ]

    def test_run_without_input_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["run", "--algorithm", "bfs"])


class TestRobustnessFlags:
    def _graph(self, tmp_path, seed=3, vertices=64):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(seed)
        save_edges_text(path, rng.integers(0, vertices, size=(256, 2)), vertices)
        return path

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        graph = self._graph(tmp_path)
        ckpt = tmp_path / "ckpts"
        base = [
            "run", "--algorithm", "pr", "--edges", str(graph),
            "--threads", "4", "--checkpoint-dir", str(ckpt),
        ]
        rc = cli.main(base + ["--max-iterations", "4"])
        assert rc == 0
        assert any(p.name.startswith("ckpt_iter_") for p in ckpt.iterdir())
        rc = cli.main(base + ["--resume", "--max-iterations", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resuming from the iteration-4 checkpoint" in out

    def test_resume_needs_checkpoint_dir(self, tmp_path):
        graph = self._graph(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(
                ["run", "--algorithm", "pr", "--edges", str(graph), "--resume"]
            )

    def test_resume_from_missing_dir_writes_nothing(self, tmp_path):
        graph = self._graph(tmp_path)
        missing = tmp_path / "nope" / "deeper"
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "run", "--algorithm", "pr", "--edges", str(graph),
                    "--checkpoint-dir", str(missing), "--resume",
                ]
            )
        assert "no checkpoint to resume from" in str(exc.value.code)
        assert not (tmp_path / "nope").exists()

    def test_fault_seed_runs_chaos(self, tmp_path, capsys):
        graph = self._graph(tmp_path)
        rc = cli.main(
            [
                "run", "--algorithm", "bfs", "--edges", str(graph),
                "--threads", "4", "--fault-seed", "7", "--parity",
            ]
        )
        assert rc == 0
        assert "runtime_s" in capsys.readouterr().out

    def test_fault_seed_needs_semi_external(self, tmp_path):
        graph = self._graph(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "run", "--algorithm", "bfs", "--edges", str(graph),
                    "--mode", "in-memory", "--fault-seed", "7",
                ]
            )

    def test_parity_needs_semi_external(self, tmp_path):
        graph = self._graph(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "run", "--algorithm", "bfs", "--edges", str(graph),
                    "--mode", "in-memory", "--parity",
                ]
            )


class TestSpanTracing:
    def _graph(self, tmp_path, seed=11, vertices=64):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(seed)
        save_edges_text(path, rng.integers(0, vertices, size=(256, 2)), vertices)
        return path

    def test_run_writes_span_and_chrome_traces(self, tmp_path, capsys):
        import json

        graph = self._graph(tmp_path)
        spans = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.trace.json"
        rc = cli.main(
            [
                "run", "--algorithm", "bfs", "--edges", str(graph),
                "--threads", "4",
                "--trace-spans", str(spans),
                "--trace-chrome", str(chrome),
            ]
        )
        assert rc == 0
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert {r["type"] for r in records} >= {"iteration", "io", "device"}
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_trace_spans_needs_semi_external(self, tmp_path):
        graph = self._graph(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "run", "--algorithm", "bfs", "--edges", str(graph),
                    "--mode", "in-memory", "--trace-spans", "x.jsonl",
                ]
            )

    def test_abort_still_writes_partial_traces(self, tmp_path, capsys, monkeypatch):
        # Force a mid-run abort after some real iterations: the CLI must
        # salvage the partial per-iteration CSV and the span traces.
        from repro.core.engine import IterationAborted
        from repro.sim.faults import UnrecoverableIOError

        real = cli.run_algorithm

        def aborting(engine, app, **kwargs):
            result = real(engine, app, max_iterations=2)
            raise IterationAborted(
                2, UnrecoverableIOError(0, result.runtime, "injected"), result
            )

        monkeypatch.setattr(cli, "run_algorithm", aborting)
        graph = self._graph(tmp_path)
        trace = tmp_path / "trace.csv"
        spans = tmp_path / "trace.jsonl"
        rc = cli.main(
            [
                "run", "--algorithm", "pr", "--edges", str(graph),
                "--threads", "4",
                "--trace", str(trace), "--trace-spans", str(spans),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "aborted" in err and "partial" in err
        assert trace.read_text().startswith("iteration,")
        assert len(trace.read_text().splitlines()) == 3  # header + 2 rows
        assert spans.exists() and spans.read_text()


class TestProfile:
    def test_profile_writes_valid_document(self, tmp_path, capsys):
        import json

        from repro.obs.report import PROFILE_SCHEMA, validate_profile

        out = tmp_path / "profile.json"
        rc = cli.main(
            [
                "profile", "--algorithm", "pr", "--dataset", "page-sim",
                "--max-iterations", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        profile = json.loads(out.read_text())
        assert profile["schema"] == PROFILE_SCHEMA
        assert validate_profile(profile) == []
        assert len(profile["iterations"]) == 3
        out_text = capsys.readouterr().out
        assert "totals:" in out_text


class TestSlo:
    def test_slo_writes_valid_document_and_timeline(self, tmp_path, capsys):
        import json

        from repro.obs.slo import SLO_SCHEMA, validate_slo_report

        out = tmp_path / "slo.json"
        timeline = tmp_path / "timeline.md"
        rc = cli.main(
            [
                "slo", "--dataset", "twitter-sim", "--duration", "0.02",
                "--seed", "11", "--overload",
                "--tenant",
                "name=acme,rate=400,quota=2,"
                "slo-latency=0.02,slo-target=0.9,slo-availability=0.9",
                "--out", str(out), "--timeline", str(timeline),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SLO_SCHEMA
        assert validate_slo_report(doc) == []
        assert "acme" in doc["slo"]["tenants"]
        assert doc["timeline"]
        assert timeline.read_text().startswith("| window |")
        out_text = capsys.readouterr().out
        assert "latency" in out_text and "availability" in out_text

    def test_slo_requires_a_declared_objective(self, tmp_path):
        with pytest.raises(SystemExit, match="declaring an objective"):
            cli.main(
                [
                    "slo", "--dataset", "twitter-sim", "--duration", "0.01",
                    "--tenant", "name=acme,rate=200,quota=2",
                    "--out", str(tmp_path / "slo.json"),
                ]
            )


#: Flags ``run`` and ``profile`` share, each with the start of its error.
_BAD_FLAGS = [
    (["--threads", "0"], "bad run configuration: num_threads"),
    (["--cache-mb", "-1"], "bad run configuration: cache capacity"),
    (["--source", "99999999"], "--source 99999999 is not a vertex"),
    (["--max-iterations", "-3"], "--max-iterations must be non-negative"),
]
_BAD_RUN_FLAGS = [
    (["--checkpoint-every", "0", "--checkpoint-dir", "{tmp}"],
     "bad run configuration: the checkpoint interval"),
    (["--execution", "async", "--async-threshold", "-1"],
     "bad run configuration: async_threshold"),
]


class TestBadRunArguments:
    """A configuration the engine rejects, a source that is not a vertex
    and a negative iteration cap stop ``run`` / ``profile`` with a
    one-line message before anything runs."""

    @pytest.mark.parametrize(
        "command, flags, message",
        [("run", *case) for case in _BAD_FLAGS + _BAD_RUN_FLAGS]
        + [("profile", *case) for case in _BAD_FLAGS],
    )
    def test_one_line_error(self, tmp_path, command, flags, message):
        flags = [flag.replace("{tmp}", str(tmp_path)) for flag in flags]
        argv = [command, "--algorithm", "pr", "--dataset", "twitter-sim", *flags]
        if command == "profile":
            argv += ["--out", str(tmp_path / "profile.json")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert str(exc.value.code).startswith(message)


class TestServe:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--result-cache", "--result-cache-ttl", "0"], "result_cache_ttl_s"),
            (["--overload", "--queue-cap", "0"], "tenant_queue_cap"),
        ],
    )
    def test_bad_service_configuration_is_a_one_line_error(self, flags, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "serve", "--dataset", "twitter-sim", "--duration", "0.01",
                    "--tenant", "name=acme,rate=10", *flags,
                ]
            )
        assert str(exc.value.code).startswith("bad service configuration")
        assert message in str(exc.value.code)

    @pytest.mark.parametrize("command", ["serve", "slo"])
    @pytest.mark.parametrize("apps", ["kcore", "pr+bogus"])
    def test_unsupported_app_rejected_when_parsed(self, command, apps):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    command, "--dataset", "twitter-sim", "--duration", "0.01",
                    "--tenant", f"name=a,rate=2000,apps={apps},slo-latency=0.02",
                    "--out", "unused.json",
                ]
            )
        assert str(exc.value.code).startswith("bad tenant 'a': unsupported app")


class TestGraphFormat:
    def _graph(self, tmp_path, seed=5, vertices=64):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(seed)
        save_edges_text(path, rng.integers(0, vertices, size=(256, 2)), vertices)
        return path

    def test_run_with_format_v2(self, tmp_path, capsys):
        graph = self._graph(tmp_path)
        rc = cli.main(
            [
                "run", "--algorithm", "pr", "--edges", str(graph),
                "--threads", "4", "--graph-format", "v2",
                "--max-iterations", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "format" in out and "v2" in out
        assert "compression" in out

    def test_run_defaults_to_v1(self, tmp_path, capsys):
        graph = self._graph(tmp_path)
        rc = cli.main(
            [
                "run", "--algorithm", "bfs", "--edges", str(graph),
                "--threads", "4",
            ]
        )
        assert rc == 0
        assert "v1" in capsys.readouterr().out

    def test_unknown_format_rejected(self, tmp_path):
        graph = self._graph(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "run", "--algorithm", "bfs", "--edges", str(graph),
                    "--graph-format", "v3",
                ]
            )

    def test_generate_records_format_run_honours_it(self, tmp_path, capsys):
        from repro.graph.io_edge_list import stored_graph_format

        out = tmp_path / "tw.npz"
        rc = cli.main(
            [
                "generate", "--dataset", "twitter-sim", "--out", str(out),
                "--graph-format", "v2",
            ]
        )
        assert rc == 0
        assert "v2" in capsys.readouterr().out
        assert stored_graph_format(out) == "v2"
        rc = cli.main(
            [
                "run", "--algorithm", "bfs", "--edges", str(out),
                "--threads", "4",
            ]
        )
        assert rc == 0
        assert "v2" in capsys.readouterr().out

    def test_generate_without_format_stays_loadable(self, tmp_path):
        from repro.graph.io_edge_list import stored_graph_format

        out = tmp_path / "tw.npz"
        rc = cli.main(["generate", "--dataset", "twitter-sim", "--out", str(out)])
        assert rc == 0
        assert stored_graph_format(out) == "v1"


class TestGraphStats:
    def test_stats_on_dataset(self, capsys):
        rc = cli.main(["graph", "stats", "--dataset", "twitter-sim"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degree distribution" in out
        assert "v1_MB" in out and "v2_MB" in out
        assert "compression" in out

    def test_stats_on_edge_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        rng = np.random.default_rng(9)
        save_edges_text(path, rng.integers(0, 64, size=(256, 2)), 64)
        rc = cli.main(["graph", "stats", "--edges", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p99" in out

    def test_stats_without_input_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["graph", "stats"])


class TestBench:
    def test_table1(self, capsys):
        rc = cli.main(["bench", "--experiment", "table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "twitter-sim" in out
        assert "page-sim" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--experiment", "fig99"])
