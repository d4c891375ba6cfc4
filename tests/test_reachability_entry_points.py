"""The reachability probe's entry-point list names only what exists.

``tests/tools/reachability.py`` runs outside tier-1; this checks its
declared list without running anything, so a renamed subcommand, flag,
experiment, workload or example fails here instead of quietly leaving
code unreached.
"""

import importlib
import importlib.util

import pytest

from repro import cli
from tests.tools import reachability as probe

POINTS = probe.ENTRY_POINTS


def _of_kind(kind):
    return [point for point in POINTS if point.kind == kind]


@pytest.mark.parametrize("point", _of_kind("cli"), ids=lambda p: " ".join(p.args))
def test_cli_entry_point_parses(point, tmp_path):
    argv = [arg.replace(probe.TMP, str(tmp_path)) for arg in point.args]
    cli._build_parser().parse_args(argv)


def test_every_subcommand_is_listed():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    listed = {point.args[0] for point in _of_kind("cli")}
    assert listed == set(subparsers.choices)


def test_every_paper_app_is_run():
    assert probe.PAPER_APPS == cli.PAPER_APPS


def test_every_experiment_is_listed_and_only_table1_is_quick():
    bench = [point for point in _of_kind("cli") if point.args[0] == "bench"]
    assert sorted(point.args[2] for point in bench) == sorted(cli.EXPERIMENTS)
    assert [point.args[2] for point in bench if point.quick] == ["table1"]


@pytest.mark.parametrize("point", _of_kind("module"), ids=lambda p: p.args[0])
def test_module_entry_point_has_a_main(point):
    assert callable(importlib.import_module(point.args[0]).main)


def test_every_workload_is_listed():
    spec = importlib.util.spec_from_file_location("perf_metrics", probe.PERF / "metrics.py")
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    assert [point.args[0] for point in _of_kind("workload")] == list(metrics.ALL)


def test_every_example_is_listed():
    listed = sorted(point.args[0] for point in _of_kind("example"))
    assert listed == sorted(path.name for path in probe.EXAMPLES.glob("*.py"))
