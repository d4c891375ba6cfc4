#!/usr/bin/env python3
"""Which functions under ``src/repro`` does the product run?

A ``sys.setprofile`` hook records every ``src/repro`` code object called
while a declared list of product entry points runs in this process:
every ``repro`` subcommand, every ``repro bench --experiment``, the
``benchmarks/perf/run.py`` workloads and the examples.  A def none of
them reaches runs, if at all, only from tests, and is a candidate for
deletion (or for an entry point, if the product should reach it).

    PYTHONPATH=src python tests/tools/reachability.py --quick --out DIR   # ~8 min
    PYTHONPATH=src python tests/tools/reachability.py --out DIR           # ~30 min

(times on a 2-vCPU box).  ``--quick`` runs the CLI runs, the examples,
the workloads and ``bench --experiment table1``; the full list adds the
other 14 experiments.  The tool prints the def / unreached / body-line
counts and writes ``DIR/unreached.txt``: one ``path:line qualname lines
reason`` row per unreached def, the reason from :data:`KEPT` or ``-``.
It exits 1 when an entry point fails, or when a module under
``src/repro/algorithms/`` defines functions and none of them is reached:
a program the product never runs.  Tier-1 does not run it;
``tests/test_reachability_entry_points.py`` checks only that the list
below names things that exist.  Code objects are matched by line, so
the sources must not change while it runs.
"""

import argparse
import ast
import contextlib
import fnmatch
import importlib
import io
import os
import runpy
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALGORITHMS = PACKAGE / "algorithms"
PERF = ROOT / "benchmarks" / "perf"
EXAMPLES = ROOT / "examples"

#: Substituted in an entry point's arguments: one fresh directory per
#: probe, holding ``edges.txt`` (a user's own text edge list) from the start.
TMP = "{tmp}"

EDGES_TXT = "# vertices: 6\n0 1\n1 2\n2 0\n3 4\n4 5\n"

PAPER_APPS = ("bfs", "bc", "tc", "wcc", "pr", "ss")


@dataclass(frozen=True)
class EntryPoint:
    """One product entry point: a ``repro`` command line (``cli``), a
    ``python -m MODULE ARGS`` validator (``module``), a ``run.py``
    workload (``workload``, its name in ``args[0]``) or an example script
    (``example``, its file name in ``args[0]``)."""

    kind: str
    args: Tuple[str, ...]
    quick: bool = True

    @property
    def label(self) -> str:
        return f"{self.kind}: {' '.join(self.args)}"


def _cli(*args: str, quick: bool = True) -> EntryPoint:
    return EntryPoint("cli", args, quick)


def _runs() -> List[EntryPoint]:
    """``repro run`` for each paper app in every mode a user can pick."""
    points = []
    for app in PAPER_APPS:
        base = ("run", "--algorithm", app, "--dataset", "twitter-sim")
        points += [
            _cli(*base),
            _cli(*base, "--mode", "in-memory"),
            _cli(*base, "--graph-format", "v2"),
            _cli(*base, "--fault-seed", "42", "--parity"),
            _cli(*base, "--trace", f"{TMP}/it.csv", "--trace-spans",
                 f"{TMP}/spans.jsonl", "--trace-chrome", f"{TMP}/chrome.json"),
            _cli(*base, "--checkpoint-dir", f"{TMP}/ckpt-{app}"),
            _cli(*base, "--checkpoint-dir", f"{TMP}/ckpt-{app}", "--resume"),
            _cli("profile", "--algorithm", app, "--dataset", "twitter-sim",
                 "--out", f"{TMP}/profile.json"),
        ]
    for app in ("pr", "wcc"):
        points.append(_cli("run", "--algorithm", app, "--dataset", "twitter-sim",
                           "--execution", "async"))
    # Checkpoints that hold async residuals and device-health state.
    for flags in (("--execution", "async"), ("--fault-seed", "42", "--parity")):
        base = ("run", "--algorithm", "pr", "--dataset", "twitter-sim", *flags,
                "--checkpoint-dir", f"{TMP}/ckpt-pr-{flags[0][2:]}")
        points += [_cli(*base), _cli(*base, "--resume")]
    return points


_TENANTS = (
    "--tenant", "name=acme,rate=240,weight=2,quota=3,apps=pr+bfs+wcc,burst=4x0.2,"
    "deadline=0.05,slo-latency=0.025,slo-target=0.95,slo-availability=0.9",
    "--tenant", "name=globex,rate=120,quota=2,apps=bfs+wcc,cache-kb=256,queue-cap=4,"
    "share=0,result-cache=private",
)

#: The declared entry points, in run order.  ``run --resume`` follows the
#: checkpointing run of the same app, whose directory it reads.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    _cli("generate", "--dataset", "twitter-sim", "--out", f"{TMP}/tw.npz"),
    _cli("generate", "--dataset", "twitter-sim", "--graph-format", "v2",
         "--out", f"{TMP}/tw2.npz"),
    _cli("run", "--algorithm", "bfs", "--edges", f"{TMP}/tw2.npz"),
    _cli("run", "--algorithm", "wcc", "--edges", f"{TMP}/edges.txt"),
    _cli("graph", "stats", "--dataset", "page-sim"),
    _cli("graph", "stats", "--edges", f"{TMP}/tw.npz"),
    *_runs(),
    _cli("serve", "--dataset", "twitter-sim", *_TENANTS, "--duration", "0.05",
         "--out", f"{TMP}/serve.json", "--trace-spans", f"{TMP}/serve.jsonl"),
    _cli("serve", "--dataset", "twitter-sim", *_TENANTS, "--duration", "0.05",
         "--fault-seed", "42", "--overload", "--enforce-deadlines", "--brownout",
         "--share-reads", "--result-cache", "--result-cache-ttl", "0.01",
         "--timeline", f"{TMP}/timeline.md"),
    _cli("serve", "--dataset", "twitter-sim", *_TENANTS, "--duration", "0.05",
         "--policy", "fifo", "--overload", "--shed-policy", "by-priority"),
    # Saturated: queues shed, brownout degrades, deadlines abort and cancel.
    _cli("serve", "--dataset", "twitter-sim", "--tenant",
         "name=acme,rate=3000,quota=1,deadline=0.003,apps=pr+bfs+wcc", "--tenant",
         "name=globex,rate=1500,quota=1,degradable=0,apps=pr30+bfs", "--duration", "0.02",
         "--overload", "--queue-cap", "2", "--global-queue-cap", "3",
         "--enforce-deadlines", "--brownout", "--shed-policy", "by-priority"),
    _cli("slo", "--dataset", "twitter-sim", *_TENANTS, "--duration", "0.05",
         "--seed", "11", "--overload", "--brownout", "--out", f"{TMP}/slo.json",
         "--timeline", f"{TMP}/slo.md"),
    # The validators CI runs on the documents written above.
    EntryPoint("module", ("repro.obs.report", f"{TMP}/profile.json")),
    EntryPoint("module", ("repro.obs.slo", f"{TMP}/slo.json")),
    *(
        _cli("bench", "--experiment", name, quick=name == "table1")
        for name in (
            "table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "ablations", "sec56", "turbograph",
            "cache-policy", "stragglers", "partitioning",
        )
    ),
    *(
        EntryPoint("workload", (name,))
        for name in (
            "batch-pr-sem", "batch-pr-mem", "batch-traverse-v2",
            "serve-clean", "serve-chaos-traced",
        )
    ),
    *(
        EntryPoint("example", (name,))
        for name in (
            "quickstart.py", "web_analysis.py", "social_network_anomaly.py",
            "community_detection.py", "road_network_sssp.py", "toolbox_tour.py",
        )
    ),
)


#: Defs no entry point runs that stay, each with why: ``(pattern, reason)``
#: with an ``fnmatch`` pattern over ``path:qualname`` (path relative to
#: ``src/repro``).  The first match explains a def; the rest are what the
#: audit has not ruled on.
KEPT: Tuple[Tuple[str, str], ...] = (
    ("algorithms/*:*Program.run", "scalar hook: the definition test_batched_equals_scalar "
     "holds the batch hooks to"),
    ("algorithms/*:*Program.run_on_vertex", "scalar hook (as above)"),
    ("algorithms/*:*Program.run_on_message", "scalar hook (as above)"),
    ("algorithms/sssp.py:SSSPProgram.residuals", "async-mode hook; benchmarks/"
     "bench_async_vs_sync.py runs it"),
    ("core/vertex_program.py:VertexProgram.*", "a default hook a program overrides"),
    ("core/vertex_program.py:GraphContext.*", "program-facing API "
     "(docs/writing_algorithms.md)"),
    ("graph/page_vertex.py:*", "program-facing edge-list API (docs/writing_algorithms.md)"),
    ("graph/index.py:GraphIndex*.locate*", "read by name by benchmarks/perf/tracing.py"),
    ("graph/format.py:parse_edge_list_v2", "read by name by benchmarks/perf/tracing.py"),
    ("safs/io_request.py:*", "the object merge the array merger is held to; "
     "merge_requests is read by name by benchmarks/perf/tracing.py"),
    ("sim/parity.py:RebuildState.*", "checkpoint of a rebuild in flight at a barrier, "
     "held by the crash-resume tests"),
    ("bench/reporting.py:*", "used by the benchmarks/bench_*.py suites"),
    ("bench/harness.py:*", "used by benchmarks/bench_wallclock.py"),
    ("obs/registry.py:unknown_*", "the registry completeness check tier-1 runs on "
     "every emitted name"),
    ("obs/spans.py:*", "observability API (docs/observability.md)"),
    ("sim/stats.py:*", "the counter API the pins, benches and checks read"),
    ("sim/calibration.py:expected_envelope", "the paper's envelope the calibration "
     "check holds the device model to"),
    ("graph/validation.py:ValidationReport.*", "records an fsck failure; clean images "
     "never call it"),
    ("graph/generators.py:erdos_renyi_graph", "the tests' fixture graph (tests/conftest.py)"),
    ("graph/io_edge_list.py:save_edges_text", "writes the text format `repro run --edges` "
     "reads"),
    ("graph/io_edge_list.py:*networkx", "the networkx bridge the tests' oracle graphs "
     "cross (tests/conftest.py)"),
    ("graph/format.py:adjacency_from_edges", "the sort the builder's sort-reduce is "
     "described against (docs/graph_format.md)"),
    ("*:*edge_list_size", "the per-list byte count the on-SSD format is defined by"),
    ("core/partition.py:*", "the scalar partition map the vectorised partition_many "
     "is tested against"),
    ("baselines/common.py:scan_trace", "the baselines' SS trace; held to its loop "
     "reference, run by no bench row"),
)


def kept_reason(relpath: str, qualname: str) -> str:
    """Why an unreached def stays (``KEPT``), or ``"-"``."""
    name = f"{relpath}:{qualname}"
    return next((why for pattern, why in KEPT if fnmatch.fnmatchcase(name, pattern)), "-")


# --- the defs under src/repro -------------------------------------------

#: ``(path, first line, name)``: the key a code object and a def share.
Key = Tuple[str, int, str]


@dataclass(frozen=True)
class Def:
    path: str
    line: int
    qualname: str
    lines: int


def collect_defs(package: Path = PACKAGE) -> Dict[Key, Def]:
    """Every function and method defined under ``package``, nested ones
    included, keyed as their code objects are (a decorated def's code
    starts at its first decorator)."""
    defs: Dict[Key, Def] = {}

    def visit(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                defs[(path, first, child.name)] = Def(
                    path, child.lineno, qualname, child.end_lineno - child.lineno + 1
                )
                visit(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for file in sorted(package.rglob("*.py")):
        visit(ast.parse(file.read_text()), "", str(file))
    return defs


# --- running the entry points -------------------------------------------


class Recorder:
    """The profile hook: the ``(file, first line, name)`` of every Python
    code object called while it is installed."""

    def __init__(self) -> None:
        self.seen: Set[Key] = set()

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    @contextlib.contextmanager
    def installed(self):
        sys.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)


def _substitute(args: Sequence[str], tmp: str) -> List[str]:
    return [arg.replace(TMP, tmp) for arg in args]


def _run_one(point: EntryPoint, tmp: str) -> int:
    """Run one entry point in this process; its exit status."""
    if point.kind == "cli":
        from repro import cli

        return cli.main(_substitute(point.args, tmp))
    if point.kind == "module":
        module = importlib.import_module(point.args[0])
        return module.main(_substitute(point.args[1:], tmp))
    if point.kind == "workload":
        if str(PERF) not in sys.path:
            sys.path.insert(0, str(PERF))
        run = runpy.run_path(str(PERF / "run.py"))
        return run["main"](["--workload", point.args[0], "--seed", "0", "--seconds", "0.1"])
    if point.kind == "example":
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            runpy.run_path(str(EXAMPLES / point.args[0]), run_name="__main__")
        finally:
            os.chdir(cwd)
        return 0
    raise ValueError(f"unknown entry point kind {point.kind!r}")


def run_entry_points(points: Sequence[EntryPoint], recorder: Recorder, log) -> List[str]:
    """Run ``points`` under ``recorder`` (output swallowed); the labels
    of those that failed."""
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "edges.txt").write_text(EDGES_TXT)
        for point in points:
            start = time.perf_counter()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    with recorder.installed():
                        status = _run_one(point, tmp)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # noqa: BLE001 - reported, the probe goes on
                traceback.print_exc(file=log)
                status = f"{type(exc).__name__}: {exc}"
            if status not in (0, None):
                failed.append(f"{point.label} -> {status}")
            print(f"{time.perf_counter() - start:7.1f} s  {point.label}", file=log, flush=True)
    return failed


def report(defs: Dict[Key, Def], seen: Set[Key]):
    """``(unreached defs, algorithm modules with no reached def)``."""
    seen = {(os.path.abspath(path), line, name) for path, line, name in seen}
    unreached = sorted(
        (d for key, d in defs.items() if key not in seen),
        key=lambda d: (d.path, d.line),
    )
    modules: Dict[str, bool] = {}
    for key, d in defs.items():
        if d.path.startswith(str(ALGORITHMS)):
            modules[d.path] = modules.get(d.path, False) or key in seen
    dead = sorted(path for path, reached in modules.items() if not reached)
    return unreached, dead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip every bench experiment but table1")
    parser.add_argument("--out", type=Path, help="write unreached.txt here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    points = [p for p in ENTRY_POINTS if p.quick or not args.quick]
    recorder = Recorder()
    failed = run_entry_points(points, recorder, sys.stdout)
    defs = collect_defs()
    unreached, dead = report(defs, recorder.seen)

    reasons = [kept_reason(os.path.relpath(d.path, PACKAGE), d.qualname) for d in unreached]
    print(
        f"{len(defs)} defs under src/repro, {len(unreached)} unreached "
        f"({sum(d.lines for d in unreached)} body lines) by {len(points)} entry points; "
        f"{sum(why != '-' for why in reasons)} of them kept with a reason"
    )
    rows = [
        f"{os.path.relpath(d.path, ROOT)}:{d.line} {d.qualname} {d.lines} {why}"
        for d, why in zip(unreached, reasons)
    ]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "unreached.txt").write_text("".join(row + "\n" for row in rows))
        print(f"wrote {args.out / 'unreached.txt'}")
    else:
        print("\n".join(rows))
    for label in failed:
        print(f"ENTRY POINT FAILED {label}", file=sys.stderr)
    for path in dead:
        print(f"UNREACHED PROGRAM {os.path.relpath(path, ROOT)}: no def in it runs",
              file=sys.stderr)
    return 1 if failed or dead else 0


if __name__ == "__main__":
    sys.exit(main())
