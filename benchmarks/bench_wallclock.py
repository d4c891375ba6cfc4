#!/usr/bin/env python
"""Wall-clock benchmark harness for the simulator itself.

Every other benchmark in this directory reports *simulated* seconds; this
one records how long the simulator takes in *real* wall-clock time.  The
vectorized hot paths (batched vertex execution, array-based I/O merging,
bulk page-cache operations) change only wall-clock cost — simulated
counters must stay bit-identical — so this harness is where the perf
trajectory is tracked, suite by suite, in ``BENCH_wallclock.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py                 # run + print full suite
    PYTHONPATH=src python benchmarks/bench_wallclock.py --record after  # run + store under "after"
    PYTHONPATH=src python benchmarks/bench_wallclock.py --record smoke  # store the smoke baseline
    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke         # CI: fail on >2x regression

``--smoke`` runs the short suite and exits non-zero when any suite is more
than ``--tolerance`` (default 2.0) times slower than the committed
baseline's ``smoke`` section — loose enough for shared CI runners, tight
enough to catch an accidental return to per-vertex Python loops.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import (
    collect_metrics,
    make_engine,
    run_algorithm,
    write_metrics_json,
)
from repro.core.config import ExecutionMode
from repro.obs import arm, build_profile, validate_profile

_REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = _REPO_ROOT / "BENCH_wallclock.json"
METRICS_FILE = _REPO_ROOT / "BENCH_metrics.json"
PROFILE_FILE = _REPO_ROOT / "BENCH_profile.json"

#: The suite whose per-layer profile becomes BENCH_profile.json.
PROFILE_SUITE = (
    "pr@twitter-sim@sem", "twitter-sim", "pr", ExecutionMode.SEMI_EXTERNAL, "v1"
)

#: (suite name, graph, app, mode, edge-list format).  The SEM suites
#: exercise the full request/merge/cache/delivery stack; the MEM suites
#: isolate the engine; the ``@v2`` suites run the same workload over the
#: compressed on-SSD format so its wall-clock and bytes_read deltas are
#: tracked next to the v1 numbers.
FULL_SUITES = (
    ("pr@twitter-sim@sem", "twitter-sim", "pr", ExecutionMode.SEMI_EXTERNAL, "v1"),
    ("wcc@twitter-sim@sem", "twitter-sim", "wcc", ExecutionMode.SEMI_EXTERNAL, "v1"),
    ("bfs@twitter-sim@sem", "twitter-sim", "bfs", ExecutionMode.SEMI_EXTERNAL, "v1"),
    ("pr@twitter-sim@sem@v2", "twitter-sim", "pr", ExecutionMode.SEMI_EXTERNAL, "v2"),
    ("wcc@twitter-sim@sem@v2", "twitter-sim", "wcc", ExecutionMode.SEMI_EXTERNAL, "v2"),
    ("bfs@twitter-sim@sem@v2", "twitter-sim", "bfs", ExecutionMode.SEMI_EXTERNAL, "v2"),
    ("pr@twitter-sim@mem", "twitter-sim", "pr", ExecutionMode.IN_MEMORY, "v1"),
    ("wcc@twitter-sim@mem", "twitter-sim", "wcc", ExecutionMode.IN_MEMORY, "v1"),
)

SMOKE_SUITES = (
    ("pr@twitter-sim@sem", "twitter-sim", "pr", ExecutionMode.SEMI_EXTERNAL, "v1"),
    ("wcc@twitter-sim@sem", "twitter-sim", "wcc", ExecutionMode.SEMI_EXTERNAL, "v1"),
    ("pr@twitter-sim@sem@v2", "twitter-sim", "pr", ExecutionMode.SEMI_EXTERNAL, "v2"),
)


def run_suite(
    graph: str, app: str, mode: ExecutionMode, repeats: int = 1, fmt: str = "v1"
) -> dict:
    """Run one (graph, app, mode, fmt) suite; wall_s is the best of
    ``repeats``."""
    image = load_dataset(graph, fmt)
    cache = scaled_cache_bytes(1.0)
    best = None
    result = None
    for _ in range(repeats):
        engine = make_engine(image, mode=mode, cache_bytes=cache)
        start = time.perf_counter()
        result = run_algorithm(engine, app)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return {
        "wall_s": best,
        "sim_runtime_s": result.runtime,
        "bytes_read": result.bytes_read,
        "cache_hit_rate": result.cache_hit_rate,
        "iterations": result.iterations,
        "format": fmt,
    }


def run_suites(suites, repeats: int = 1) -> dict:
    rows = {}
    for name, graph, app, mode, fmt in suites:
        rows[name] = run_suite(graph, app, mode, repeats=repeats, fmt=fmt)
        print(
            f"{name:24s} wall={rows[name]['wall_s']:8.3f}s  "
            f"sim={rows[name]['sim_runtime_s']:.6f}s  "
            f"iters={rows[name]['iterations']}"
        )
    return rows


def record(section: str, rows: dict, merge: bool = False) -> None:
    data = json.loads(RESULTS_FILE.read_text()) if RESULTS_FILE.exists() else {}
    if merge and section in data:
        # Merge keeps suites recorded on other machines untouched —
        # wall_s values are host-specific, so re-recording everything
        # just to add one suite would perturb the whole baseline.
        data[section] = {**data[section], **rows}
    else:
        data[section] = rows
    before, after = data.get("before"), data.get("after")
    if before and after:
        data["speedup"] = {
            name: round(before[name]["wall_s"] / after[name]["wall_s"], 2)
            for name in after
            if name in before and after[name]["wall_s"] > 0
        }
    RESULTS_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(rows)} suites under {section!r} in {RESULTS_FILE.name}")


def record_metrics() -> None:
    """Re-run the smoke suites with the observer armed (untimed) and
    write ``BENCH_metrics.json`` plus the flagship suite's per-layer
    breakdown as ``BENCH_profile.json``.

    Arming never moves simulated counters (the bit-identical contract
    checked by ``--smoke``), so the snapshots here match what the timed
    runs saw — with latency histograms and gauge series filled in.
    """
    sections = {}
    profile = None
    for name, graph, app, mode, fmt in SMOKE_SUITES:
        image = load_dataset(graph, fmt)
        engine = make_engine(image, mode=mode, cache_bytes=scaled_cache_bytes(1.0))
        observer = arm(engine) if mode is ExecutionMode.SEMI_EXTERNAL else None
        run_algorithm(engine, app)
        sections[name] = collect_metrics(engine, label=name)
        if (name, graph, app, mode, fmt) == PROFILE_SUITE and observer is not None:
            profile = build_profile(observer, label=name)
    write_metrics_json(METRICS_FILE, sections)
    print(f"recorded {len(sections)} metric snapshots in {METRICS_FILE.name}")
    if profile is not None:
        problems = validate_profile(profile)
        if problems:
            raise AssertionError(f"invalid profile: {problems}")
        PROFILE_FILE.write_text(
            json.dumps(profile, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded {PROFILE_SUITE[0]} profile in {PROFILE_FILE.name}")


def smoke_check(tolerance: float) -> int:
    if not RESULTS_FILE.exists():
        print(f"no {RESULTS_FILE.name}; run --record smoke first", file=sys.stderr)
        return 2
    baseline = json.loads(RESULTS_FILE.read_text()).get("smoke")
    if not baseline:
        print(f"{RESULTS_FILE.name} has no 'smoke' section", file=sys.stderr)
        return 2
    rows = run_suites(SMOKE_SUITES)
    failed = False
    for name, row in rows.items():
        ref = baseline.get(name)
        if ref is None:
            print(f"SKIP {name}: no baseline entry")
            continue
        ratio = row["wall_s"] / ref["wall_s"]
        verdict = "ok" if ratio <= tolerance else "REGRESSION"
        print(f"{name:24s} {row['wall_s']:.3f}s vs baseline {ref['wall_s']:.3f}s "
              f"({ratio:.2f}x) {verdict}")
        if ratio > tolerance:
            failed = True
        # The simulated counters are part of the contract: the fast paths
        # may only change wall-clock, never results.
        for key in ("sim_runtime_s", "bytes_read", "cache_hit_rate", "iterations"):
            if row[key] != ref[key]:
                print(f"COUNTER DRIFT {name}.{key}: {row[key]!r} != baseline "
                      f"{ref[key]!r}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short suite; compare against the committed baseline")
    parser.add_argument("--record", metavar="SECTION",
                        help="store results under this section of BENCH_wallclock.json "
                             "(before / after / smoke)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="repeats per suite; wall_s is the minimum (default 2)")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="--smoke failure threshold vs baseline (default 2.0)")
    parser.add_argument("--only", action="append", metavar="SUITE",
                        help="limit to suites whose name contains this substring "
                             "(repeatable); with --record, merges into the "
                             "section instead of replacing it")
    args = parser.parse_args()

    if args.smoke:
        return smoke_check(args.tolerance)
    suites = SMOKE_SUITES if args.record == "smoke" else FULL_SUITES
    if args.only:
        suites = tuple(
            s for s in suites if any(sub in s[0] for sub in args.only)
        )
        if not suites:
            print("no suites match --only", file=sys.stderr)
            return 2
    rows = run_suites(suites, repeats=args.repeats)
    if args.record:
        record(args.record, rows, merge=bool(args.only))
        if not args.only:
            record_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
