#!/usr/bin/env python
"""Async priority rounds vs synchronous BSP: I/O and convergence.

Runs the three residual-capable algorithms (PageRank, WCC, SSSP) on the
twitter-sim graph in both execution modes (``docs/execution_modes.md``)
and records the comparison in ``BENCH_async.json``:

- **PageRank** syncs are capped at the paper's 30 iterations, so the
  async run stops at *equal result tolerance*: its global residual
  threshold is set to the pending mass the sync run left behind, and the
  recorded ``result_max_rel_diff`` proves both runs sit within tolerance
  of the same fixpoint.
- **WCC / SSSP** converge exactly in both modes; the benchmark asserts
  the label/distance vectors are identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_async_vs_sync.py            # print table
    PYTHONPATH=src python benchmarks/bench_async_vs_sync.py --record   # + BENCH_async.json
    PYTHONPATH=src python benchmarks/bench_async_vs_sync.py --check    # CI gate
    PYTHONPATH=src python benchmarks/bench_async_vs_sync.py --markdown out.md

``--check`` exits non-zero unless async reads at least
``--min-reduction`` (default 0.2) fewer bytes than sync on
pr@twitter-sim@sem while staying inside the result tolerance, and
matches the sync fixpoint exactly on WCC/SSSP.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.sssp import SSSPProgram
from repro.algorithms.wcc import WCCProgram
from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import make_engine
from repro.core.config import ExecutionKind, ExecutionMode
from repro.graph.builder import build_directed
from repro.graph.generators import twitter_sim

_REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = _REPO_ROOT / "BENCH_async.json"

#: Relative L-inf tolerance for the PageRank fixpoint comparison (both
#: runs stop with the same unpropagated mass; see the module docstring).
PR_REL_TOLERANCE = 2e-3

#: Async round cap: a generous ceiling — convergence comes from
#: quiescence/threshold, never from hitting this.
ASYNC_ROUND_CAP = 5000


def _run(image, kind, program, initial_active=None, max_iterations=None, **overrides):
    """One fresh-engine run."""
    engine = make_engine(
        image,
        mode=ExecutionMode.SEMI_EXTERNAL,
        cache_bytes=scaled_cache_bytes(1.0),
        execution=kind,
        **overrides,
    )
    result = engine.run(
        program, initial_active=initial_active, max_iterations=max_iterations
    )
    return result


def _row(result) -> dict:
    return {
        "iterations": result.iterations,
        "bytes_read": int(result.bytes_read),
        "cache_hit_rate": round(result.cache_hit_rate, 4),
        "sim_runtime_s": result.runtime,
    }


def bench_pagerank(image) -> dict:
    sync_prog = PageRankProgram(image.num_vertices)
    sync_res = _run(image, ExecutionKind.SYNC, sync_prog, max_iterations=30)
    sync_ranks = sync_prog.rank + sync_prog.pending
    leftover = float(np.sum(np.abs(sync_prog.pending)))

    async_prog = PageRankProgram(image.num_vertices)
    async_res = _run(
        image,
        ExecutionKind.ASYNC,
        async_prog,
        max_iterations=ASYNC_ROUND_CAP,
        async_threshold=leftover,
    )
    async_ranks = async_prog.rank + async_prog.pending

    rel_diff = float(
        np.max(np.abs(sync_ranks - async_ranks)) / np.max(sync_ranks)
    )
    return {
        "sync": _row(sync_res),
        "async": _row(async_res),
        "bytes_read_reduction": round(
            1.0 - async_res.bytes_read / sync_res.bytes_read, 4
        ),
        "equal_tolerance": {
            "sync_leftover_residual": round(leftover, 6),
            "async_leftover_residual": round(
                float(np.sum(np.abs(async_prog.pending))), 6
            ),
            "result_max_rel_diff": rel_diff,
            "rel_tolerance": PR_REL_TOLERANCE,
        },
    }


def bench_wcc(image) -> dict:
    sync_prog = WCCProgram(image.num_vertices)
    sync_res = _run(image, ExecutionKind.SYNC, sync_prog)

    async_prog = WCCProgram(image.num_vertices)
    async_res = _run(
        image, ExecutionKind.ASYNC, async_prog, max_iterations=ASYNC_ROUND_CAP
    )
    return {
        "sync": _row(sync_res),
        "async": _row(async_res),
        "bytes_read_reduction": round(
            1.0 - async_res.bytes_read / sync_res.bytes_read, 4
        ),
        "results_identical": bool(
            np.array_equal(sync_prog.component, async_prog.component)
        ),
    }


def bench_sssp() -> dict:
    # SSSP needs edge weights, which the stock twitter-sim image does not
    # carry — build the same graph with seeded uniform weights.
    edges, num_vertices = twitter_sim(scale=13, seed=1)
    rng = np.random.default_rng(7)
    image = build_directed(
        edges,
        num_vertices,
        name="twitter-sim-weighted",
        weights=rng.uniform(1.0, 10.0, edges.shape[0]),
    )
    source = int(np.argmax(image.out_csr.degrees()))

    sync_prog = SSSPProgram(image.num_vertices, source)
    sync_res = _run(
        image, ExecutionKind.SYNC, sync_prog,
        initial_active=np.asarray([source]),
    )
    async_prog = SSSPProgram(image.num_vertices, source)
    async_res = _run(
        image, ExecutionKind.ASYNC, async_prog,
        initial_active=np.asarray([source]),
        max_iterations=ASYNC_ROUND_CAP,
    )
    return {
        "sync": _row(sync_res),
        "async": _row(async_res),
        "bytes_read_reduction": round(
            1.0 - async_res.bytes_read / sync_res.bytes_read, 4
        ),
        "results_identical": bool(
            np.array_equal(sync_prog.dist, async_prog.dist)
        ),
    }


def run_all() -> dict:
    image = load_dataset("twitter-sim")
    return {
        "pr@twitter-sim@sem": bench_pagerank(image),
        "wcc@twitter-sim@sem": bench_wcc(image),
        "sssp@twitter-sim-weighted@sem": bench_sssp(),
    }


def format_markdown(rows: dict) -> str:
    lines = [
        "| workload | sync iters | async rounds | sync bytes | async bytes | reduction | result |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, row in rows.items():
        if "results_identical" in row:
            verdict = "identical" if row["results_identical"] else "DIVERGED"
        else:
            eq = row["equal_tolerance"]
            verdict = f"rel diff {eq['result_max_rel_diff']:.2e}"
        lines.append(
            f"| {name} | {row['sync']['iterations']} "
            f"| {row['async']['iterations']} "
            f"| {int(row['sync']['bytes_read']):,} "
            f"| {int(row['async']['bytes_read']):,} "
            f"| {row['bytes_read_reduction'] * 100:.1f}% "
            f"| {verdict} |"
        )
    return "\n".join(lines) + "\n"


def check(rows: dict, min_reduction: float) -> int:
    failed = False
    pr = rows["pr@twitter-sim@sem"]
    if pr["bytes_read_reduction"] < min_reduction:
        print(
            f"FAIL pr bytes_read reduction {pr['bytes_read_reduction']:.1%} "
            f"< required {min_reduction:.0%}",
            file=sys.stderr,
        )
        failed = True
    eq = pr["equal_tolerance"]
    if eq["result_max_rel_diff"] > eq["rel_tolerance"]:
        print(
            f"FAIL pr result diff {eq['result_max_rel_diff']:.2e} exceeds "
            f"tolerance {eq['rel_tolerance']:.2e}",
            file=sys.stderr,
        )
        failed = True
    if eq["async_leftover_residual"] > eq["sync_leftover_residual"]:
        print("FAIL async stopped less converged than sync", file=sys.stderr)
        failed = True
    for name in ("wcc@twitter-sim@sem", "sssp@twitter-sim-weighted@sem"):
        row = rows[name]
        if not row["results_identical"]:
            print(f"FAIL {name}: async result diverged from sync", file=sys.stderr)
            failed = True
        if row["async"]["bytes_read"] > row["sync"]["bytes_read"]:
            print(f"FAIL {name}: async read more bytes than sync", file=sys.stderr)
            failed = True
    print("async-vs-sync check:", "FAILED" if failed else "ok")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the comparison to BENCH_async.json")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the async wins hold")
    parser.add_argument("--min-reduction", type=float, default=0.2,
                        help="--check: required pr bytes_read reduction (default 0.2)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write the comparison as a Markdown table")
    args = parser.parse_args()

    rows = run_all()
    print(format_markdown(rows))
    if args.record:
        RESULTS_FILE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(rows)} workloads in {RESULTS_FILE.name}")
    if args.markdown:
        Path(args.markdown).write_text(format_markdown(rows))
        print(f"wrote Markdown table -> {args.markdown}")
    if args.check:
        return check(rows, args.min_reduction)
    return 0


if __name__ == "__main__":
    sys.exit(main())
