#!/usr/bin/env python
"""Format matrix: every app under edge-list format v1 vs v2.

Runs pr, wcc and bfs on twitter-sim in semi-external mode under both
on-SSD edge-list formats and checks the compressed format's contract:

- **identical algorithm outputs** — the per-vertex result arrays must be
  bit-identical between formats (compression may only change bytes moved,
  never values computed);
- **fewer bytes read** — v2 must lower ``array.bytes_read`` for every
  app, and by at least 25% for PageRank (the every-iteration full-scan
  workload the tentpole targets).

Usage::

    PYTHONPATH=src python benchmarks/bench_format_matrix.py
    PYTHONPATH=src python benchmarks/bench_format_matrix.py --out BENCH_format_matrix.md

``--out`` writes the comparison table as a Markdown artifact (the CI
format-matrix job uploads it).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.wcc import wcc
from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import default_source, make_engine
from repro.bench.reporting import format_table
from repro.core.config import ExecutionMode
from repro.graph.format import FORMATS
from repro.obs import registry as reg

GRAPH = "twitter-sim"

#: PageRank reads every edge list every iteration — the workload where
#: compression pays most directly; the tentpole's floor applies to it.
PR_MIN_REDUCTION = 0.25


def run_app(app: str, fmt: str):
    """One (app, fmt) cell: returns (values, RunResult)."""
    image = load_dataset(GRAPH, fmt)
    engine = make_engine(
        image,
        mode=ExecutionMode.SEMI_EXTERNAL,
        cache_bytes=scaled_cache_bytes(1.0),
    )
    if app == "pr":
        return pagerank(engine)
    if app == "wcc":
        return wcc(engine)
    if app == "bfs":
        return bfs(engine, default_source(image))
    raise ValueError(f"unknown app {app!r}")


def run_matrix(apps=("pr", "wcc", "bfs")):
    """Run the full matrix; returns (table rows, failure messages)."""
    rows = []
    failures = []
    for app in apps:
        cells = {fmt: run_app(app, fmt) for fmt in FORMATS}
        (v1_vals, v1), (v2_vals, v2) = cells["v1"], cells["v2"]
        identical = np.array_equal(v1_vals, v2_vals)
        reduction = 1.0 - v2.bytes_read / v1.bytes_read
        if not identical:
            failures.append(f"{app}: v1 and v2 algorithm outputs differ")
        if v2.bytes_read >= v1.bytes_read:
            failures.append(
                f"{app}: v2 read {v2.bytes_read} bytes, not below v1's "
                f"{v1.bytes_read}"
            )
        if app == "pr" and reduction < PR_MIN_REDUCTION:
            failures.append(
                f"pr: v2 bytes_read reduction {reduction:.1%} is below the "
                f"{PR_MIN_REDUCTION:.0%} floor"
            )
        rows.append(
            {
                "app": app,
                "v1_read_MB": v1.bytes_read / 1e6,
                "v2_read_MB": v2.bytes_read / 1e6,
                "reduction": f"{reduction:.1%}",
                "v1_hit": v1.cache_hit_rate,
                "v2_hit": v2.cache_hit_rate,
                "compression": v2.counters.get(reg.GRAPH_COMPRESSION_RATIO, 1.0),
                "decode_MB": v2.counters.get(reg.GRAPH_DECODE_BYTES, 0.0) / 1e6,
                "outputs": "identical" if identical else "DIFFER",
            }
        )
    return rows, failures


def to_markdown(rows) -> str:
    """The matrix as a GitHub-flavoured Markdown table."""
    columns = list(rows[0].keys())
    lines = [
        f"# Edge-list format matrix ({GRAPH}, semi-external)",
        "",
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        cells = [
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row.values()
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", metavar="PATH", help="write the table as a Markdown artifact"
    )
    args = parser.parse_args()
    rows, failures = run_matrix()
    print(format_table(rows, title=f"Format matrix on {GRAPH} (sem)"))
    if args.out:
        Path(args.out).write_text(to_markdown(rows))
        print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
