#!/usr/bin/env python
"""A tour of the supporting toolbox around the engine.

Production storage systems ship with their instruments.  This example
exercises the ones this library provides:

1. device-model calibration (fio-style: measure the simulated array's
   IOPS/bandwidth curve and check it against the paper's numbers),
2. graph construction with external-sort accounting and flash writes,
3. image integrity checking (fsck for the on-SSD format),
4. dataset statistics (degree skew, ID locality) for the generators,
5. per-iteration tracing of an engine run, exported to CSV.

Run:  python examples/toolbox_tour.py
"""

import numpy as np

from repro.algorithms import bfs
from repro.core import EngineConfig, GraphEngine
from repro.graph import degree_stats, id_locality, validate_image
from repro.graph.construction import GraphConstructor
from repro.graph.generators import twitter_sim
from repro.obs import arm, write_iteration_csv
from repro.sim import measured_envelope, profile_random_reads


def main() -> None:
    # 1. Calibrate the simulated array.
    profile = profile_random_reads(requests_per_point=1000)
    envelope = measured_envelope(profile)
    print("simulated SSD array (15 devices):")
    print(f"  random 4KB: {envelope['random_4k_iops']:,.0f} IOPS "
          f"(paper: ~900,000)")
    print(f"  sequential: {envelope['sequential_bandwidth'] / 1e9:.1f} GB/s; "
          f"seq:random ratio {envelope['seq_to_random_ratio']:.1f} "
          f"(paper: 2-3x)")

    # 2. Construct a graph image through the external-sort pipeline.
    edges, n = twitter_sim(scale=12, seed=42)
    report = GraphConstructor().build(edges, n, name="tour")
    image = report.image
    print(f"\nconstruction: {image.num_edges:,} edges in "
          f"{report.seconds * 1e3:.1f} ms simulated "
          f"({report.num_runs} sort runs, "
          f"{report.flash_pages_programmed:,} flash pages programmed)")

    # 3. fsck the image.
    check = validate_image(image)
    print(f"integrity: {'CLEAN' if check.ok else check.errors[:2]} "
          f"({check.vertices_checked:,} vertex records, "
          f"{check.edges_checked:,} edges verified)")

    # 4. Dataset statistics.
    stats = degree_stats(image)
    print(f"\ndegree distribution: mean {stats.mean:.1f}, max {stats.maximum}, "
          f"gini {stats.gini:.2f}, "
          f"top-1% of vertices own {stats.top1pct_edge_share:.0%} of edges")
    print(f"ID locality (64-window): {id_locality(image):.0%} "
          f"(R-MAT scrambles IDs; page-sim would be >60%)")

    # 5. Trace an engine run.
    engine = GraphEngine(image, config=EngineConfig(num_threads=16, range_shift=6))
    source = int(np.argmax(image.out_csr.degrees()))
    observer = arm(engine)
    levels, result = bfs(engine, source)
    print(f"\nBFS trace ({result.iterations} iterations):")
    print("  iter  frontier  pages_fetched  cache_hits")
    for row in observer.iterations:
        print(f"  {row['iteration']:>4}  {row['frontier']:>8,}  "
              f"{row['pages_fetched']:>13,}  {row['cache_hits']:>10,}")
    write_iteration_csv(observer, "/tmp/bfs_trace.csv")
    print("  full trace -> /tmp/bfs_trace.csv")


if __name__ == "__main__":
    main()
