"""Pins every simulated number of the read path on a small R-MAT graph.

``golden_twitter_sim.json`` pins bfs/wcc/pr under one configuration
(format v1, semi-external, engine merging).  This fixture covers the
rest of what an edge-list wave can look like — attribute reads (sssp),
cross-vertex requests with ``charge_edges`` and ``BOTH`` (triangle
counting, scan statistics), a multi-run driver whose backward sweep
requests its own IN-edge lists (bc), the batch hooks (pr, wcc) — under
both on-SSD formats, both execution modes and all three Figure 12 merge
disciplines, plus one vertically partitioned run and one run under a
recoverable fault plan.  The programs that only define scalar hooks get
format v1 × both modes under engine merging: label propagation (no
combiner, activations from ``run_on_iteration_end``), Louvain (an
undirected image) and SSSP under async execution (wave delivery
interleaved with eager message flushes).
Each case pins ``runtime``, the full ``RunResult.counters`` dict and
every worker's ``(time, busy)`` with **exact** equality — for a
multi-engine app (Louvain builds one engine per level), the last
engine's workers.

Regenerate (only when the simulation itself legitimately changes)::

    PYTHONPATH=src python tests/core/test_read_path_pin.py --regen
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    betweenness_centrality,
    bfs,
    label_propagation,
    louvain,
    pagerank,
    scan_statistics,
    sssp,
    triangle_count,
    wcc,
)
from repro.bench.harness import default_source, make_engine
from repro.core.config import ExecutionKind, ExecutionMode
from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import rmat_graph
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    StuckQueue,
    TransientErrors,
)

FIXTURE = Path(__file__).resolve().parent / "golden_read_path.json"

#: Eight pages: smaller than either edge file, so every run evicts.
CACHE_BYTES = 32 * 1024

#: app -> run(make, image): ``make(image)`` builds the case's engine.
APPS = {
    "bfs": lambda make, image: bfs(make(image), default_source(image))[-1],
    "bc": lambda make, image: betweenness_centrality(make(image), default_source(image))[-1],
    "sssp": lambda make, image: sssp(make(image), default_source(image))[-1],
    "tc": lambda make, image: triangle_count(make(image))[-1],
    "ss": lambda make, image: scan_statistics(make(image))[-1],
    "pr": lambda make, image: pagerank(make(image), max_iterations=5)[-1],
    "wcc": lambda make, image: wcc(make(image))[-1],
}
#: Programs that define only scalar hooks, pinned under format v1 and
#: engine merging.
SCALAR_ONLY = {
    "lp": lambda make, image: label_propagation(make(image), max_rounds=5)[-1],
    "louvain": lambda make, image: louvain(make, image, max_levels=3).run,
}
UNDIRECTED = ("louvain",)

MODES = {"sem": ExecutionMode.SEMI_EXTERNAL, "mem": ExecutionMode.IN_MEMORY}

MERGES = {
    "engine": dict(merge_in_engine=True),
    "fs": dict(merge_in_engine=False, merge_in_fs=True),
    "none": dict(merge_in_engine=False, merge_in_fs=False),
}

#: Every injected fault is recoverable under ``FAULT_POLICY``.  The pin
#: graph is small enough to stripe over devices 0 and 1 only.
FAULT_PLAN = FaultPlan(
    [
        TransientErrors(device=0, start=0.0, end=10.0, probability=0.15),
        StuckQueue(device=1, start=0.005, end=0.016),
        DeviceFailure(device=1, at=0.03),
    ],
    seed=42,
)
FAULT_POLICY = FaultPolicy(max_retries=12, retry_backoff=200e-6, request_timeout=0.002)

CASES = [
    f"{app}-{fmt}-{mode}-{merge}"
    for app in APPS
    for fmt in ("v1", "v2")
    for mode in MODES
    for merge in MERGES
] + ["tc-v1-sem-engine-vparts", "tc-v1-sem-fs-faults"] + [
    f"{app}-v1-{mode}-engine" for app in SCALAR_ONLY for mode in MODES
] + [f"sssp-v1-{mode}-engine-async" for mode in MODES]


@lru_cache(maxsize=None)
def _image(fmt: str, undirected: bool):
    edges, n = rmat_graph(10, edge_factor=8, seed=7)
    if undirected:
        return build_undirected(edges, n, name="pin-u", fmt=fmt)
    weights = np.random.default_rng(11).uniform(0.5, 2.0, size=edges.shape[0])
    return build_directed(edges, n, name="pin", weights=weights, fmt=fmt)


def run_case(case: str) -> dict:
    app, fmt, mode, merge, *extra = case.split("-")
    overrides = dict(MERGES[merge])
    if "vparts" in extra:
        overrides.update(vertical_part_threshold=8, vertical_part_size=4)
    if "faults" in extra:
        overrides.update(fault_plan=FAULT_PLAN, fault_policy=FAULT_POLICY)
    if "async" in extra:
        # A low flush threshold makes the eager flushes frequent.
        overrides.update(execution=ExecutionKind.ASYNC, message_flush_threshold=64)
    engines = []

    def make(image):
        engines.append(
            make_engine(
                image,
                mode=MODES[mode],
                cache_bytes=CACHE_BYTES,
                num_threads=4,
                range_shift=5,
                **overrides,
            )
        )
        return engines[-1]

    run = APPS.get(app) or SCALAR_ONLY[app]
    result = run(make, _image(fmt, undirected=app in UNDIRECTED))
    return {
        "runtime": result.runtime,
        "counters": result.counters,
        "workers": [[w.time, w.busy] for w in engines[-1]._workers],
    }


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_read_path_pinned(case):
    # Through JSON and back, so tuples/ints compare the way they were stored.
    got = json.loads(json.dumps(run_case(case)))
    expected = _golden()[case]
    assert got["runtime"] == expected["runtime"]
    assert got["counters"] == expected["counters"]
    assert got["workers"] == expected["workers"]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/core/test_read_path_pin.py --regen")
    # One case per line keeps fixture diffs readable.
    rows = (
        f"{json.dumps(case)}: {json.dumps(run_case(case), sort_keys=True)}"
        for case in CASES
    )
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {FIXTURE} ({len(CASES)} cases)")
