"""Run any algorithm on any engine configuration and collect a row.

The single entry points :func:`run_algorithm` (FlashGraph, either mode)
and :func:`run_baseline` (comparator engines) normalise everything the
experiments need: runtime, bytes read, memory, cache hit rate, CPU/IO
utilisation.  :func:`collect_metrics` / :func:`write_metrics_json` emit
the machine-readable metrics snapshot (counters, histograms, gauge
series) that rides next to ``BENCH_wallclock.json`` as
``BENCH_metrics.json``.
"""

import json
from typing import Dict, Optional

import numpy as np

from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.scan_statistics import scan_statistics
from repro.algorithms.triangle_count import triangle_count
from repro.algorithms.wcc import wcc
from repro.baselines import (
    GaloisEngine,
    GraphChiEngine,
    PowerGraphEngine,
    XStreamEngine,
)
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine, RunResult
from repro.obs import registry as reg
from repro.graph.builder import GraphImage
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.cost_model import CostModel
from repro.sim.faults import FaultPlan, FaultPolicy
from repro.sim.health import HealthPolicy
from repro.sim.parity import ParityConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

#: The six applications of §4, in the paper's order.
PAPER_APPS = ("bfs", "bc", "tc", "wcc", "pr", "ss")

#: Long names used by the baseline engines.
BASELINE_NAMES = {
    "bfs": "bfs",
    "bc": "bc",
    "pr": "pagerank",
    "wcc": "wcc",
    "tc": "triangle_count",
    "ss": "scan_statistics",
}

BASELINE_ENGINES = {
    "graphchi": GraphChiEngine,
    "xstream": XStreamEngine,
    "powergraph": PowerGraphEngine,
    "galois": GaloisEngine,
}


def default_source(image: GraphImage) -> int:
    """The traversal source every experiment uses: the largest out-hub,
    so BFS reaches most of the graph (as the paper's sources do)."""
    return int(np.argmax(image.out_csr.degrees()))


def make_engine(
    image: GraphImage,
    mode: ExecutionMode = ExecutionMode.SEMI_EXTERNAL,
    cache_bytes: int = 1 << 20,
    page_size: int = 4096,
    num_threads: int = 32,
    range_shift: int = 8,
    cost_model: Optional[CostModel] = None,
    array_config: Optional[SSDArrayConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_policy: Optional[FaultPolicy] = None,
    health_policy: Optional[HealthPolicy] = None,
    parity: Optional[ParityConfig] = None,
    **config_overrides,
) -> GraphEngine:
    """A fully-wired engine over a fresh SAFS instance.

    The robustness knobs (``fault_plan``/``fault_policy``/
    ``health_policy``/``parity``) only apply in semi-external mode; all
    default to off: a fault-free array without parity or health monitor.
    """
    config = EngineConfig(
        mode=mode,
        num_threads=num_threads,
        range_shift=range_shift,
        **config_overrides,
    )
    safs = None
    if mode is ExecutionMode.SEMI_EXTERNAL:
        array = SSDArray(
            array_config or SSDArrayConfig(), fault_plan=fault_plan, parity=parity
        )
        safs = SAFS(
            array,
            SAFSConfig(page_size=page_size, cache_bytes=cache_bytes),
            stats=array.stats,
            fault_policy=fault_policy,
            health_policy=health_policy,
        )
    return GraphEngine(image, safs=safs, config=config, cost_model=cost_model)


def run_algorithm(
    engine: GraphEngine,
    app: str,
    source: Optional[int] = None,
    max_iterations: int = 30,
) -> RunResult:
    """Run one of the paper's six applications on a FlashGraph engine."""
    if source is None:
        source = default_source(engine.image)
    if app == "bfs":
        _, result = bfs(engine, source)
    elif app == "bc":
        _, result = betweenness_centrality(engine, source)
    elif app == "pr":
        _, result = pagerank(engine, max_iterations=max_iterations)
    elif app == "wcc":
        _, result = wcc(engine)
    elif app == "tc":
        _, result = triangle_count(engine)
    elif app == "ss":
        _, _, result = scan_statistics(engine)
    else:
        raise ValueError(f"unknown app {app!r}; pick from {PAPER_APPS}")
    return result


def run_baseline(
    system: str,
    image: GraphImage,
    app: str,
    source: Optional[int] = None,
    max_iterations: int = 30,
    **engine_kwargs,
):
    """Run one app on one comparator engine; returns a BaselineReport."""
    if source is None:
        source = default_source(image)
    try:
        engine_cls = BASELINE_ENGINES[system]
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; pick from {sorted(BASELINE_ENGINES)}"
        ) from None
    engine = engine_cls(image, **engine_kwargs)
    return engine.run(BASELINE_NAMES[app], source=source, max_iterations=max_iterations)


def collect_metrics(engine: GraphEngine, label: str = "") -> Dict[str, object]:
    """The engine's full metrics snapshot, tagged with a suite label.

    Counters are always present; histogram and gauge-series sections fill
    in when the run was traced with an armed observer (see
    :mod:`repro.obs`).  The shape is the stable
    ``repro.metrics/v1`` schema from
    :meth:`~repro.sim.stats.StatsCollector.metrics_snapshot`.
    """
    metrics = engine.stats.metrics_snapshot()
    metrics["label"] = label
    return metrics


def write_metrics_json(path, sections: Dict[str, Dict[str, object]]) -> None:
    """Write ``{suite name -> metrics snapshot}`` as deterministic JSON."""
    with open(path, "w") as f:
        json.dump(sections, f, indent=2, sort_keys=True)
        f.write("\n")


def result_row(
    label: str, app: str, result: RunResult, fmt: Optional[str] = None
) -> Dict[str, object]:
    """A uniform dict row from a FlashGraph RunResult.

    Passing ``fmt`` appends the on-SSD edge-list format plus the run's
    compression ratio (v1-equivalent bytes over stored bytes; v1 runs
    report 1.0), so format comparisons read straight off the table.
    """
    row = {
        "system": label,
        "app": app,
        "runtime_s": result.runtime,
        "iterations": result.iterations,
        "read_MB": result.bytes_read / 1e6,
        "cache_hit": result.cache_hit_rate,
        "cpu_util": result.cpu_utilization,
        "io_util": result.io_utilization,
        "memory_MB": result.memory_bytes / 1e6,
    }
    if fmt is not None:
        row["format"] = fmt
        row["compression"] = result.counters.get(reg.GRAPH_COMPRESSION_RATIO, 1.0)
        row["decode_MB"] = result.counters.get(reg.GRAPH_DECODE_BYTES, 0.0) / 1e6
    return row
