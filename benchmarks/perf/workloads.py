"""The five workloads, their frozen inputs and their output checks.

Everything a workload feeds the program is a literal in this file or is
generated from ``--seed``: graph generator seeds are ``1+S`` (twitter),
``3+S`` (page), the traffic seed is ``11+S`` and the fault-plan seed
``42+S``.  The tenant mix, fault plan and policy are copies of the ones
``bench_serving.py`` / ``bench_slo.py`` use, frozen here so editing those
benches never moves this yardstick.  Only names exported by the
``repro`` packages are driven; nothing from ``repro.bench`` is imported.

Every pass builds a fresh ``SSDArray`` + ``SAFS`` with
``SAFSFile._next_id`` pinned to 0, so the modelled page cache starts
empty — as in the paper's runs and the committed ``BENCH_*.json`` rows.
"""

import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms import betweenness_centrality, bfs, pagerank, wcc
from repro.core import EngineConfig, ExecutionMode, GraphEngine
from repro.graph import build_directed, page_sim, rmat_graph, twitter_sim
from repro.obs import Observer, TimelineSampler, arm, registry as reg
from repro.safs import SAFS, SAFSConfig, SAFSFile
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.sim import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    ParityConfig,
    SSDArray,
    SSDArrayConfig,
    StuckQueue,
    TransientErrors,
)

import reference
from metrics import SLO_LIMIT_S, order_statistic

# --- frozen inputs ------------------------------------------------------

#: The paper's "1 GB" cache at the repo's 1/4096 scale: far smaller than
#: either graph image, so the cache is under pressure.
CACHE_BYTES = (1 << 30) // 4096
PAGE_SIZE = 4096
NUM_THREADS = 32
RANGE_SHIFT = 8
PR_ITERATIONS = 30

TWITTER_SCALE = 13
PAGE_VERTICES = 1 << 15
#: Warm-up graph: scale-8 R-MAT, just enough to pay imports and lazy init.
WARM_SCALE, WARM_EDGE_FACTOR = 8, 16

#: The interactive two-tenant mix: a bursty heavy tenant sharing with a
#: steady light one.
TENANTS = (
    TenantSpec(name="acme", weight=2.0, max_concurrent=3),
    TenantSpec(name="globex", max_concurrent=2),
)
#: ``pr`` queries run this many iterations (the ``ServiceConfig`` default).
SERVE_PR_ITERATIONS = 5


def tenant_traffic(total_qps: float):
    return [
        TenantTraffic(
            tenant="acme",
            rate_qps=total_qps * 2.0 / 3.0,
            apps=("pr", "bfs", "wcc"),
            burst_factor=4.0,
            burst_fraction=0.2,
            burst_period_s=0.05,
        ),
        TenantTraffic(tenant="globex", rate_qps=total_qps / 3.0, apps=("bfs", "wcc")),
    ]


def chaos_plan(seed: int) -> FaultPlan:
    """The composed fault plan: a 15 %-flaky device, an 11.5 ms stuck
    queue and one device dead from 2 ms on."""
    return FaultPlan(
        [
            TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
            StuckQueue(device=7, start=0.0005, end=0.012),
            DeviceFailure(device=11, at=0.002),
        ],
        seed=seed,
    )


CHAOS_POLICY = FaultPolicy(max_retries=12, retry_backoff=200e-6, request_timeout=0.002)

#: ``BENCH_wallclock.json`` rows the seed-0 runs must reproduce bit for
#: bit — proof the stack is wired as the committed harness wires it.
SEED0_ROWS = {
    "batch-pr-sem": {"sim_runtime_s": 0.03254688442857186, "sim_bytes_read": 39874560.0},
    "batch-pr-mem": {"sim_runtime_s": 0.016838679600000052},
}

_FAULT_COUNTERS = {
    "sim.faults_retries": reg.FAULTS_RETRIES,
    "sim.faults_timeouts": reg.FAULTS_TIMEOUTS,
    "sim.faults_rerouted_requests": reg.FAULTS_REROUTED_REQUESTS,
    "sim.faults_stall_s": reg.FAULTS_STALL_TIME,
    "sim.faults_aborted_iterations": reg.FAULTS_ABORTED_ITERATIONS,
    "sim.parity_reconstructions": reg.PARITY_RECONSTRUCTIONS,
    "sim.health_quarantines": reg.HEALTH_QUARANTINES,
}

_COUNTERS = {
    "core.active_vertices": reg.ENGINE_ACTIVE_VERTICES,
    "core.edges_delivered": reg.ENGINE_EDGES_DELIVERED,
    "core.io_requests": reg.ENGINE_IO_REQUESTS,
    "core.stolen_vertices": reg.ENGINE_STOLEN_VERTICES,
    "core.msg_sent": reg.MSG_SENT,
    "core.msg_delivered": reg.MSG_DELIVERED,
    "graph.decode_bytes": reg.GRAPH_DECODE_BYTES,
    "graph.compression_ratio": reg.GRAPH_COMPRESSION_RATIO,
    "safs.requests_issued": reg.IO_REQUESTS_ISSUED,
    "safs.dispatched": reg.IO_DISPATCHED,
    "safs.pages_requested": reg.IO_PAGES_REQUESTED,
    "safs.pages_fetched": reg.IO_PAGES_FETCHED,
    "safs.dedup_pages": reg.SAFS_DEDUP_PAGES,
    "safs.cache_evictions": reg.CACHE_EVICTIONS,
    "sim.array_requests": reg.ARRAY_REQUESTS,
    "sim.array_pages_read": reg.ARRAY_PAGES_READ,
    **_FAULT_COUNTERS,
}


@dataclass
class Pass:
    """What one pass of a workload produced."""

    wall_s: float
    #: Simulated end-to-end metrics — exact for a seed.
    sim: Dict[str, float]
    #: Per-layer counts read from the shared ``StatsCollector``.
    counts: Dict[str, float]
    #: Operations attempted / failed (algorithm runs, or offered queries
    #: and aborted + shed ones).
    attempted: int
    failed: int
    #: Program outputs, for the output checks.
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Violated conservation laws or wiring checks.
    violations: List[str] = field(default_factory=list)


def make_engine(image, mode) -> GraphEngine:
    """A fully wired engine over a fresh SAFS stack (SEM) or none (MEM)."""
    SAFSFile._next_id = 0
    safs = None
    if mode is ExecutionMode.SEMI_EXTERNAL:
        array = SSDArray(SSDArrayConfig())
        safs = SAFS(
            array,
            SAFSConfig(page_size=PAGE_SIZE, cache_bytes=CACHE_BYTES),
            stats=array.stats,
        )
    config = EngineConfig(mode=mode, num_threads=NUM_THREADS, range_shift=RANGE_SHIFT)
    return GraphEngine(image, safs=safs, config=config)


def hub(image) -> int:
    """The traversal source: the vertex with the most out-edges."""
    return int(np.argmax(image.out_csr.degrees()))


def _layer_counts(stats, array, sim_runtime_s, results) -> Dict[str, float]:
    """The exact per-layer counts of one pass."""
    counts = {name: stats.get(counter) for name, counter in _COUNTERS.items()}
    runtime = sum(r.runtime for r in results)
    counts["core.iterations"] = float(sum(r.iterations for r in results))
    counts["core.cpu_util"] = (
        sum(r.cpu_utilization * r.runtime for r in results) / runtime if runtime else 0.0
    )
    issued = counts["safs.requests_issued"]
    counts["safs.merge_ratio"] = counts["core.io_requests"] / issued if issued else 0.0
    hits, misses = stats.get(reg.CACHE_HITS), stats.get(reg.CACHE_MISSES)
    counts["safs.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    counts["sim.io_util"] = array.utilization(sim_runtime_s) if array is not None else 0.0
    return counts


def _conservation(stats, chaos: bool) -> List[str]:
    """Page conservation on a SEM stack; fault counters silent off-chaos."""
    problems = []
    requested = stats.get(reg.IO_PAGES_REQUESTED)
    served = (
        stats.get(reg.CACHE_HITS)
        + stats.get(reg.IO_PAGES_FETCHED)
        + stats.get(reg.SAFS_DEDUP_PAGES)
    )
    if requested != served:
        problems.append(f"page conservation: requested {requested} != served {served}")
    if not chaos:
        noisy = {n: stats.get(c) for n, c in _FAULT_COUNTERS.items() if stats.get(c)}
        if noisy:
            problems.append(f"fault counters moved on a fault-free workload: {noisy}")
    return problems


def build_image(workload, seed: int, warm: bool):
    """The workload's graph image — or the tiny warm-up graph."""
    if warm:
        edges, n = rmat_graph(WARM_SCALE, WARM_EDGE_FACTOR, seed=1 + seed)
    else:
        edges, n = workload.generate(seed)
    return build_directed(edges, n, name=workload.name, fmt=workload.fmt)


class BatchWorkload:
    """Algorithms run to completion on one engine, one pass at a time."""

    passes = 7
    mode = ExecutionMode.SEMI_EXTERNAL
    fmt = "v1"
    served = False

    def generate(self, seed: int):
        return twitter_sim(scale=TWITTER_SCALE, seed=1 + seed)

    def setup(self, seed: int, warm: bool = False):
        """Generate edges, build the image, construct an engine."""
        image = build_image(self, seed, warm)
        make_engine(image, self.mode)
        return SimpleNamespace(image=image, seed=seed, source=hub(image))

    def execute(self, ctx, observer: Optional[Observer] = None) -> Pass:
        engine = make_engine(ctx.image, self.mode)
        if observer is not None:
            arm(engine, observer)
        start = time.perf_counter()
        outputs, results = self.algorithms(engine, ctx)
        wall = time.perf_counter() - start
        stats = engine.stats
        sim_runtime = float(sum(r.runtime for r in results))
        sem = engine.safs is not None
        array = engine.safs.array if sem else None
        sim = {"sim_runtime_s": sim_runtime}
        if sem:
            sim["sim_bytes_read"] = stats.get(reg.ARRAY_BYTES_READ)
        return Pass(
            wall_s=wall,
            sim=sim,
            counts=_layer_counts(stats, array, sim_runtime, results),
            attempted=len(results),
            failed=0,
            outputs=outputs,
            violations=_conservation(stats, chaos=False) if sem else [],
        )


class BatchPageRank(BatchWorkload):
    def __init__(self, name, mode, why):
        self.name, self.mode, self.why = name, mode, why

    def algorithms(self, engine, ctx):
        ranks, result = pagerank(engine, max_iterations=PR_ITERATIONS)
        return {"pr": ranks}, [result]

    def verify(self, ctx, first: Pass) -> List[str]:
        expected = reference.pagerank_reference(ctx.image, PR_ITERATIONS)
        worst = float(np.max(np.abs(first.outputs["pr"] - expected)))
        return [] if worst <= 1e-9 else [f"pagerank differs from the reference by {worst:g}"]


class BatchTraverse(BatchWorkload):
    name = "batch-traverse-v2"
    why = (
        "BFS then betweenness centrality on page_sim v2: the scalar per-vertex "
        "engine path and v2 decode, hundreds of near-empty barriers; bypasses run_batch"
    )
    passes = 3
    fmt = "v2"

    def generate(self, seed: int):
        return page_sim(num_vertices=PAGE_VERTICES, seed=3 + seed)

    def algorithms(self, engine, ctx):
        levels, bfs_result = bfs(engine, ctx.source)
        scores, bc_result = betweenness_centrality(engine, ctx.source)
        return {"bfs": levels, "bc": scores}, [bfs_result, bc_result]

    def verify(self, ctx, first: Pass) -> List[str]:
        failures = []
        if not np.array_equal(
            first.outputs["bfs"], reference.bfs_levels_reference(ctx.image, ctx.source)
        ):
            failures.append("bfs levels differ from scipy.sparse.csgraph")
        in_memory, _ = betweenness_centrality(
            make_engine(ctx.image, ExecutionMode.IN_MEMORY), ctx.source
        )
        if not np.array_equal(first.outputs["bc"], in_memory):
            failures.append("bc semi-external differs from bc in-memory")
        return failures


class ServeWorkload:
    """Open-loop serving of a pre-drawn two-tenant trace.

    The trace is drawn on the simulated clock before the pass starts and
    arrivals are revealed by simulated time, so the generator is never
    late (``gen_late_s`` = 0 by construction); latency is timed from each
    query's due arrival (``Arrival.time``).
    """

    passes = 1
    served = True
    fmt = "v1"

    def __init__(self, name, total_qps, arrivals, chaos, why):
        self.name, self.total_qps, self.arrivals = name, total_qps, arrivals
        self.chaos, self.why = chaos, why

    def generate(self, seed: int):
        return twitter_sim(scale=TWITTER_SCALE, seed=1 + seed)

    def trace(self, seed: int, arrivals: int):
        """Generate until the trace holds ``arrivals`` queries, then cut
        it to exactly that many."""
        duration = 2.0 * arrivals / self.total_qps
        while True:
            trace = generate_trace(tenant_traffic(self.total_qps), duration, seed=11 + seed)
            if len(trace) >= arrivals:
                return trace[:arrivals]
            duration *= 2.0

    def service(self, ctx) -> GraphService:
        config = ServiceConfig(
            cache_bytes=1 << 20,
            page_size=PAGE_SIZE,
            num_threads=NUM_THREADS,
            range_shift=RANGE_SHIFT,
            policy="fair",
            pr_iterations=SERVE_PR_ITERATIONS,
        )
        if not self.chaos:
            return GraphService(ctx.image, TENANTS, config)
        return GraphService(
            ctx.image,
            TENANTS,
            config,
            fault_plan=chaos_plan(42 + ctx.seed),
            fault_policy=CHAOS_POLICY,
            parity=ParityConfig(),
            observer=Observer(),
            timeline=TimelineSampler(),
        )

    def setup(self, seed: int, warm: bool = False):
        """Generate edges, build the image, draw the trace, construct a
        service."""
        image = build_image(self, seed, warm)
        ctx = SimpleNamespace(
            image=image,
            seed=seed,
            source=hub(image),
            trace=self.trace(seed, 6 if warm else self.arrivals),
        )
        self.service(ctx)
        return ctx

    def execute(self, ctx) -> Pass:
        service = self.service(ctx)
        start = time.perf_counter()
        report = service.serve(ctx.trace)
        wall = time.perf_counter() - start
        stats = service.stats
        ok = [r for r in report.records if r.ok]
        latencies = [r.latency for r in ok]
        waits = [r.queue_wait for r in ok]
        lost = report.aborted + report.shed
        late = sum(1 for latency in latencies if latency > SLO_LIMIT_S)
        sim = {
            "sim_runtime_s": report.duration_s,
            "sim_bytes_read": stats.get(reg.ARRAY_BYTES_READ),
            "sim_p50_ms": order_statistic(latencies, 0.50) * 1e3,
            "sim_p90_ms": order_statistic(latencies, 0.90) * 1e3,
            "sim_goodput_qps": len(ok) / report.duration_s if report.duration_s else 0.0,
            "sim_slo_miss_frac": (late + lost) / report.offered,
        }
        results = [r.result for r in report.records]
        counts = _layer_counts(stats, service.safs.array, report.duration_s, results)
        counts.update({
            "serve.queue_wait_p50_ms": order_statistic(waits, 0.50) * 1e3,
            "serve.queue_wait_p90_ms": order_statistic(waits, 0.90) * 1e3,
            "serve.run_p50_ms": order_statistic(
                [r.finish_time - r.start_time for r in ok], 0.50
            ) * 1e3,
            "serve.quota_waits": float(report.quota_waits),
            "serve.aborted": float(report.aborted),
            "serve.shed": float(report.shed),
        })
        violations = _conservation(stats, self.chaos)
        if report.offered != report.completed + report.aborted + report.shed:
            violations.append(
                f"offered {report.offered} != completed {report.completed} "
                f"+ aborted {report.aborted} + shed {report.shed}"
            )
        return Pass(
            wall_s=wall,
            sim=sim,
            counts=counts,
            attempted=report.offered,
            failed=lost,
            outputs={
                "records": [(r.index, r.app, reference.digest(r.values)) for r in ok],
                "finish_order": [r.index for r in report.records],
            },
            violations=violations,
        )

    def verify(self, ctx, first: Pass) -> List[str]:
        """Every ok query's output equals a batch run of the same app
        with the service's parameters on the same image."""
        runs = {
            "pr": lambda e: pagerank(e, max_iterations=SERVE_PR_ITERATIONS)[0],
            "bfs": lambda e: bfs(e, ctx.source)[0],
            "wcc": lambda e: wcc(e)[0],
        }
        expected = {
            app: reference.digest(run(make_engine(ctx.image, ExecutionMode.SEMI_EXTERNAL)))
            for app, run in runs.items()
        }
        return [
            f"query {index} ({app}): served output differs from the batch run"
            for index, app, got in first.outputs["records"]
            if got != expected[app]
        ]


WORKLOADS = {
    w.name: w
    for w in (
        BatchPageRank(
            "batch-pr-sem",
            ExecutionMode.SEMI_EXTERNAL,
            "PageRank x30 on twitter_sim, semi-external v1: the vectorised path end to "
            "end (run_batch, array merge, span dispatch, range cache ops, message delivery)",
        ),
        BatchPageRank(
            "batch-pr-mem",
            ExecutionMode.IN_MEMORY,
            "same graph and program in memory: the control where repro.safs and repro.sim "
            "do no work, so an I/O-stack change predicts no movement",
        ),
        BatchTraverse(),
        ServeWorkload(
            "serve-clean",
            220.0,
            104,
            False,
            "GraphService at sub-saturation, two tenants, 104 open-loop queries: admission, "
            "job interleaving over one shared cache, per-tenant accounting",
        ),
        ServeWorkload(
            "serve-chaos-traced",
            120.0,
            44,
            True,
            "the same tenants under the composed fault plan with parity, Observer and "
            "TimelineSampler armed: retries, reroutes, reconstruction; where repro.obs works",
        ),
    )
}
