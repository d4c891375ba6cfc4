"""Engine-level chaos tests: real algorithms under seeded fault plans.

The contract under test is the determinism guarantee of the fault layer
(``docs/fault_model.md``): when every injected fault is recoverable, a run
produces **bit-identical** results to a fault-free run — faults may only
move simulated time, never data — and when recovery is impossible the run
raises a clean :class:`IterationAborted` with partial-progress statistics,
never a wrong answer and never a hang.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import PageRankProgram, pagerank
from repro.algorithms.wcc import wcc
from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import default_source
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine, IterationAborted
from repro.graph.builder import build_directed
from repro.graph.generators import rmat_graph
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    StuckQueue,
    TransientErrors,
)
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

from tests.conftest import scalar_hooks_only

#: Recoverable chaos: flaky reads on one device, a latency-spiked device,
#: a stuck queue and one whole-SSD failure mid-run — all survivable under
#: CHAOS_POLICY.  The stuck-queue window (11.5ms) is longer than the
#: request timeout (2ms), so recovery exercises the timeout path too.
CHAOS_PLAN = FaultPlan(
    [
        TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
        StuckQueue(device=7, start=0.0005, end=0.012),
        DeviceFailure(device=11, at=0.002),
    ],
    seed=42,
)
CHAOS_POLICY = FaultPolicy(
    max_retries=12, retry_backoff=200e-6, request_timeout=0.002
)

#: Nothing can recover from every device failing for good.
TOTAL_LOSS_PLAN = FaultPlan(
    [DeviceFailure(device=d, at=0.0005) for d in range(15)], seed=42
)

ALGORITHMS = {
    "pr": lambda engine: pagerank(engine),
    "wcc": lambda engine: wcc(engine),
    "bfs": lambda engine: bfs(engine, default_source(engine.image)),
}


def make_engine(plan=None, policy=None):
    """A twitter-sim engine whose array carries ``plan``."""
    image = load_dataset("twitter-sim")
    array = SSDArray(SSDArrayConfig(), fault_plan=plan)
    safs = SAFS(
        array,
        SAFSConfig(page_size=4096, cache_bytes=scaled_cache_bytes(1.0)),
        stats=array.stats,
        fault_policy=policy,
    )
    return GraphEngine(
        image,
        safs=safs,
        config=EngineConfig(
            mode=ExecutionMode.SEMI_EXTERNAL, num_threads=32, range_shift=8
        ),
    )


def run_chaos(app, plan=None, policy=None):
    engine = make_engine(plan, policy)
    state, result = ALGORITHMS[app](engine)
    return state, result, engine.safs.stats.snapshot()


@pytest.fixture(scope="module")
def clean_runs():
    """Fault-free reference state/result per algorithm."""
    return {app: run_chaos(app) for app in ALGORITHMS}


@pytest.mark.parametrize("app", sorted(ALGORITHMS))
def test_recoverable_faults_are_invisible_in_results(app, clean_runs):
    """Recoverable chaos must not change a single output bit."""
    clean_state, clean_result, _ = clean_runs[app]
    state, result, stats = run_chaos(app, CHAOS_PLAN, CHAOS_POLICY)
    assert np.array_equal(state, clean_state)
    assert result.iterations == clean_result.iterations
    # The chaos really happened: every fault class fired and recovered.
    assert stats["faults.transient_errors"] > 0
    assert stats["faults.retries"] > 0
    assert stats["faults.stalled_requests"] > 0
    assert stats["faults.dead_requests"] > 0


def test_dead_ssd_mid_run_completes_degraded(clean_runs):
    """Acceptance: one SSD dies mid-run, PageRank still produces correct
    ranks, with nonzero retry and timeout counters."""
    clean_ranks, clean_result, _ = clean_runs["pr"]
    ranks, result, stats = run_chaos("pr", CHAOS_PLAN, CHAOS_POLICY)
    assert np.array_equal(ranks, clean_ranks)
    assert result.iterations == clean_result.iterations
    assert stats["faults.retries"] > 0
    assert stats["faults.timeouts"] > 0
    assert stats["faults.rerouted_requests"] > 0
    assert stats["faults.rerouted_pages"] > 0
    # Simulated time moved: recovery is charged, not free.
    assert result.runtime > clean_result.runtime


def test_replay_is_bit_identical():
    """Same (seed, plan) twice → bit-equal clocks, counters and results."""
    first = run_chaos("pr", CHAOS_PLAN, CHAOS_POLICY)
    second = run_chaos("pr", CHAOS_PLAN, CHAOS_POLICY)
    assert np.array_equal(first[0], second[0])
    assert first[1].runtime == second[1].runtime
    assert first[1].cpu_busy == second[1].cpu_busy
    assert first[2] == second[2]


def test_total_device_loss_aborts_cleanly():
    """An unrecoverable plan raises IterationAborted with partial stats —
    never a wrong answer, never a hang."""
    engine = make_engine(
        TOTAL_LOSS_PLAN, FaultPolicy(max_retries=2, retry_backoff=200e-6)
    )
    with pytest.raises(IterationAborted) as excinfo:
        pagerank(engine)
    aborted = excinfo.value
    assert aborted.iteration == 0
    assert aborted.cause.reason == "dead"
    assert aborted.partial.runtime > 0.0
    assert engine.safs.stats.get("faults.aborted_iterations") == 1
    assert engine.safs.stats.get("faults.retries") > 0
    # The abort left no half-delivered messages behind.
    assert engine.messages.pending == 0


def test_scalar_and_batched_paths_agree_under_faults():
    """PR-1 invariant extended to chaos: the vectorized fast path and the
    per-vertex scalar path traverse the same fault machinery and must
    produce bit-identical simulated numbers under a nonzero plan."""
    edges, num_vertices = rmat_graph(9, edge_factor=8, seed=7)
    image = build_directed(edges, num_vertices, name="tiny")
    plan = FaultPlan(
        [
            TransientErrors(device=0, start=0.0, end=10.0, probability=0.3),
            DeviceFailure(device=2, at=0.0),
        ],
        seed=5,
    )
    policy = FaultPolicy(max_retries=8, retry_backoff=200e-6)

    def run(batched):
        # One-page stripes over four devices so the tiny graph's few
        # pages actually land on the faulty devices.
        array = SSDArray(
            SSDArrayConfig(num_ssds=4, stripe_pages=1), fault_plan=plan
        )
        # A 4-page cache keeps the tiny graph missing every iteration,
        # so the fault windows see a steady stream of device reads.
        safs = SAFS(
            array,
            SAFSConfig(page_size=4096, cache_bytes=1 << 14),
            stats=array.stats,
            fault_policy=policy,
        )
        engine = GraphEngine(
            image,
            safs=safs,
            config=EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4),
        )
        program = PageRankProgram(image.num_vertices)
        with nullcontext() if batched else scalar_hooks_only(PageRankProgram):
            result = engine.run(program, max_iterations=10)
        faults = {
            k: v
            for k, v in engine.safs.stats.snapshot().items()
            if k.startswith("faults.")
        }
        return program.rank + program.pending, result, faults

    fast_state, fast_result, fast_faults = run(batched=True)
    ref_state, ref_result, ref_faults = run(batched=False)
    assert np.array_equal(fast_state, ref_state)
    assert fast_result.runtime == ref_result.runtime
    assert fast_result.cpu_busy == ref_result.cpu_busy
    assert fast_result.bytes_read == ref_result.bytes_read
    assert fast_result.iterations == ref_result.iterations
    assert fast_faults == ref_faults
    assert fast_faults["faults.transient_errors"] > 0
    assert fast_faults["faults.rerouted_requests"] > 0
