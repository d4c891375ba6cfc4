"""Back-to-back jobs on one SAFS stack must match fresh-stack runs.

A long-lived service (``repro.serve``) reuses one engine stack for many
jobs: between jobs ``SAFS.reset_timing()`` clears device queues and the
page cache, and the next job's counters are diffed from a fresh base
snapshot.  The contract under test is that a second job's result —
counters included — is **bit-identical** to the same job on a freshly
built stack.

Historically the shared :class:`StatsCollector` leaked across jobs:
float counters (``io.cpu_issue_time``) kept accumulating, and
``diff`` from a non-zero base rounds differently than accumulation from
zero, so the second job's counter stream drifted in the last few ulps.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    TransientErrors,
)
from repro.sim.ssd_array import SSDArray, SSDArrayConfig

CHAOS_PLAN = FaultPlan(
    [
        TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
        DeviceFailure(device=11, at=0.002),
    ],
    seed=42,
)
CHAOS_POLICY = FaultPolicy(max_retries=12, retry_backoff=200e-6)


def fresh_engine(plan=None, policy=None):
    """A twitter-sim engine on its own stack."""
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


def run_pr(engine):
    program = PageRankProgram(engine.image.num_vertices)
    result = engine.run(program, max_iterations=5)
    return program.rank + program.pending, result


@pytest.mark.parametrize(
    "plan,policy",
    [(None, None), (CHAOS_PLAN, CHAOS_POLICY)],
    ids=["clean", "chaos"],
)
def test_second_job_bit_identical_to_fresh_stack(plan, policy):
    """Job 2 on a reused stack == the same job on a fresh stack, bit for
    bit: results, simulated clocks and the full counter diff."""
    reference, ref_result = run_pr(fresh_engine(plan, policy))

    engine = fresh_engine(plan, policy)
    run_pr(engine)
    engine.safs.reset_timing()
    second, second_result = run_pr(engine)

    assert np.array_equal(second, reference)
    assert second_result.runtime == ref_result.runtime
    assert second_result.cpu_busy == ref_result.cpu_busy
    assert second_result.counters == ref_result.counters


def test_reset_timing_clears_the_shared_stats():
    """After reset the collector is empty, so the next job's base
    snapshot is ``{}`` and its diff accumulates from zero — the property
    the bit-identity above depends on."""
    engine = fresh_engine()
    run_pr(engine)
    assert engine.safs.stats.snapshot() != {}
    engine.safs.reset_timing()
    assert engine.safs.stats.snapshot() == {}


def test_third_job_still_identical():
    """The contract is per-job, not just job 2: every reset returns the
    stack to the fresh state."""
    reference, ref_result = run_pr(fresh_engine())
    engine = fresh_engine()
    for _ in range(2):
        run_pr(engine)
        engine.safs.reset_timing()
    third, third_result = run_pr(engine)
    assert np.array_equal(third, reference)
    assert third_result.runtime == ref_result.runtime
    assert third_result.counters == ref_result.counters
