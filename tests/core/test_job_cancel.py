"""``EngineJob.cancel``: a clean external stop at an iteration barrier.

The serving layer's deadline enforcement cancels running jobs between
``step`` calls; the contract is that a cancel looks exactly like an I/O
abort from above (an :class:`IterationAborted` with a partial result)
without being *counted* as a fault, and leaves the engine reusable.
"""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine, IterationAborted, JobCancelled
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed
from repro.obs import registry as reg
from repro.safs.filesystem import SAFS
from repro.sim.faults import DeviceFailure, FaultPlan, FaultPolicy
from repro.sim.ssd_array import SSDArray, SSDArrayConfig


def fresh_engine():
    image = load_dataset("twitter-sim")
    engine = make_engine(
        image, cache_bytes=1 << 20, num_threads=32, range_shift=8
    )
    return engine, image


class TestJobCancel:
    def test_cancel_returns_partial_result_like_an_io_abort(self):
        engine, image = fresh_engine()
        job = engine.start_job(
            PageRankProgram(image.num_vertices), max_iterations=10
        )
        assert job.step() and job.step()
        before = engine.stats.get(reg.FAULTS_ABORTED_ITERATIONS)
        aborted = job.cancel("deadline unreachable")
        assert isinstance(aborted, IterationAborted)
        assert isinstance(aborted.cause, JobCancelled)
        assert aborted.cause.reason == "deadline unreachable"
        assert aborted.cause.time == pytest.approx(job.clock)
        # Partial progress up to the barrier is reported.
        assert aborted.partial.iterations == 2
        assert aborted.partial.runtime > 0.0
        assert aborted.partial.cpu_busy > 0.0
        assert job.done
        # A cancel is a policy decision, not a fault: the fault counter
        # must not move (unlike a real unrecoverable-I/O abort).
        assert engine.stats.get(reg.FAULTS_ABORTED_ITERATIONS) == before

    def test_cancel_finished_job_is_an_error(self):
        engine, image = fresh_engine()
        job = engine.start_job(
            PageRankProgram(image.num_vertices), max_iterations=2
        )
        while job.step():
            pass
        with pytest.raises(RuntimeError, match="finished"):
            job.cancel("too late")

    def test_cancelled_engine_stays_reusable(self):
        engine, image = fresh_engine()
        job = engine.start_job(
            PageRankProgram(image.num_vertices), max_iterations=10
        )
        job.step()
        job.cancel("make room")
        engine.safs.reset_timing()
        result = engine.run(
            PageRankProgram(image.num_vertices), max_iterations=3
        )
        assert result.iterations == 3

    def test_aborted_engine_forgets_its_iteration_end_request(self):
        # A run that asked for ``run_on_iteration_end`` and then died on
        # I/O must not hand that callback to the next program.
        def dead_engine():
            ring = np.column_stack((np.arange(64), (np.arange(64) + 1) % 64))
            plan = FaultPlan(
                [DeviceFailure(device=d, at=0.0) for d in range(SSDArrayConfig().num_ssds)]
            )
            array = SSDArray(SSDArrayConfig(), fault_plan=plan)
            safs = SAFS(array, stats=array.stats, fault_policy=FaultPolicy(max_retries=1))
            config = EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=2)
            return GraphEngine(build_directed(ring, 64, name="ring"), safs=safs, config=config)

        class Reading(VertexProgram):
            def run(self, g, vertex):
                g.notify_iteration_end()
                g.request_self(vertex)

        class Counting(VertexProgram):
            def __init__(self):
                self.ends = 0

            def run(self, g, vertex):
                if g.iteration == 0:
                    g.activate([vertex])

            def run_on_iteration_end(self, g):
                self.ends += 1

        engine = dead_engine()
        with pytest.raises(IterationAborted):
            engine.run(Reading(), initial_active=np.array([0]))
        reused, fresh = Counting(), Counting()
        got = engine.run(reused, initial_active=np.array([0, 1]))
        want = dead_engine().run(fresh, initial_active=np.array([0, 1]))
        assert reused.ends == fresh.ends == 0
        assert got.iterations == want.iterations == 2
        assert got.runtime == want.runtime

    def test_frontier_size_tracks_the_barrier(self):
        engine, image = fresh_engine()
        job = engine.start_job(
            PageRankProgram(image.num_vertices), max_iterations=5
        )
        # Before the first step the frontier is the full vertex set.
        assert job.frontier_size == image.num_vertices
        job.step()
        assert job.frontier_size > 0
