"""``EngineJob.cancel``: a clean external stop at an iteration barrier.

The serving layer's deadline enforcement cancels running jobs between
``step`` calls; the contract is that a cancel looks exactly like an I/O
abort from above (an :class:`IterationAborted` with a partial result)
without being *counted* as a fault, and leaves the engine reusable.
"""

import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.bench.datasets import load_dataset
from repro.bench.harness import make_engine
from repro.core.engine import IterationAborted, JobCancelled
from repro.obs import registry as reg


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

    def test_frontier_size_tracks_the_barrier(self):
        engine, image = fresh_engine()
        job = engine.start_job(
            PageRankProgram(image.num_vertices), max_iterations=5
        )
        # Before the first step the frontier is the full vertex set.
        assert job.frontier_size == image.num_vertices
        job.step()
        assert job.frontier_size > 0
