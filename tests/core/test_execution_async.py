"""Sync/async execution equivalence, determinism, and checkpointing.

The execution-policy contract under test (``docs/execution_modes.md``):

- async PageRank/WCC/SSSP converge to the sync fixpoint — exactly for
  the monotone algorithms (WCC labels, SSSP distances), within the
  pending-mass tolerance for PageRank — across random graphs and seeds
  (hypothesis properties);
- the async mode is deterministic: the same graph + config yields
  bit-identical counter streams and simulated clocks, run after run;
- async engine state (the residuals) round-trips through
  checkpoint/resume with bit-identical continuation;
- checkpoints never cross policies: a sync checkpoint cannot seed an
  async run or vice versa;
- programs without a ``residuals`` hook are rejected up front.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.bfs import BFSProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.sssp import SSSPProgram
from repro.algorithms.wcc import WCCProgram
from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.core.config import EngineConfig, ExecutionKind, ExecutionMode
from repro.core.engine import GraphEngine
from repro.graph.builder import build_directed
from repro.graph.generators import erdos_renyi_graph
from repro.obs import registry as reg
from repro.safs.filesystem import SAFS, SAFSConfig

#: Generous async round cap — convergence must come from quiescence.
ROUND_CAP = 3000


def _mem_engine(image, execution, **overrides):
    """A fast in-memory engine (the policies are mode-agnostic)."""
    config = EngineConfig(
        mode=ExecutionMode.IN_MEMORY,
        num_threads=4,
        range_shift=5,
        execution=execution,
        **overrides,
    )
    return GraphEngine(image, config=config)


def _sem_engine(execution, **overrides):
    """A twitter-sim semi-external engine."""
    image = load_dataset("twitter-sim")
    safs = SAFS(config=SAFSConfig(cache_bytes=scaled_cache_bytes(1.0)))
    config = EngineConfig(
        mode=ExecutionMode.SEMI_EXTERNAL,
        num_threads=32,
        range_shift=8,
        execution=execution,
        **overrides,
    )
    return GraphEngine(image, safs=safs, config=config)


def _random_image(seed, n, density):
    edges, n = erdos_renyi_graph(n, int(n * density), seed=seed)
    return build_directed(edges, n, name=f"er-{seed}")


_random_graphs = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(30, 120),
    density=st.floats(1.0, 6.0),
)


class TestAsyncConvergesToSyncFixpoint:
    @settings(max_examples=12, deadline=None)
    @given(**_random_graphs)
    def test_pagerank(self, seed, n, density):
        image = _random_image(seed, n, density)
        sync_prog = PageRankProgram(image.num_vertices)
        _mem_engine(image, ExecutionKind.SYNC).run(sync_prog, max_iterations=None)
        async_prog = PageRankProgram(image.num_vertices)
        _mem_engine(image, ExecutionKind.ASYNC).run(
            async_prog, max_iterations=ROUND_CAP
        )
        # Both quiesce with per-vertex pending at or below the floor, so
        # the rank vectors sit within that mass of the common fixpoint.
        assert np.allclose(
            sync_prog.rank + sync_prog.pending,
            async_prog.rank + async_prog.pending,
            rtol=1e-4,
            atol=1e-4,
        )
        assert np.all(np.abs(async_prog.pending) <= async_prog.async_floor)

    @settings(max_examples=12, deadline=None)
    @given(**_random_graphs)
    def test_wcc(self, seed, n, density):
        image = _random_image(seed, n, density)
        sync_prog = WCCProgram(image.num_vertices)
        _mem_engine(image, ExecutionKind.SYNC).run(sync_prog)
        async_prog = WCCProgram(image.num_vertices)
        _mem_engine(image, ExecutionKind.ASYNC).run(
            async_prog, max_iterations=ROUND_CAP
        )
        assert np.array_equal(sync_prog.component, async_prog.component)

    @settings(max_examples=12, deadline=None)
    @given(**_random_graphs)
    def test_sssp(self, seed, n, density):
        edges, n = erdos_renyi_graph(n, int(n * density), seed=seed)
        rng = np.random.default_rng(seed + 1)
        image = build_directed(
            edges, n, name=f"er-w-{seed}",
            weights=rng.uniform(1.0, 10.0, edges.shape[0]),
        )
        source = int(np.argmax(image.out_csr.degrees()))
        sync_prog = SSSPProgram(n, source)
        _mem_engine(image, ExecutionKind.SYNC).run(
            sync_prog, initial_active=np.asarray([source])
        )
        async_prog = SSSPProgram(n, source)
        _mem_engine(image, ExecutionKind.ASYNC).run(
            async_prog, initial_active=np.asarray([source]),
            max_iterations=ROUND_CAP,
        )
        # Each path's length is summed source-to-vertex regardless of
        # relaxation order, so the min over paths matches exactly.
        assert np.array_equal(sync_prog.dist, async_prog.dist)


class TestAsyncDeterminism:
    def _async_pr_run(self):
        engine = _sem_engine(ExecutionKind.ASYNC)
        program = PageRankProgram(engine.image.num_vertices)
        result = engine.run(program, max_iterations=ROUND_CAP)
        return (
            program.rank + program.pending,
            result,
            engine.safs.stats.snapshot(),
        )

    def test_same_config_gives_bit_identical_counter_streams(self):
        ranks_a, result_a, counters_a = self._async_pr_run()
        ranks_b, result_b, counters_b = self._async_pr_run()
        assert np.array_equal(ranks_a, ranks_b)
        assert counters_a == counters_b
        assert result_a.runtime == result_b.runtime
        assert result_a.iterations == result_b.iterations
        assert counters_a[reg.ENGINE_ASYNC_ROUNDS] == result_a.iterations
        assert counters_a[reg.ENGINE_PRIORITY_UPDATES] > 0
        assert counters_a[reg.ENGINE_EAGER_FLUSHES] > 0

    def test_sync_runs_never_touch_async_counters(self):
        engine = _sem_engine(ExecutionKind.SYNC)
        engine.run(
            PageRankProgram(engine.image.num_vertices), max_iterations=5
        )
        counters = engine.safs.stats.snapshot()
        assert counters.get(reg.ENGINE_ASYNC_ROUNDS, 0) == 0
        assert counters.get(reg.ENGINE_PRIORITY_UPDATES, 0) == 0
        assert counters.get(reg.ENGINE_EAGER_FLUSHES, 0) == 0


class TestAsyncCheckpointResume:
    CAP = 8  # rounds; keeps the every-boundary matrix cheap

    def _run(self, manager=None, resume=None):
        engine = _sem_engine(ExecutionKind.ASYNC)
        if manager is not None:
            engine.enable_checkpoints(manager, every=1)
        if resume is not None:
            engine.resume_from(resume)
        program = PageRankProgram(engine.image.num_vertices)
        result = engine.run(program, max_iterations=self.CAP)
        return (
            program.rank + program.pending,
            result,
            engine.safs.stats.snapshot(),
        )

    def test_resume_from_every_boundary_is_bit_identical(self, tmp_path):
        golden_state, golden_result, golden_counters = self._run()
        manager = CheckpointManager(tmp_path)
        armed_state, armed_result, armed_counters = self._run(manager=manager)
        # Arming is free in async mode too.
        assert np.array_equal(golden_state, armed_state)
        assert armed_counters == golden_counters
        assert armed_result.runtime == golden_result.runtime
        boundaries = manager.iterations()
        assert boundaries, "the async run must have saved checkpoints"
        for boundary in boundaries[:-1]:
            state, result, counters = self._run(resume=manager.load(boundary))
            assert np.array_equal(state, golden_state), boundary
            assert counters == golden_counters, boundary
            assert result.runtime == golden_result.runtime, boundary
            assert result.iterations == golden_result.iterations, boundary

    def test_async_checkpoint_carries_execution_state(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        self._run(manager=manager)
        state = manager.load(1)
        assert state["engine"]["execution"] == "async"
        execution = state["execution"]
        assert execution["policy"] == "async"
        assert execution["residual"].shape == (8192,)

    def test_sync_checkpoint_rejected_by_async_engine(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        sync_engine = _sem_engine(ExecutionKind.SYNC)
        sync_engine.enable_checkpoints(manager, every=1)
        sync_engine.run(
            PageRankProgram(sync_engine.image.num_vertices), max_iterations=3
        )
        # Sync checkpoints keep the pre-policy shape: no execution state.
        assert "execution" not in manager.load(1)
        engine = _sem_engine(ExecutionKind.ASYNC)
        engine.resume_from(manager.load(1))
        with pytest.raises(CheckpointError, match="execution"):
            engine.run(
                PageRankProgram(engine.image.num_vertices),
                max_iterations=self.CAP,
            )

    def test_async_checkpoint_rejected_by_sync_engine(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        self._run(manager=manager)
        engine = _sem_engine(ExecutionKind.SYNC)
        engine.resume_from(manager.load(1))
        with pytest.raises(CheckpointError, match="execution"):
            engine.run(
                PageRankProgram(engine.image.num_vertices),
                max_iterations=self.CAP,
            )


class TestAsyncValidation:
    def test_program_without_residuals_rejected(self):
        engine = _sem_engine(ExecutionKind.ASYNC)
        program = BFSProgram(engine.image.num_vertices)
        with pytest.raises(ValueError, match="residuals"):
            engine.run(program, initial_active=np.asarray([0]))
