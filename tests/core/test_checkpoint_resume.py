"""Crash-resume chaos tests for iteration-barrier checkpointing.

The tentpole contract under test:

- arming checkpoints changes **nothing** — results, counters and clocks
  of an armed run are bit-identical to an unarmed one;
- a run killed at *any* iteration boundary (the matrix covers every one,
  for PageRank, WCC and BFS on twitter-sim) and resumed from its
  checkpoint finishes bit-identical to the uninterrupted golden run —
  results, every DES counter, and the simulated runtime;
- with parity striping a whole-SSD death mid-run self-heals: the run
  completes with zero data loss and the reconstruction I/O is visibly
  charged (degraded reads are never free);
- without parity the same death degrades to PR 2's clean
  :class:`IterationAborted` — and the latest checkpoint still rescues
  the work.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import BFSProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.wcc import WCCProgram
from repro.bench.datasets import load_dataset, scaled_cache_bytes
from repro.bench.harness import default_source, make_engine as harness_make_engine
from repro.core.checkpoint import CheckpointError, CheckpointManager, CHECKPOINT_VERSION
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine, IterationAborted
from repro.safs.filesystem import SAFS, SAFSConfig
from repro.sim.faults import DeviceFailure, FaultPlan, FaultPolicy, TransientErrors
from repro.sim.health import HealthPolicy
from repro.sim.parity import ParityConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig


def make_engine(plan=None, policy=None, health=None, parity=None):
    """A twitter-sim engine on a fresh stack."""
    image = load_dataset("twitter-sim")
    array = SSDArray(SSDArrayConfig(), fault_plan=plan, parity=parity)
    safs = SAFS(
        array,
        SAFSConfig(page_size=4096, cache_bytes=scaled_cache_bytes(1.0)),
        stats=array.stats,
        fault_policy=policy,
        health_policy=health,
    )
    return GraphEngine(
        image,
        safs=safs,
        config=EngineConfig(
            mode=ExecutionMode.SEMI_EXTERNAL, num_threads=32, range_shift=8
        ),
    )


#: (program factory, engine.run kwargs) per application.  PageRank is
#: capped so the every-boundary matrix stays cheap; WCC and BFS converge
#: on their own.
def _apps():
    image = load_dataset("twitter-sim")
    n = image.num_vertices
    source = default_source(image)
    return {
        "pr": (
            lambda: PageRankProgram(n),
            dict(max_iterations=8),
            lambda p: p.rank + p.pending,
        ),
        "wcc": (lambda: WCCProgram(n), dict(), lambda p: p.component.copy()),
        "bfs": (
            lambda: BFSProgram(n),
            dict(initial_active=np.asarray([source])),
            lambda p: p.level.copy(),
        ),
    }


def _run(app, engine, manager=None, every=1, resume=None):
    factory, kwargs, extract = _apps()[app]
    program = factory()
    if manager is not None:
        engine.enable_checkpoints(manager, every=every)
    if resume is not None:
        engine.resume_from(resume)
    result = engine.run(program, **kwargs)
    return extract(program), result, engine.safs.stats.snapshot()


@pytest.fixture(scope="module")
def goldens():
    """Uninterrupted fault-free reference runs per application."""
    return {app: _run(app, make_engine()) for app in _apps()}


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = {
            "version": CHECKPOINT_VERSION,
            "iteration": 3,
            "payload": np.arange(5),
        }
        path = manager.save(state)
        assert path.name == "ckpt_iter_00000003.pkl"
        loaded = manager.load(3)
        assert loaded["iteration"] == 3
        assert np.array_equal(loaded["payload"], np.arange(5))

    def test_latest_and_iterations(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.latest() is None
        for i in (5, 1, 9):
            manager.save({"version": CHECKPOINT_VERSION, "iteration": i})
        assert manager.iterations() == [1, 5, 9]
        assert manager.latest() == manager.path_for(9)

    def test_version_mismatch_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError):
            manager.save({"version": 999, "iteration": 0})
        manager.save({"version": CHECKPOINT_VERSION, "iteration": 0})
        # Simulate a future-format file.
        import pickle

        manager.path_for(1).write_bytes(
            pickle.dumps({"version": CHECKPOINT_VERSION + 1, "iteration": 1})
        )
        with pytest.raises(CheckpointError):
            manager.load(1)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path).load(7)

    def test_no_temp_file_debris(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"version": CHECKPOINT_VERSION, "iteration": 0})
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_iter_00000000.pkl"]


class TestArmedRunsAreFree:
    def test_checkpointing_never_perturbs_the_run(self, tmp_path, goldens):
        """The golden-counter invariant: saving checkpoints must not add
        a single counter tick or move any clock."""
        state, result, counters = goldens["pr"]
        manager = CheckpointManager(tmp_path)
        armed_state, armed_result, armed_counters = _run(
            "pr", make_engine(), manager=manager
        )
        assert np.array_equal(state, armed_state)
        assert armed_counters == counters
        assert armed_result.runtime == result.runtime
        assert manager.iterations() == list(range(1, result.iterations + 1))


class TestCrashResumeMatrix:
    @pytest.mark.parametrize("app", ["pr", "wcc", "bfs"])
    def test_resume_from_every_boundary_is_bit_identical(
        self, app, tmp_path, goldens
    ):
        """Kill the run at every iteration boundary via --max-iterations,
        resume from the checkpoint, and demand a bit-identical finish:
        results, counters, simulated runtime."""
        golden_state, golden_result, golden_counters = goldens[app]
        manager = CheckpointManager(tmp_path / app)
        _run(app, make_engine(), manager=manager)
        boundaries = manager.iterations()
        assert boundaries, "the run must have saved checkpoints"
        for boundary in boundaries[:-1]:
            state, result, counters = _run(
                app, make_engine(), resume=manager.load(boundary)
            )
            assert np.array_equal(state, golden_state), (app, boundary)
            assert counters == golden_counters, (app, boundary)
            assert result.runtime == golden_result.runtime, (app, boundary)
            assert result.iterations == golden_result.iterations

    def test_interrupting_via_max_iterations_then_resuming(self, tmp_path, goldens):
        """The --max-iterations stop is itself a clean interruption: a
        capped run's checkpoint resumes to the same fixpoint."""
        golden_state, golden_result, golden_counters = goldens["pr"]
        manager = CheckpointManager(tmp_path)
        engine = make_engine()
        engine.enable_checkpoints(manager, every=1)
        program = PageRankProgram(engine.image.num_vertices)
        engine.run(program, max_iterations=3)
        state, result, counters = _run(
            "pr", make_engine(), resume=manager.load(3)
        )
        assert np.array_equal(state, golden_state)
        assert counters == golden_counters
        assert result.runtime == golden_result.runtime


    def test_resume_on_a_second_stack_in_the_same_process(self, tmp_path):
        """File ids belong to the SAFS instance (0, 1, … in creation
        order), so an identically built stack restores a checkpoint no
        matter how many stacks this process built before it."""
        image = load_dataset("twitter-sim")
        manager = CheckpointManager(tmp_path)
        golden_state, golden_result, golden_counters = _run(
            "pr", harness_make_engine(image), manager=manager
        )
        state, result, counters = _run(
            "pr", harness_make_engine(image), resume=manager.load(3)
        )
        assert np.array_equal(state, golden_state)
        assert result.runtime == golden_result.runtime
        assert counters == golden_counters


class TestResumeValidation:
    def _checkpointed_state(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        _run("pr", make_engine(), manager=manager)
        return manager

    def test_wrong_program_class_rejected(self, tmp_path):
        manager = self._checkpointed_state(tmp_path)
        engine = make_engine()
        engine.resume_from(manager.load(1))
        with pytest.raises(CheckpointError):
            engine.run(WCCProgram(engine.image.num_vertices))

    def test_wrong_thread_count_rejected(self, tmp_path):
        manager = self._checkpointed_state(tmp_path)
        image = load_dataset("twitter-sim")
        array = SSDArray(SSDArrayConfig())
        safs = SAFS(
            array,
            SAFSConfig(page_size=4096, cache_bytes=scaled_cache_bytes(1.0)),
            stats=array.stats,
        )
        engine = GraphEngine(
            image,
            safs=safs,
            config=EngineConfig(
                mode=ExecutionMode.SEMI_EXTERNAL, num_threads=16, range_shift=8
            ),
        )
        engine.resume_from(manager.load(1))
        with pytest.raises(CheckpointError):
            engine.run(PageRankProgram(engine.image.num_vertices))

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            make_engine().resume_from(CheckpointManager(tmp_path))

    def test_resuming_from_a_missing_path_writes_nothing(self, tmp_path):
        with pytest.raises(CheckpointError):
            make_engine().resume_from(tmp_path / "missing" / "ckpt_iter_00000001.pkl")
        assert not (tmp_path / "missing").exists()

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_engine().enable_checkpoints(CheckpointManager(tmp_path), every=0)


#: One SSD dies 2ms in — mid-run for every application.
ONE_DEATH = FaultPlan([DeviceFailure(device=11, at=0.002)], seed=42)


class TestParitySelfHealing:
    def test_device_loss_completes_with_zero_data_loss(self, goldens):
        """With parity, a whole-SSD death mid-run reconstructs every lost
        page: results bit-identical, reconstruction I/O visibly charged,
        and the rebuild scrubber engaged."""
        golden_state, golden_result, _ = goldens["pr"]
        clean_engine = make_engine(parity=ParityConfig())
        clean_state, clean_result, _ = _run("pr", clean_engine)
        degraded_engine = make_engine(
            plan=ONE_DEATH, policy=FaultPolicy(), parity=ParityConfig()
        )
        state, result, counters = _run("pr", degraded_engine)
        # Zero data loss: both the parity layout's clean run and the
        # degraded run land on the exact golden fixpoint.
        assert np.array_equal(clean_state, golden_state)
        assert np.array_equal(state, golden_state)
        assert result.iterations == golden_result.iterations
        assert counters.get("parity.reconstructions", 0) > 0
        assert counters.get("parity.double_faults", 0) == 0
        assert counters.get("scrub.rebuilds_started", 0) == 1
        assert counters.get("parity.peer_reads", 0) > 0
        assert counters.get("scrub.pages_read", 0) > 0
        # No free reads: every reconstruction charged its peer queues, so
        # the degraded array worked strictly more device-seconds than the
        # clean one (even though the idle hot spare can let the run
        # *finish* sooner once rebuilt rows serve from it).
        assert (
            degraded_engine.safs.array.busy_time()
            > clean_engine.safs.array.busy_time()
        )

    def test_without_parity_the_same_death_aborts_cleanly(self):
        """Parity disabled and rerouting off: the death degrades to the
        PR 2 behaviour — a clean IterationAborted, never wrong data."""
        engine = make_engine(
            plan=ONE_DEATH, policy=FaultPolicy(reroute_on_dead=False)
        )
        with pytest.raises(IterationAborted) as failure:
            _run("pr", engine)
        assert failure.value.partial.runtime > 0

    def test_checkpoint_rescues_an_aborted_run(self, tmp_path, goldens):
        """Kill a run for real (unrecoverable death), then resume its
        last checkpoint on a repaired array: the finish matches the
        golden results exactly."""
        golden_state, golden_result, _ = goldens["pr"]
        manager = CheckpointManager(tmp_path)
        engine = make_engine(
            plan=ONE_DEATH, policy=FaultPolicy(reroute_on_dead=False)
        )
        with pytest.raises(IterationAborted):
            _run("pr", engine, manager=manager)
        assert manager.latest() is not None
        # The operator swapped the dead SSD: resume on a clean array.
        state, result, _ = _run(
            "pr", make_engine(), resume=manager.load(manager.iterations()[-1])
        )
        assert np.array_equal(state, golden_state)
        assert result.iterations == golden_result.iterations

    def test_resume_under_chaos_is_bit_identical(self, tmp_path):
        """The strongest composition: transient errors + a device death +
        parity + health monitoring, interrupted and resumed — the resumed
        run must match the uninterrupted chaos run bit for bit, counters
        included."""
        chaos = dict(
            plan=FaultPlan(
                [
                    TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
                    DeviceFailure(device=11, at=0.002),
                ],
                seed=42,
            ),
            policy=FaultPolicy(),
            health=HealthPolicy(),
            parity=ParityConfig(),
        )
        manager = CheckpointManager(tmp_path)
        full_state, full_result, full_counters = _run(
            "pr", make_engine(**chaos), manager=manager
        )
        boundary = manager.iterations()[len(manager.iterations()) // 2]
        state, result, counters = _run(
            "pr", make_engine(**chaos), resume=manager.load(boundary)
        )
        assert np.array_equal(state, full_state)
        assert counters == full_counters
        assert result.runtime == full_result.runtime
