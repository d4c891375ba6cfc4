"""Unit tests for the engine's worker queue/steal mechanics."""

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangle_count import triangle_count
from repro.core.config import ExecutionKind, ExecutionMode
from repro.core.engine import _Worker
from repro.obs import registry as reg

from tests.conftest import engine_for


class TestWorkerQueue:
    def test_take_advances(self):
        worker = _Worker(0)
        worker.queue = np.arange(10)
        assert worker.take(4).tolist() == [0, 1, 2, 3]
        assert worker.remaining == 6
        assert worker.take(100).tolist() == [4, 5, 6, 7, 8, 9]
        assert worker.remaining == 0

    def test_take_empty(self):
        worker = _Worker(0)
        assert worker.take(5).size == 0

    def test_steal_from_tail(self):
        worker = _Worker(0)
        worker.queue = np.arange(10)
        worker.take(2)
        stolen = worker.steal_from_tail(3)
        assert stolen.tolist() == [7, 8, 9]
        # The remaining queue excludes both taken and stolen vertices.
        assert worker.take(100).tolist() == [2, 3, 4, 5, 6]

    def test_steal_respects_position(self):
        worker = _Worker(0)
        worker.queue = np.arange(4)
        worker.take(3)
        stolen = worker.steal_from_tail(10)
        assert stolen.tolist() == [3]
        assert worker.remaining == 0

    def test_steal_from_empty(self):
        worker = _Worker(0)
        assert worker.steal_from_tail(5).size == 0

    def test_steal_zero(self):
        worker = _Worker(0)
        worker.queue = np.arange(3)
        assert worker.steal_from_tail(0).size == 0
        assert worker.remaining == 3

    def test_no_vertex_lost_or_duplicated_under_interleaving(self):
        worker = _Worker(0)
        worker.queue = np.arange(100)
        seen = []
        rng = np.random.default_rng(0)
        while worker.remaining:
            if rng.random() < 0.5:
                seen.extend(worker.take(int(rng.integers(1, 8))).tolist())
            else:
                seen.extend(worker.steal_from_tail(int(rng.integers(1, 8))).tolist())
        assert sorted(seen) == list(range(100))


def _scan_pick(engine):
    """The worker pick as two Python scans over all workers — the
    reference ``GraphEngine._pick_worker`` must agree with at every step."""
    workers = engine._workers
    work_exists = any(w.remaining for w in workers) or engine.reader.parts
    if not work_exists:
        return None
    best = None
    for worker in workers:
        eligible = (
            worker.remaining
            or engine.reader.parts
            or (engine.config.load_balance and work_exists)
        )
        if eligible and (best is None or worker.time < best.time):
            best = worker
    return best


def _shadow_picks(engine, seed):
    """Check every pick of ``engine`` against :func:`_scan_pick`.

    Before each pick one worker's clock is snapped onto another's, so
    exact ties between drained and non-drained workers are common rather
    than limited to the first pick of an iteration.  Returns the log of
    ``(picked index or None, part queue was non-empty)``.
    """
    rng = np.random.default_rng(seed)
    pick = engine._pick_worker
    log = []

    def checked():
        a, b = rng.integers(0, len(engine._workers), size=2)
        engine._workers[a].time = engine._workers[b].time
        picked = pick()
        assert picked is _scan_pick(engine)
        log.append((getattr(picked, "index", None), bool(engine.reader.parts)))
        return picked

    engine._pick_worker = checked
    return log


def _shadowed_engine(image, load_balance, seed, **overrides):
    """An 8-thread in-memory engine with small batches (many picks per
    iteration) and its pick log."""
    engine = engine_for(
        image,
        mode=ExecutionMode.IN_MEMORY,
        num_threads=8,
        load_balance=load_balance,
        max_running_vertices=16,
        **overrides,
    )
    return engine, _shadow_picks(engine, seed)


@pytest.mark.parametrize("load_balance", [True, False])
class TestPickSequence:
    """``_pick_worker`` picks what the two-scan reference picks: earliest
    clock, ties to the lowest index, among the eligible workers."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sync_rounds(self, rmat_image, load_balance, seed):
        engine, log = _shadowed_engine(rmat_image, load_balance, seed)
        _, result = pagerank(engine, max_iterations=4)
        assert log.count((None, False)) == result.iterations
        stolen = result.counters.get(reg.ENGINE_STOLEN_VERTICES, 0)
        assert (stolen > 0) == load_balance

    def test_across_async_eager_flushes(self, rmat_image, load_balance):
        """An eager flush charges the receiving workers mid-round; the
        next pick must see those clocks."""
        engine, log = _shadowed_engine(
            rmat_image,
            load_balance,
            seed=2,
            execution=ExecutionKind.ASYNC,
            message_flush_threshold=64,
        )
        _, result = pagerank(engine, max_iterations=6)
        assert result.counters[reg.ENGINE_EAGER_FLUSHES] > 0
        assert log.count((None, False)) == result.iterations

    def test_with_queued_vertex_parts(self, rmat_image, load_balance):
        """A non-empty part queue makes every worker eligible, drained
        or not, with or without load balancing."""
        engine, log = _shadowed_engine(
            rmat_image,
            load_balance,
            seed=3,
            vertical_part_threshold=32,
            vertical_part_size=16,
        )
        _, result = triangle_count(engine)
        assert result.counters[reg.ENGINE_VERTEX_PARTS] > 0
        assert any(parts for _, parts in log)
