"""Iteration-barrier checkpoint/restore for the graph engine.

Long-running billion-node jobs need more than fault *detection*: when a
run dies past every recovery budget (or the process is killed), hours of
work should not vanish.  ACGraph's out-of-core recovery model shows the
right granularity is the iteration barrier — the one point where the
engine's transient state collapses to almost nothing:

- every pending request wave, vertex part and attribute pairing is empty,
- the message buffer has been delivered (only its peak gauge survives),
- every worker clock sits exactly on the barrier.

What remains is captured here (:func:`capture_checkpoint`, and
:func:`apply_checkpoint` to put it back): the vertex-program state, the
next frontier, all DES counters (the shared :class:`StatsCollector` plus the
run's base snapshot), per-worker clocks, per-device SSD queue state
(including hot spares and in-flight rebuilds), the health monitor, the
full page-cache placement/recency state, and the vertex scheduler's RNG.
Restoring puts every float back bit for bit, so a resumed run finishes
**bit-identical** to an uninterrupted one — results and counters alike
(the crash-resume matrix test asserts exactly this).

Format: one pickle per checkpoint holding a versioned plain dict of
Python scalars and numpy arrays.  Pickle round-trips every float (and
``inf``) exactly and keeps numpy arrays in their native dtype, which is
the whole requirement; the files are internal state, not an interchange
format — treat them like any other pickle (do not load untrusted ones).
Writes go to a temp file in the same directory followed by an atomic
rename, so a crash mid-save never corrupts the latest good checkpoint.

Checkpoint I/O itself is free in *simulated* time: the paper's arrays
are read-only during computation (SEM never writes to the SSDs), so the
checkpoint is modelled as landing on separate durable storage outside
the simulated array — see ``docs/recovery.md``.
"""

import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

#: Current checkpoint format version; bumped on incompatible changes.
CHECKPOINT_VERSION = 1

_CHECKPOINT_NAME = re.compile(r"^ckpt_iter_(\d{8})\.pkl$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be saved, loaded or applied."""


class CheckpointManager:
    """Writes and locates iteration-barrier checkpoints in one directory.

    One manager owns one directory; checkpoints are named by the
    iteration they capture (``ckpt_iter_00000007.pkl``), so ``latest()``
    is a pure directory listing and a re-run with ``--resume`` needs no
    side-channel metadata.  Only :meth:`save` writes: the first save
    creates the directory, and a manager that only reads creates nothing.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    def path_for(self, iteration: int) -> Path:
        """Where the checkpoint of ``iteration`` lives."""
        if iteration < 0:
            raise ValueError("iterations are non-negative")
        return self.directory / f"ckpt_iter_{iteration:08d}.pkl"

    def save(self, state: Dict) -> Path:
        """Persist one captured state dict atomically; returns its path.

        The write lands in a temp file in the same directory and is
        renamed into place, so readers only ever see complete
        checkpoints — a crash mid-save leaves the previous one intact.
        """
        if state.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"refusing to save a state dict of version "
                f"{state.get('version')!r} (expected {CHECKPOINT_VERSION})"
            )
        path = self.path_for(int(state["iteration"]))
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=".ckpt_tmp_", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def load(self, source: Union[int, str, Path]) -> Dict:
        """Load one checkpoint by iteration number or path."""
        return load_checkpoint(self.path_for(source) if isinstance(source, int) else source)

    def iterations(self) -> List[int]:
        """Iterations with a checkpoint on disk, ascending (none when the
        directory does not exist yet)."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _CHECKPOINT_NAME.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest(self) -> Optional[Path]:
        """The newest checkpoint's path, or ``None`` when empty."""
        iterations = self.iterations()
        if not iterations:
            return None
        return self.path_for(iterations[-1])

    def __repr__(self) -> str:
        return f"CheckpointManager({str(self.directory)!r})"


def load_checkpoint(path: Union[str, Path]) -> Dict:
    """Load the checkpoint at ``path``; reading never writes anything."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    with open(path, "rb") as fh:
        state = pickle.load(fh)
    if not isinstance(state, dict) or "version" not in state:
        raise CheckpointError(f"{path} is not a checkpoint")
    if state["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has format version {state['version']}, "
            f"this build reads {CHECKPOINT_VERSION}"
        )
    return state


def _safs_files(safs) -> Dict[str, int]:
    return {name: safs.open_file(name).file_id for name in safs.file_names()}


def capture_checkpoint(
    engine, frontier: np.ndarray, base: Dict[str, float], scheduler, execution=None
) -> Dict:
    """Serialize ``engine`` at an iteration/round barrier.

    Every transient queue is empty here (requests, parts, batches,
    activations, messages), so the capture is the program state, the
    next frontier, the DES clocks and counters, and the SAFS stack's
    mutable state — everything :func:`apply_checkpoint` needs for a
    bit-identical continuation.  Async rounds additionally pass their
    ``execution`` state (the residuals); sync captures omit the key
    entirely, so sync checkpoints keep their original shape.
    """
    workers, safs = engine._workers, engine.safs
    state: dict = {
        "version": CHECKPOINT_VERSION,
        "image": {
            "name": engine.image.name,
            "num_vertices": int(engine.image.num_vertices),
        },
        "engine": {
            "num_threads": int(engine.config.num_threads),
            "mode": engine.config.mode.value,
        },
        "iteration": int(engine.iteration),
        "frontier": np.asarray(frontier, dtype=np.int64).copy(),
        "peak_messages": int(engine._peak_messages),
        "peak_pending": int(engine.messages.peak_pending),
        "base": dict(base),
        "counters": engine.stats.snapshot(),
        "worker_time": np.asarray([w.time for w in workers]),
        "worker_busy": np.asarray([w.busy for w in workers]),
        "scheduler_rng": scheduler.export_state(),
        "program": {
            "class": type(engine.program).__name__,
            "state": engine.program.snapshot_state(),
        },
    }
    if execution is not None:
        state["engine"]["execution"] = engine.config.execution.value
        state["execution"] = execution
    state["safs"] = None
    if safs is not None:
        state["safs"] = {
            "files": _safs_files(safs),
            "array": safs.array.export_state(),
            "health": None if safs.health is None else safs.health.export_state(),
            "cache": safs.cache.export_state(),
        }
    return state


def apply_checkpoint(engine, state: Dict, program, scheduler):
    """Reinstate a captured barrier state onto ``engine``.

    Returns ``(frontier, base)`` for the run loop.  The engine must have
    been built exactly like the checkpointed one; mismatches raise
    :class:`CheckpointError` before anything is mutated.
    """
    config, image, safs = engine.config, engine.image, engine.safs
    meta, prog_meta, safs_state = state["engine"], state["program"], state["safs"]
    if (state["image"]["name"], state["image"]["num_vertices"]) != (
        image.name, image.num_vertices
    ):
        raise CheckpointError(
            f"checkpoint is for graph {state['image']['name']!r} "
            f"({state['image']['num_vertices']} vertices), not "
            f"{image.name!r} ({image.num_vertices})"
        )
    if meta["num_threads"] != config.num_threads:
        raise CheckpointError(
            f"checkpoint ran {meta['num_threads']} threads, "
            f"this engine has {config.num_threads}"
        )
    if meta["mode"] != config.mode.value:
        raise CheckpointError(
            f"checkpoint ran in {meta['mode']} mode, this engine "
            f"is {config.mode.value}"
        )
    # Sync checkpoints omit the execution key.
    if meta.get("execution", "sync") != config.execution.value:
        raise CheckpointError(
            f"checkpoint ran under {meta.get('execution', 'sync')} "
            f"execution, this engine is {config.execution.value}"
        )
    if prog_meta["class"] != type(program).__name__:
        raise CheckpointError(
            f"checkpoint holds {prog_meta['class']} state, the run "
            f"was given {type(program).__name__}"
        )
    if (safs_state is None) != (safs is None):
        raise CheckpointError("checkpoint and engine disagree about semi-external mode")
    if safs_state is not None:
        if _safs_files(safs) != safs_state["files"]:
            raise CheckpointError(
                "the SAFS file table does not match the checkpoint "
                "(file names or ids differ; rebuild the stack the "
                "same way as the checkpointed run)"
            )
        if (safs_state["health"] is None) != (safs.health is None):
            raise CheckpointError(
                "checkpoint and engine disagree about health monitoring"
            )

    # Validation passed — reinstate, counters first.
    engine.stats.reset()
    engine.stats.merge(state["counters"])
    engine.iteration = int(state["iteration"])
    engine._peak_messages = int(state["peak_messages"])
    for worker, time, busy in zip(
        engine._workers, state["worker_time"], state["worker_busy"]
    ):
        worker.time = float(time)
        worker.busy = float(busy)
    scheduler.restore_state(state["scheduler_rng"])
    program.restore_state(prog_meta["state"])
    engine.messages.restore_peak(state["peak_pending"])
    if safs_state is not None:
        safs.array.restore_state(safs_state["array"])
        if safs_state["health"] is not None:
            safs.health.restore_state(safs_state["health"])
        safs.cache.restore_state(safs_state["cache"])
    frontier = np.asarray(state["frontier"], dtype=np.int64).copy()
    return frontier, dict(state["base"])
