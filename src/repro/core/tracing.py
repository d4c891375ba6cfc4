"""Per-iteration execution tracing.

Research users of a graph engine need more than end-to-end numbers: how
the frontier evolved, where the bytes went, when the cache warmed up.
An :class:`IterationTracer` hooks an engine run and records one row per
iteration, exportable as CSV for plotting.

Usage::

    tracer = IterationTracer(engine)
    with tracer:
        bfs(engine, source)
    tracer.write_csv("bfs_trace.csv")
"""

import csv
from dataclasses import dataclass
from typing import List, Optional

from repro.core.engine import GraphEngine


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's observations."""

    iteration: int
    active_vertices: int
    edges_delivered: int
    io_requests: int
    pages_fetched: int
    cache_hits: int
    messages: int
    end_time: float


class IterationTracer:
    """Records per-iteration engine activity via a lightweight hook."""

    def __init__(self, engine: GraphEngine) -> None:
        self.engine = engine
        self.records: List[IterationRecord] = []
        self._original = None
        self._last_snapshot: Optional[dict] = None

    def __enter__(self) -> "IterationTracer":
        self.records.clear()
        self._original = self.engine._run_iteration
        tracer = self

        def traced(frontier, scheduler, *priorities):
            before = tracer.engine.stats.snapshot()
            tracer._original(frontier, scheduler, *priorities)
            delta = tracer.engine.stats.diff(before)
            end_time = max(
                (w.time for w in tracer.engine._workers), default=0.0
            )
            tracer.records.append(
                IterationRecord(
                    iteration=tracer.engine.iteration,
                    active_vertices=int(frontier.size),
                    edges_delivered=int(delta.get("engine.edges_delivered", 0)),
                    io_requests=int(delta.get("engine.io_requests", 0)),
                    pages_fetched=int(delta.get("io.pages_fetched", 0)),
                    cache_hits=int(delta.get("cache.hits", 0)),
                    messages=int(delta.get("msg.delivered", 0)),
                    end_time=end_time,
                )
            )

        self.engine._run_iteration = traced
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Remove the instance attribute so the class method shows through
        # again (assigning the bound method back would shadow it forever).
        # pop() instead of del: the hook must be restored no matter how
        # the traced run ended — an aborted run (IterationAborted under
        # faults), a double __exit__, or an __exit__ without __enter__
        # must never leave a stale hook or raise a masking AttributeError.
        self.engine.__dict__.pop("_run_iteration", None)
        self._original = None

    @property
    def num_iterations(self) -> int:
        return len(self.records)

    def frontier_sizes(self) -> List[int]:
        """Active-vertex counts per iteration (the frontier curve)."""
        return [r.active_vertices for r in self.records]

    def write_csv(self, path) -> None:
        """Dump the trace as CSV with a header row."""
        fields = [
            "iteration",
            "active_vertices",
            "edges_delivered",
            "io_requests",
            "pages_fetched",
            "cache_hits",
            "messages",
            "end_time",
        ]
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(fields)
            for record in self.records:
                writer.writerow([getattr(record, name) for name in fields])
