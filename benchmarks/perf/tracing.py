"""Host-clock span tracing of the repro packages, from outside them.

The benchmark owns the spans: :class:`Tracer` swaps the public functions
listed in :func:`_targets` for timing wrappers while a traced pass runs
and puts the originals back afterwards, so nothing under ``src/`` knows
it is being measured and an untraced pass in the same process pays
nothing.  One span is ``(layer, name, start, end, parent, unit)``; a
layer's *self time* is the sum over its spans of duration minus the
duration of their direct children, so the layers tile the root spans
(``GraphEngine.run`` in a batch pass, ``GraphService.serve`` in a served
one) exactly.

Wrapper entry/exit cost lands in the *parent's* self time, so a layer
that makes many tiny calls into other layers (the engine's per-vertex
loop) reads high under tracing; ``trace.overhead_frac`` says by how much
the whole pass was stretched.
"""

import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: Program hooks the engine calls (``repro.algorithms`` layer).
_PROGRAM_HOOKS = (
    "run",
    "run_on_vertex",
    "run_on_message",
    "run_on_messages",
    "run_batch",
    "run_on_vertices",
    "run_on_iteration_end",
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _public_methods(cls):
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


def _targets():
    """``(layer, owner, attribute names)`` for every wrapped call.

    Owners are classes (methods patched where defined) or ``None`` for
    module-level functions, which are patched in every ``repro`` module
    namespace that imported them.
    """
    import repro.algorithms  # noqa: F401  (registers the program subclasses)
    from repro.core.engine import EngineJob, GraphEngine
    from repro.core.messages import MessageBuffer
    from repro.core.scheduler import VertexScheduler
    from repro.core.vertex_program import VertexProgram
    from repro.graph import format as graph_format
    from repro.graph.index import GraphIndex, GraphIndexV2
    from repro.graph.page_vertex import PageVertex
    from repro.obs.spans import Observer
    from repro.obs.timeline import TimelineSampler
    from repro.safs import io_request
    from repro.safs.filesystem import SAFS
    from repro.safs.io_scheduler import IOScheduler
    from repro.safs.page_cache import PageCache
    from repro.serve.admission import AdmissionController
    from repro.serve.queries import QueryFactory
    from repro.serve.service import GraphService
    from repro.sim.ssd_array import SSDArray

    targets = [
        ("core.engine", GraphEngine, ("run", "start_job")),
        ("core.engine", EngineJob, ("step",)),
        ("core.scheduler", VertexScheduler, ("schedule",)),
        ("core.messages", MessageBuffer, ("send", "deliver")),
        ("graph.decode", PageVertex, ("__init__",)),
        ("graph.decode", None, (
            graph_format.parse_edge_list,
            graph_format.parse_edge_list_v2,
            graph_format.decode_lists_v2,
        )),
        ("graph.index", GraphIndex, ("locate", "locate_many", "degrees_of")),
        ("graph.index", GraphIndexV2, ("locate", "locate_many", "degrees_of")),
        ("safs.merge", None, (
            io_request.merge_requests,
            io_request.merge_request_arrays,
        )),
        ("safs.dispatch", SAFS, ("submit", "submit_merged", "submit_spans")),
        ("safs.dispatch", IOScheduler, ("dispatch", "dispatch_span")),
        ("safs.cache", PageCache, ("lookup", "lookup_range", "insert", "insert_range")),
        ("sim.array", SSDArray, (
            "submit", "submit_run", "reconstruct_run", "reroute_target",
        )),
        ("serve.loop", GraphService, ("serve",)),
        ("serve.admission", AdmissionController, (
            "can_admit", "admit", "release", "note_quota_wait",
        )),
        ("serve.admission", QueryFactory, ("build",)),
        ("obs", Observer, _public_methods(Observer)),
        ("obs", TimelineSampler, _public_methods(TimelineSampler)),
    ]
    for cls in (VertexProgram, *_subclasses(VertexProgram)):
        targets.append(("algorithms.program", cls, _PROGRAM_HOOKS))
    return targets


#: Every layer a span can belong to, in report order.
LAYERS = (
    "algorithms.program",
    "core.engine",
    "core.scheduler",
    "core.messages",
    "graph.decode",
    "graph.index",
    "safs.merge",
    "safs.dispatch",
    "safs.cache",
    "sim.array",
    "serve.loop",
    "serve.admission",
    "obs",
)


class Tracer:
    """Records spans in memory; :meth:`installed` scopes the wrappers.

    Spans are stored column-wise in typed arrays (a served pass opens a
    few million of them): span ``i`` is ``names[code[i]]`` from
    ``start[i]`` to ``end[i]``, opened inside span ``parent[i]`` (-1 for
    a root) on behalf of ``unit[i]`` (-1 for none).
    """

    def __init__(self) -> None:
        self.names = []  # (layer, function name) per code
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit = array("q")
        #: Pass id (batch) stamped on spans opened outside a query step.
        self.current_unit = -1
        #: Served runs: stamp each ``EngineJob.step`` subtree with the
        #: job's start-order number; :attr:`finished` lists those numbers
        #: in finish order, which is the order of ``report.records``.
        self.per_query = False
        self.finished = []
        self._stack = []
        self._jobs = 0

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        code = len(self.names)
        self.names.append((layer, name))
        codes, starts, ends = self.code, self.start, self.end
        parents, units, stack = self.parent, self.unit, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            units.append(self.current_unit)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_step(self, layer, name, fn):
        """``EngineJob.step``: in a served run, label the step's subtree
        with its query and note the order in which jobs finish."""
        plain = self._wrap(layer, name, fn)

        def traced(job):
            if not self.per_query:
                return plain(job)
            state = vars(job)
            if "_perf_unit" not in state:
                state["_perf_unit"] = self._jobs
                self._jobs += 1
            saved, self.current_unit = self.current_unit, state["_perf_unit"]
            alive = False
            try:
                alive = plain(job)
                return alive
            finally:
                if not alive:
                    self.finished.append(self.current_unit)
                self.current_unit = saved

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the ``with`` block."""
        undo = []
        try:
            for layer, owner, names in _targets():
                if owner is None:
                    for fn in names:
                        wrapped = self._wrap(layer, fn.__name__, fn)
                        for module in list(sys.modules.values()):
                            if not getattr(module, "__name__", "").startswith("repro"):
                                continue
                            for attr, value in list(vars(module).items()):
                                if value is fn:
                                    setattr(module, attr, wrapped)
                                    undo.append((module, attr, fn))
                    continue
                for name in names:
                    fn = vars(owner).get(name)
                    if not inspect.isfunction(fn):
                        continue  # inherited, or a ``None`` fast-path slot
                    label = f"{owner.__name__}.{name}"
                    wrap = self._wrap_step if name == "step" else self._wrap
                    setattr(owner, name, wrap(layer, label, fn))
                    undo.append((owner, name, fn))
            yield self
        finally:
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)

    # -- analysis --------------------------------------------------------

    def layer_times(self):
        """``{layer: (self seconds, calls)}`` plus the root-span total."""
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.size
        )
        code = np.frombuffer(self.code, dtype=np.uint16)
        self_by_code = np.bincount(code, weights=duration - children, minlength=len(self.names))
        calls_by_code = np.bincount(code, minlength=len(self.names))
        times = {layer: [0.0, 0] for layer in LAYERS}
        for (layer, _), self_s, calls in zip(self.names, self_by_code, calls_by_code):
            times[layer][0] += float(self_s)
            times[layer][1] += int(calls)
        return {k: tuple(v) for k, v in times.items()}, float(duration[~nested].sum())

    def write_jsonl(self, path, unit_names=None) -> None:
        """One JSON object per span, in opening order (``id`` is the line
        number), times relative to the first span.

        ``unit_names`` maps a served run's job numbers to trace-global
        query ids (``Arrival.index``).
        """
        origin = self.start[0] if self.start else 0.0
        columns = zip(self.code, self.start, self.end, self.parent, self.unit)
        with open(path, "w") as out:
            for index, (code, start, end, parent, unit) in enumerate(columns):
                layer, name = self.names[code]
                if unit_names is not None:
                    unit = unit_names.get(unit, unit)
                out.write(
                    f'{{"id":{index},"parent":{parent},"layer":"{layer}","name":"{name}",'
                    f'"start_s":{start - origin:.9f},"end_s":{end - origin:.9f},'
                    f'"unit":{"null" if unit < 0 else unit}}}\n'
                )
