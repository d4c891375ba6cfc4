"""The vertex-centric programming interface (§3.4, Figure 3).

A :class:`VertexProgram` expresses one algorithm.  FlashGraph's C++ API
instantiates one object per vertex; in Python that costs too much memory
and call overhead, so the program here is a *flyweight*: one object whose
methods receive the vertex ID, with per-vertex state kept in numpy arrays
owned by the program.  The four entry points and their contracts are the
paper's:

- ``run(g, vertex)`` — entry point for an active vertex each iteration.
  May only touch the vertex's own state; edge lists must be requested
  explicitly (``g.request_vertices``) because activation without
  computation is common and a default read would waste I/O bandwidth.
- ``run_on_vertex(g, vertex, page_vertex)`` — fires when a requested edge
  list arrives, executing against the SAFS page cache.
- ``run_on_message(g, vertex, value)`` — fires on message delivery, even
  for inactive vertices.
- ``run_on_iteration_end(g)`` — fires at the iteration barrier when the
  program asked for the notification (``g.notify_iteration_end()``).

The engine itself calls one **batch hook** per stage (``run_batch`` /
``run_on_vertices`` / ``run_on_messages``), handing over a whole
scheduler batch, delivered wave or message round.  The defaults loop
over the scalar hooks above, so a program may define only those;
data-parallel algorithms override a batch hook to touch numpy arrays
instead of making one Python call per vertex.  Either way every charged
context call is logged against its item and replayed in call order, so
simulated results do not depend on which form ran (see
``docs/architecture.md``, "The read path").

Programs that also want the **async priority mode** declare a
``residuals`` hook (how much unpropagated work each vertex holds) and,
optionally, an ``async_floor`` below which a residual is not worth
scheduling — see ``docs/execution_modes.md``.
"""

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.page_vertex import PageVertex, PageVertexBatch
from repro.graph.types import EdgeType
from repro.obs import registry as reg

#: Scalar types the default snapshot captures alongside numpy arrays.
_SNAPSHOT_SCALARS = (bool, int, float, str)

#: Each scalar hook and the batch hook that stands in for it.
_HOOK_TWINS = (
    ("run", "run_batch"),
    ("run_on_vertex", "run_on_vertices"),
    ("run_on_message", "run_on_messages"),
)


class VertexProgram:
    """Base class for all graph algorithms run by the engine."""

    #: Which edge lists ``request_self`` fetches by default.
    edge_type: EdgeType = EdgeType.OUT
    #: How concurrent messages to one vertex combine ("sum"/"min"/"max",
    #: or None to deliver individually).
    combiner: Optional[str] = "sum"
    #: Per-vertex algorithmic state footprint, for memory accounting
    #: (BFS needs 1 byte; most algorithms stay under 8).
    state_bytes_per_vertex: int = 8

    def __init_subclass__(cls, **kwargs) -> None:
        """A subclass that redefines a scalar hook without its batch twin
        gets the default twin back: the scalar hook is the definition, and
        the twin it inherited vectorizes the *parent's* scalar hook."""
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        for scalar, batch in _HOOK_TWINS:
            if scalar in own and batch not in own:
                setattr(cls, batch, vars(VertexProgram)[batch])

    #: Async-mode hook (see :mod:`repro.core.execution`): ``None`` means
    #: the program only supports synchronous BSP execution.  A program
    #: overriding it returns, for each vertex, its current *residual* —
    #: a non-negative, finite measure of how much unpropagated work the
    #: vertex holds (PageRank's pending delta, WCC's label improvement
    #: since the last broadcast, SSSP's distance improvement).  The
    #: async mode schedules high-residual vertices first and declares
    #: convergence when every residual falls to :attr:`async_floor` (and
    #: the optional global threshold is met).  The program must drive
    #: its own residual to the floor when it runs (push the delta,
    #: broadcast the label), or the round loop will never quiesce.
    residuals = None  # residuals(vertices: int64 array) -> float64 array

    #: Residuals at or below this value are not worth scheduling: the
    #: async mode never runs such a vertex (PageRank mirrors its sync
    #: drop rule ``push <= tolerance`` here; monotone algorithms like
    #: WCC/SSSP keep 0.0 — any improvement must eventually propagate).
    async_floor: float = 0.0

    def run(self, g: "GraphContext", vertex: int) -> None:
        """Called once per iteration on each active vertex."""

    def run_on_vertex(self, g: "GraphContext", vertex: int, page_vertex: PageVertex) -> None:
        """Called when an edge list this vertex requested arrives."""

    def run_on_message(self, g: "GraphContext", vertex: int, value: float) -> None:
        """Called when (combined) messages for this vertex are delivered."""

    def run_on_iteration_end(self, g: "GraphContext") -> None:
        """Called at the barrier if ``g.notify_iteration_end()`` was set."""

    # -- batch hooks: what the engine calls --------------------------------
    #
    # A program overriding one promises it is observationally identical
    # to its scalar twin: same state changes, and the same charged context
    # calls (``send_message`` / ``activate`` / ``charge_edges``) per item
    # in the same order, made through their ``*_batch`` forms.

    def run_batch(self, g: "GraphContext", vertices: np.ndarray) -> None:
        """A scheduler batch of active vertices: ``run`` on each."""
        run = self.run
        for vertex in g._each(vertices.tolist()):
            run(g, vertex)

    def run_on_vertices(self, g: "GraphContext", batch: PageVertexBatch) -> None:
        """A delivered wave of edge lists: ``run_on_vertex`` on each."""
        run_on_vertex = self.run_on_vertex
        for vertex, page_vertex in g._each(batch.page_vertices()):
            run_on_vertex(g, vertex, page_vertex)

    def run_on_messages(self, g: "GraphContext", dests: np.ndarray, values: np.ndarray) -> None:
        """One worker's message round: ``run_on_message`` per delivery."""
        run_on_message = self.run_on_message
        for dest, value in g._each(zip(dests.tolist(), values.tolist())):
            run_on_message(g, dest, value)

    def custom_order(self, active: np.ndarray, iteration: int) -> np.ndarray:
        """Ordering for ``ScheduleOrder.CUSTOM`` (override to use)."""
        raise NotImplementedError

    # -- checkpoint hooks -------------------------------------------------

    #: Attributes the iteration-barrier checkpoint serializes.  ``None``
    #: auto-detects: every instance attribute that is a numpy array or a
    #: plain scalar (bool/int/float/str) is captured.  Programs holding
    #: state the default cannot see (nested objects, callables) declare
    #: their fields here or override the two hooks.
    checkpoint_fields: Optional[Tuple[str, ...]] = None

    def snapshot_state(self) -> Dict[str, object]:
        """Copy every per-vertex state field for a checkpoint.

        Arrays are copied (a resumed run must not alias a live one);
        scalars are stored as-is.  The default covers any program whose
        state is numpy arrays plus plain scalars — which is all of the
        paper's applications.
        """
        names = self.checkpoint_fields
        if names is None:
            names = tuple(
                name
                for name, value in vars(self).items()
                if isinstance(value, (np.ndarray,) + _SNAPSHOT_SCALARS)
            )
        state: Dict[str, object] = {}
        for name in names:
            value = getattr(self, name)
            state[name] = value.copy() if isinstance(value, np.ndarray) else value
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate a :meth:`snapshot_state` dict bit for bit."""
        for name, value in state.items():
            if not hasattr(self, name):
                raise ValueError(
                    f"checkpoint field {name!r} does not exist on "
                    f"{type(self).__name__}"
                )
            current = getattr(self, name)
            if isinstance(current, np.ndarray):
                value = np.asarray(value)
                if value.shape != current.shape or value.dtype != current.dtype:
                    raise ValueError(
                        f"checkpoint field {name!r} has shape/dtype "
                        f"{value.shape}/{value.dtype}, the program expects "
                        f"{current.shape}/{current.dtype}"
                    )
                setattr(self, name, value.copy())
            else:
                setattr(self, name, value)


class GraphContext:
    """The ``graph_engine &g`` handle passed to every vertex method.

    Thin facade over the engine: every request is buffered in its wave
    reader, every message and activation in the run's buffers, and every
    CPU charge is logged in its charge log against the item it is for,
    so the cost lands on the right virtual thread in the right order.

    The engine owns its context, not the other way round: the context
    reaches the engine through a weak proxy, so a dropped engine is freed
    at once with its SAFS stack instead of waiting for the cycle
    collector.
    """

    def __init__(self, engine) -> None:
        self._engine = weakref.proxy(engine)
        self._reader = engine.reader
        self._charges = engine.charges

    # -- graph metadata -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._engine.image.num_vertices

    @property
    def iteration(self) -> int:
        """The current iteration number, starting at 0."""
        return self._engine.iteration

    def degree(self, vertex: int, edge_type: Optional[EdgeType] = None) -> int:
        """Degree from the in-memory graph index (no I/O)."""
        edge_type = self._single(edge_type)
        return self._engine.image.index(edge_type).degree(vertex)

    def degrees_of(self, vertices: np.ndarray, edge_type: Optional[EdgeType] = None) -> np.ndarray:
        """Vectorised :meth:`degree`."""
        edge_type = self._single(edge_type)
        return self._engine.image.index(edge_type).degrees_of(vertices)

    # -- I/O ------------------------------------------------------------

    def request_vertices(
        self,
        requester: int,
        targets,
        edge_type: Optional[EdgeType] = None,
        with_attrs: bool = False,
    ) -> None:
        """Ask SAFS for the edge lists of ``targets``.

        Each arriving list triggers ``run_on_vertex(g, requester, view)``.
        ``targets`` may be the requester itself (the common case) or any
        other vertices (triangle counting, scan statistics).  With
        ``with_attrs`` the detached edge-attribute block is fetched and
        paired with each list (SSSP's weights).
        """
        edge_type = edge_type or self._program_edge_type()
        targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
        for direction in edge_type.directions():
            self._reader.request(requester, targets, direction, with_attrs)

    def request_self(self, vertex: int, edge_type: Optional[EdgeType] = None) -> None:
        """Shorthand for requesting the vertex's own edge list(s)."""
        self.request_vertices(vertex, np.asarray([vertex]), edge_type)

    def request_self_batch(self, vertices, edge_type: Optional[EdgeType] = None) -> None:
        """Batched :meth:`request_self`: every vertex of ``vertices``
        requests its own edge list(s); semantics match per-vertex
        ``request_self`` calls in order.
        """
        edge_type = edge_type or self._program_edge_type()
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        if vertices.size:
            self._reader.request_self(vertices, edge_type)

    # -- communication ---------------------------------------------------
    #
    # The charged calls.  A scalar hook's call is charged to the item the
    # hook runs for; a batch hook's ``*_batch`` call reports every item of
    # the hook call at once — ``counts[i]`` for item ``i`` (a vertex of
    # ``run_batch``, a list of ``run_on_vertices``, a delivery of
    # ``run_on_messages``).  Either kind of hook may make any sequence of
    # its calls: the engine replays each item's charges in call order.
    # ``run_on_iteration_end`` is a scalar hook of one item.

    def activate(self, vertices) -> None:
        """Activate ``vertices`` for the next iteration (multicast)."""
        item = self._cursor("activate", "activate_batch")
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        engine = self._engine
        engine.activations.append(vertices)
        self._charges.log(item, vertices.size * engine.cost_model.cpu_per_multicast_recipient)
        engine.stats.add(reg.MSG_ACTIVATIONS, vertices.size)

    def activate_batch(self, vertices, counts) -> None:
        """Activate vertices for every item of a batch hook call at once.

        The data-free-multicast twin of :meth:`send_message_batch`:
        ``vertices`` holds every activation concatenated in item order and
        ``counts[i]`` is how many of them item ``i`` contributed (a
        boolean mask counts 0 or 1).  Each item is charged as one
        :meth:`activate` of its ``counts[i]`` vertices."""
        self._whole_call("activate_batch", "activate")
        engine = self._engine
        vertices = np.asarray(vertices, dtype=np.int64)
        counts = self._charges.item_counts("activate_batch", counts)
        total = int(counts.sum())
        if total != vertices.size:
            raise ValueError(
                f"activate_batch counts sum to {total}, not the "
                f"{vertices.size} vertices activated"
            )
        engine.activations.append(vertices)
        self._charges.log_column(counts * engine.cost_model.cpu_per_multicast_recipient)
        engine.stats.add(reg.MSG_ACTIVATIONS, vertices.size)

    def send_message(self, dests, values) -> None:
        """Send ``values`` to ``dests`` (scalar value = multicast)."""
        item = self._cursor("send_message", "send_message_batch")
        dests = np.atleast_1d(np.asarray(dests, dtype=np.int64))
        engine = self._engine
        count = engine.messages.send(dests, values)
        self._charges.log(item, count * engine.cost_model.cpu_per_multicast_recipient)
        engine.stats.add(reg.MSG_SENT, count)

    def send_message_batch(self, dests, values, counts) -> None:
        """Send messages for every item of a batch hook call at once.

        The batch twin of ``send_message(dests, scalar)``: item ``i``
        multicasts ``values[i]`` — **one value per item** — to its
        ``counts[i]`` destinations (zero for items that send nothing),
        and ``dests`` holds every item's destinations concatenated in item
        order.  Each item is charged as one :meth:`send_message`, so the
        worker clocks match per-item calls bit for bit.  Lists with
        per-edge payloads keep the scalar hook."""
        self._whole_call("send_message_batch", "send_message")
        engine = self._engine
        counts = self._charges.item_counts("send_message_batch", counts)
        total = engine.messages.send(dests, values, counts)
        self._charges.log_column(counts * engine.cost_model.cpu_per_multicast_recipient)
        if total:
            engine.stats.add(reg.MSG_SENT, total)

    def notify_iteration_end(self) -> None:
        """Request a ``run_on_iteration_end`` callback at this barrier."""
        self._engine.iteration_end_requested = True

    # -- accounting -------------------------------------------------------

    def charge_edges(self, count: int) -> None:
        """Charge extra per-edge CPU work on a delivered edge list (e.g.
        triangle counting's neighbor-list intersections): folded into the
        list's run charge.  Only valid inside ``run_on_vertex``."""
        item = self._cursor("charge_edges", "charge_edges_batch")
        self._charges.log_edges(item, count)

    def charge_edges_batch(self, counts) -> None:
        """Batched :meth:`charge_edges`, only valid inside
        ``run_on_vertices``: ``counts[i]`` extra edges of work for
        delivered list ``i``."""
        self._whole_call("charge_edges_batch", "charge_edges")
        self._charges.log_edges_batch(counts)

    # -- internals --------------------------------------------------------

    def _each(self, values):
        """Yield ``values``, making the i-th the item the scalar charged
        calls are charged to: the loop of the default batch hooks."""
        charges = self._charges
        for charges.item, value in enumerate(values):
            yield value
        charges.item = None

    def _cursor(self, method: str, twin: str) -> int:
        """The item a scalar charged call is charged to."""
        item = self._charges.item
        if item is None:
            raise ValueError(
                f"g.{method} is a scalar hook's call; a batch hook reports "
                f"its items through g.{twin}"
            )
        return item

    def _whole_call(self, method: str, twin: str) -> None:
        """Refuse a batch charged call from inside a scalar hook."""
        if self._charges.item is not None:
            raise ValueError(
                f"g.{method} reports every item of a batch hook call; a "
                f"scalar hook calls g.{twin}"
            )

    def _program_edge_type(self) -> EdgeType:
        return self._engine.program.edge_type

    def _single(self, edge_type: Optional[EdgeType]) -> EdgeType:
        edge_type = edge_type or self._program_edge_type()
        if edge_type is EdgeType.BOTH:
            return EdgeType.OUT
        return edge_type
