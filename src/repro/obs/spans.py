"""Span tracing across every layer of the stack, in simulated time.

An :class:`Observer` is *armed* onto an engine with :func:`arm`: every
layer (engine, SAFS, scheduler, array, devices) carries an ``obs``
attribute that defaults to ``None`` and is consulted behind a single
``is not None`` check, so a disarmed run does no observability work at
all and its counter stream stays bit-identical to the seed.

Armed, the stack reports three kinds of spans:

- **request spans** — one per engine-level I/O element (a vertex's edge
  list or attribute read), linked to the merged I/O span that carried it;
- **io spans** — one per merged request dispatched through SAFS, with
  stage events accumulated as the request flows (``cache_lookup``,
  ``dedup``, ``retried``, ``rerouted``, ``reconstructed``, ``timeout``,
  ``corrupt``, ``quarantined``, ``dead``, ``transient``);
- **device spans** — one per device attempt, carrying exact queue wait
  and service time; per device, service durations tile the device's
  accumulated busy time.

Everything is deterministic: ids are sequence numbers, times are
simulated floats, and exports sort keys — two runs of the same seeded
simulation produce byte-identical traces.

Exports: :func:`to_jsonl` (one JSON object per line),
:func:`to_chrome` (Chrome ``trace_event`` JSON loadable in
``chrome://tracing`` / Perfetto, one track per device and stack layer)
and :func:`write_iteration_csv` (one CSV row per iteration).
"""

import csv
import json
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.obs import registry

#: Microseconds per simulated second (Chrome trace timestamps are µs).
_US = 1e6

#: Chrome thread ids: engine iterations, SAFS io spans, query lifecycle
#: events (serving runs only), then devices.
_TID_ENGINE = 1
_TID_SAFS = 2
_TID_QUERIES = 3
_TID_DEVICE_BASE = 100

#: The counters each iteration row reports as per-iteration deltas:
#: ``(row key, counter name)``, in CSV column order.
_ITERATION_COUNTERS = (
    ("edges_delivered", registry.ENGINE_EDGES_DELIVERED),
    ("io_requests", registry.ENGINE_IO_REQUESTS),
    ("pages_fetched", registry.IO_PAGES_FETCHED),
    ("cache_hits", registry.CACHE_HITS),
    ("messages", registry.MSG_DELIVERED),
)


def _jsonable(value):
    """Coerce enum-ish context members to plain JSON scalars."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    inner = getattr(value, "value", None)
    if isinstance(inner, (int, float, str)):
        return inner
    return repr(value)


class Observer:
    """Collects spans, stage events and metrics from an armed stack.

    Purely additive: it reads simulated state but never mutates clocks,
    queues or counters, so an armed run's :class:`RunResult` is
    bit-identical to a disarmed one.
    """

    def __init__(self) -> None:
        #: One row per iteration (wall span, busy deltas, stall weights,
        #: and the deltas of the counters in ``_ITERATION_COUNTERS``).
        self.iterations: List[dict] = []
        #: One record per merged request dispatched through SAFS.
        self.io_spans: List[dict] = []
        #: One record per device attempt (queue wait + service).
        self.device_spans: List[dict] = []
        #: One record per engine-level request element.
        self.request_spans: List[dict] = []
        #: Per-query lifecycle events (queued/shed/admitted/barrier/…),
        #: fed by the serving layer; empty — and therefore invisible in
        #: every export — on batch runs.
        self.query_spans: List[dict] = []
        #: Stats collector fed with histograms/gauges (set by :func:`arm`).
        self.stats = None
        #: Active query span context (``{"query", "tenant", "app"}``),
        #: set by :class:`~repro.core.engine.EngineJob` around each step
        #: when the job was started with one; every span recorded while
        #: it is set carries the query id, which is what joins the
        #: layers into one per-query critical path (:func:`query_path`).
        self._query: Optional[dict] = None
        self._iter: Optional[dict] = None
        self._io: Optional[dict] = None
        self._next_io = 0
        self._recovery_depth = 0
        # Per-device min-heap of service completion times: queue depth at
        # arrival is the number of earlier attempts still in the queue.
        self._outstanding: Dict[int, list] = {}
        self._busy_base: List[float] = []
        self._counter_base: List[float] = []

    # ------------------------------------------------------------------
    # Query span context (end-to-end tracing across the serving layer)
    # ------------------------------------------------------------------

    def set_query_context(self, context: dict) -> None:
        """Tag every span recorded until :meth:`clear_query_context`
        with ``context`` (``{"query": id, "tenant": ..., "app": ...}``)."""
        self._query = context

    def clear_query_context(self) -> None:
        self._query = None

    def note_query_event(
        self, event: str, time: float, context: dict, **fields
    ) -> None:
        """One query lifecycle event (queued, shed, admitted,
        deadline-abort, completed, aborted) at simulated ``time``."""
        record = {
            "type": "query",
            "event": event,
            "time": time,
            "query": context["query"],
            "tenant": context["tenant"],
            "app": context["app"],
        }
        for key, value in sorted(fields.items()):
            record[key] = _jsonable(value)
        self.query_spans.append(record)

    def job_barrier(self, iteration: int, time: float, frontier: int) -> None:
        """An :class:`~repro.core.engine.EngineJob` iteration barrier.

        Recorded only under a query span context: batch runs (which
        never set one) keep producing byte-identical traces.
        """
        if self._query is None:
            return
        self.note_query_event(
            "barrier",
            time,
            self._query,
            iteration=int(iteration),
            frontier=int(frontier),
        )

    def _tag_query(self, record: dict) -> dict:
        """Stamp the active query context onto ``record`` (no-op when
        none is set, so batch-run spans are byte-identical to before)."""
        if self._query is not None:
            record["query"] = self._query["query"]
            record["tenant"] = self._query["tenant"]
        return record

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def begin_iteration(
        self, iteration: int, frontier: int, start: float, workers, stats
    ) -> None:
        self._iter = {
            "type": "iteration",
            "iteration": int(iteration),
            "frontier": int(frontier),
            "start": start,
            "end": start,
            "workers": len(workers),
            "busy_sum": 0.0,
            "queue_s": 0.0,
            "service_s": 0.0,
            "recovery_s": 0.0,
        }
        self._busy_base = [w.busy for w in workers]
        self._counter_base = [stats.get(name) for _, name in _ITERATION_COUNTERS]
        self.iterations.append(self._tag_query(self._iter))

    def _close_iteration(self, end: float, workers, stats) -> dict:
        """Stamp the open row's end, busy and counter deltas; return it."""
        row = self._iter
        row["end"] = end
        row["busy_sum"] = sum(
            w.busy - b for w, b in zip(workers, self._busy_base)
        )
        for (key, name), base in zip(_ITERATION_COUNTERS, self._counter_base):
            row[key] = int(stats.get(name) - base)
        self._iter = None
        return row

    def end_iteration(self, barrier: float, workers, engine) -> None:
        if self._iter is None:
            return
        row = self._close_iteration(barrier, workers, engine.stats)
        stats = self.stats
        if stats is not None:
            stats.sample(registry.GAUGE_FRONTIER_SIZE, barrier, row["frontier"])
            if engine.safs is not None:
                stats.sample(
                    registry.GAUGE_CACHE_OCCUPANCY, barrier, len(engine.safs.cache)
                )
                for index, rate in engine.safs.cache.set_hit_rate_samples().items():
                    stats.sample(
                        f"{registry.GAUGE_CACHE_SET_HIT_RATE}.{index}",
                        barrier,
                        rate,
                    )
            in_flight = 0
            for heap in self._outstanding.values():
                in_flight += sum(1 for done in heap if done > barrier)
            stats.sample(registry.GAUGE_IN_FLIGHT, barrier, in_flight)

    def abort_iteration(self, time: float, workers, stats) -> None:
        """Close the open row at an abort: it ends at ``time`` and is
        marked ``aborted``; no barrier was reached, so no gauge is
        sampled.  A no-op when no row is open (a cancellation between
        iterations)."""
        if self._iter is not None:
            self._close_iteration(time, workers, stats)["aborted"] = True

    # ------------------------------------------------------------------
    # SAFS hooks (filesystem + scheduler)
    # ------------------------------------------------------------------

    def begin_io(
        self, file_id: int, first_page: int, last_page: int, parts: int, issue: float
    ) -> int:
        span_id = self._next_io
        self._next_io += 1
        self._io = {
            "type": "io",
            "id": span_id,
            "file_id": int(file_id),
            "first_page": int(first_page),
            "last_page": int(last_page),
            "parts": int(parts),
            "issue": issue,
            "done": issue,
            "events": [["issued", issue]],
        }
        self.io_spans.append(self._tag_query(self._io))
        if self.stats is not None:
            self.stats.observe(
                registry.HIST_IO_MERGE_RUN_LENGTH,
                parts,
                registry.HISTOGRAM_BOUNDS[registry.HIST_IO_MERGE_RUN_LENGTH],
            )
        return span_id

    def end_io(self, done: float) -> None:
        io = self._io
        if io is None:
            return
        io["done"] = done
        io["events"].append(["completed", done])
        self._io = None

    def io_event(self, stage: str, time: float, **fields) -> None:
        """Attach one stage event to the in-flight io span."""
        io = self._io
        if io is None:
            return
        event = [stage, time]
        if fields:
            event.append({k: _jsonable(v) for k, v in sorted(fields.items())})
        io["events"].append(event)

    def run_done(self, retries: int) -> None:
        """A per-device run completed after ``retries`` retries."""
        if self.stats is not None:
            self.stats.observe(
                registry.HIST_IO_RETRIES_PER_REQUEST,
                retries,
                registry.HISTOGRAM_BOUNDS[registry.HIST_IO_RETRIES_PER_REQUEST],
            )

    def recovery_wait(self, seconds: float) -> None:
        """Simulated seconds spent waiting on backoff/quarantine release."""
        if self._iter is not None and seconds > 0.0:
            self._iter["recovery_s"] += seconds

    def recovery_begin(self) -> None:
        """Enter a recovery section: device work is charged as recovery."""
        self._recovery_depth += 1

    def recovery_end(self) -> None:
        self._recovery_depth -= 1

    def request_events_batch(
        self, vertices, targets, directions, kinds, io_ids, issued, times
    ) -> None:
        """One wave's engine-level request elements, in delivery order.

        Parallel sequences, one entry per element: the requesting vertex,
        the vertex whose data was read, the direction, the kind
        (``"edges"`` or ``"attrs"``), the io span that carried the
        element, that span's issue time and the element's completion time.
        """
        append = self.request_spans.append
        tag = self._tag_query
        for vertex, target, direction, kind, io_id, at, done in zip(
            vertices, targets, directions, kinds, io_ids, issued, times
        ):
            append(
                tag({
                    "type": "request",
                    "io": int(io_id),
                    "issued": float(at),
                    "done": float(done),
                    "vertex": int(vertex),
                    "direction": _jsonable(direction),
                    "kind": kind,
                    "target": int(target),
                })
            )

    # ------------------------------------------------------------------
    # Device hooks
    # ------------------------------------------------------------------

    def device_span(
        self,
        ssd,
        arrival: float,
        start: float,
        service: float,
        pages: int,
        outcome: str,
        done: float,
    ) -> None:
        """One device attempt: queued at ``arrival``, served
        ``[start, start + service)``, data delivered at ``done``."""
        device = ssd.device_index
        heap = self._outstanding.setdefault(device, [])
        while heap and heap[0] <= arrival:
            heappop(heap)
        depth = len(heap)
        heappush(heap, start + service)
        recovery = self._recovery_depth > 0
        self.device_spans.append(
            self._tag_query({
                "type": "device",
                "device": device,
                "name": ssd.name,
                "io": None if self._io is None else self._io["id"],
                "arrival": arrival,
                "start": start,
                "service": service,
                "pages": int(pages),
                "outcome": outcome,
                "done": done,
                "recovery": recovery,
            })
        )
        row = self._iter
        if row is not None:
            row["queue_s"] += start - arrival
            if recovery:
                row["recovery_s"] += service
            else:
                row["service_s"] += service
        stats = self.stats
        if stats is not None:
            stats.observe(
                f"{registry.HIST_SSD_SERVICE_SECONDS}.{ssd.name}",
                service,
                registry.HISTOGRAM_BOUNDS[registry.HIST_SSD_SERVICE_SECONDS],
            )
            stats.observe(
                registry.HIST_SSD_QUEUE_DEPTH,
                depth,
                registry.HISTOGRAM_BOUNDS[registry.HIST_SSD_QUEUE_DEPTH],
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def device_busy_seconds(self) -> Dict[str, float]:
        """Per-device sum of traced service durations.

        By construction each device span charges exactly the service the
        DES charged the device, so this equals each device's
        ``busy_time`` — the acceptance anchor the trace tests pin.
        """
        busy: Dict[str, float] = {}
        for span in self.device_spans:
            busy[span["name"]] = busy.get(span["name"], 0.0) + span["service"]
        return busy


#: Sort-time accessor per record type, for :func:`query_path`.
_SPAN_TIME = {
    "query": lambda r: r["time"],
    "iteration": lambda r: r["start"],
    "io": lambda r: r["issue"],
    "device": lambda r: r["arrival"],
    "request": lambda r: r["issued"],
}

#: Tie-break order at equal times: lifecycle event first, then the
#: containment order iteration ⊃ io ⊃ device ⊃ request.
_SPAN_ORDER = {"query": 0, "iteration": 1, "io": 2, "device": 3, "request": 4}


def query_path(observer: Observer, query: int) -> List[dict]:
    """Every traced record of query ``query``, in critical-path order.

    Joins the query's lifecycle events (queued → shed/admitted →
    barriers → deadline-abort/completed/aborted) with the iteration,
    io, device and request spans its steps produced — the end-to-end
    admission→outcome view the serving acceptance tests pin.  Sorted by
    each record's start time (ties: lifecycle, then outer-to-inner
    span), deterministically.
    """
    path = [
        record
        for record in _records(observer)
        if record.get("query") == query
    ]
    path.sort(key=lambda r: (_SPAN_TIME[r["type"]](r), _SPAN_ORDER[r["type"]]))
    return path


# ----------------------------------------------------------------------
# Arming / disarming
# ----------------------------------------------------------------------

def arm(engine, observer: Optional[Observer] = None) -> Observer:
    """Attach ``observer`` (or a fresh one) to every layer of ``engine``.

    Idempotent; returns the armed observer.  In-memory engines have no
    SAFS stack — only the engine-level hooks arm.
    """
    obs = observer if observer is not None else Observer()
    obs.stats = engine.stats
    engine.obs = obs
    safs = getattr(engine, "safs", None)
    if safs is not None:
        safs.obs = obs
        safs.scheduler.obs = obs
        # Per-set hit tallies exist only on armed stacks, keeping the
        # disarmed lookup miss path free of set hashing.
        safs.cache.enable_set_tracking()
        array = safs.array
        array.obs = obs
        for ssd in array.ssds:
            ssd.obs = obs
        for spare in array.spares:
            spare.obs = obs
    return obs


def disarm(engine) -> None:
    """Detach any observer from every layer of ``engine``."""
    engine.obs = None
    safs = getattr(engine, "safs", None)
    if safs is not None:
        safs.obs = None
        safs.scheduler.obs = None
        safs.array.obs = None
        for ssd in safs.array.ssds:
            ssd.obs = None
        for spare in safs.array.spares:
            spare.obs = None


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

def _records(observer: Observer):
    for row in observer.iterations:
        yield row
    for span in observer.io_spans:
        yield span
    for span in observer.device_spans:
        yield span
    for span in observer.request_spans:
        yield span
    for span in observer.query_spans:
        yield span


def to_jsonl(observer: Observer) -> str:
    """The full trace as JSON Lines (one record per line, sorted keys)."""
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in _records(observer)
    )


def write_jsonl(observer: Observer, path) -> None:
    """Write :func:`to_jsonl` to ``path``."""
    with open(path, "w") as f:
        f.write(to_jsonl(observer))


def write_iteration_csv(observer: Observer, path) -> int:
    """Write the per-iteration trace as CSV; returns the row count.

    A view of :attr:`Observer.iterations`: one row per completed
    iteration (aborted ones are left out).  The columns are the row's
    ``iteration``, its ``frontier`` as ``active_vertices``, the counter
    deltas, and its barrier ``end`` as ``end_time``.
    """
    counters = [key for key, _ in _ITERATION_COUNTERS]
    rows = [row for row in observer.iterations if not row.get("aborted")]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "active_vertices", *counters, "end_time"])
        for row in rows:
            writer.writerow(
                [row["iteration"], row["frontier"]]
                + [row[key] for key in counters]
                + [row["end"]]
            )
    return len(rows)


def _thread_name(tid: int, name: str) -> dict:
    """A Chrome metadata event naming track ``tid``."""
    return {
        "ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
        "args": {"name": name},
    }


def to_chrome(observer: Observer) -> dict:
    """The trace as a Chrome ``trace_event`` document.

    Load in ``chrome://tracing`` or https://ui.perfetto.dev.  Tracks:
    ``engine`` (iteration spans + gauge counters), ``safs`` (merged
    request spans), and one track per device (service spans whose
    durations tile the device's busy time).  Timestamps are µs.
    """
    events: List[dict] = [
        _thread_name(_TID_ENGINE, "engine"),
        _thread_name(_TID_SAFS, "safs"),
    ]
    named_devices = set()
    for row in observer.iterations:
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": _TID_ENGINE,
                "cat": "engine",
                "name": f"iteration {row['iteration']}",
                "ts": row["start"] * _US,
                "dur": (row["end"] - row["start"]) * _US,
                "args": {
                    "frontier": row["frontier"],
                    "busy_sum_s": row["busy_sum"],
                },
            }
        )
        events.append(
            {
                "ph": "C",
                "pid": 0,
                "tid": _TID_ENGINE,
                "name": "frontier",
                "ts": row["start"] * _US,
                "args": {"vertices": row["frontier"]},
            }
        )
    for span in observer.io_spans:
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": _TID_SAFS,
                "cat": "io",
                "name": f"io {span['id']}",
                "ts": span["issue"] * _US,
                "dur": (span["done"] - span["issue"]) * _US,
                "args": {
                    "file_id": span["file_id"],
                    "pages": span["last_page"] - span["first_page"] + 1,
                    "parts": span["parts"],
                    "events": span["events"],
                },
            }
        )
    for span in observer.device_spans:
        tid = _TID_DEVICE_BASE + span["device"]
        if span["device"] not in named_devices:
            named_devices.add(span["device"])
            events.append(_thread_name(tid, span["name"]))
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "cat": "device",
                "name": "recovery" if span["recovery"] else f"io {span['io']}",
                "ts": span["start"] * _US,
                "dur": span["service"] * _US,
                "args": {
                    "pages": span["pages"],
                    "outcome": span["outcome"],
                    "queue_us": (span["start"] - span["arrival"]) * _US,
                },
            }
        )
    if observer.query_spans:
        # Serving runs only: batch traces carry no query events, so
        # their Chrome documents are byte-identical to before.
        events.append(_thread_name(_TID_QUERIES, "queries"))
        for span in observer.query_spans:
            args = {
                key: value
                for key, value in span.items()
                if key not in ("type", "event", "time")
            }
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": _TID_QUERIES,
                    "cat": "query",
                    "name": f"q{span['query']} {span['event']}",
                    "ts": span["time"] * _US,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(observer: Observer, path) -> None:
    """Write :func:`to_chrome` to ``path`` as sorted-key JSON."""
    with open(path, "w") as f:
        json.dump(to_chrome(observer), f, sort_keys=True)
        f.write("\n")
