"""The wave reader: edge-list requests, buffered and read a wave at a time.

Everything a hook requests is read as one wave once the hook returns,
which is the engine's global view for merging (§3.6); requests from the
delivery hook feed the next wave.  A request too large for one wave is
cut into vertex parts (§3.8) that any worker may pick up.  See
``docs/architecture.md``, "The read path".
"""

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from repro.core.messages import check_vertex_ids
from repro.core.partition import split_into_parts
from repro.graph.builder import GraphImage
from repro.graph.format import FORMAT_V2
from repro.graph.page_vertex import (
    DIRECTIONS,
    PageVertexBatch,
    gather_ranges,
    scatter_positions,
)
from repro.graph.types import EdgeType
from repro.obs import registry as reg
from repro.safs.io_request import merge_request_arrays

#: The direction codes one ``request_self`` of each edge type fetches.
_DIRECTION_CODES = {
    edge_type: np.array([DIRECTIONS.index(d) for d in edge_type.directions()])
    for edge_type in EdgeType
}

#: Wave element kinds: an edge list, an edge list that is delivered
#: together with its attribute block, and that attribute block.
_EDGES, _EDGES_WITH_ATTRS, _ATTRS = 0, 1, 2
_KIND_NAMES = ("edges", "edges", "attrs")


@dataclass
class _Wave:
    """One wave of edge-list requests as parallel arrays, a row per element.

    The reader buffers rows in request order; :meth:`WaveReader.read`
    puts every column into delivery order and fills in the delivery
    columns.
    """

    #: The vertex whose ``run_on_vertex`` the row's list is delivered to.
    requesters: np.ndarray
    #: The vertex whose data the row reads.
    targets: np.ndarray
    #: Index into ``DIRECTIONS``.
    dirs: np.ndarray
    #: ``_EDGES``, ``_EDGES_WITH_ATTRS`` or ``_ATTRS``.
    kinds: np.ndarray
    #: Each row's row of the image's list table, ``lane * n + target`` for
    #: lane ``2 * dir + (kind == _ATTRS)`` (``None`` once served).
    rows: Optional[np.ndarray] = None
    #: Neighbors per row (0 for an attribute block) ...
    degrees: Optional[np.ndarray] = None
    #: ... and every row's neighbors, row after row.
    edges: Optional[np.ndarray] = None
    #: When each row's data is in the page cache (``None``: in memory).
    times: Optional[np.ndarray] = None
    #: Compressed bytes each list decodes from (``None`` under format v1).
    decode_sizes: Optional[np.ndarray] = None
    #: Row of the other half of an edges+attrs pair, -1 for a row without
    #: one; the list is delivered once both arrived (``None``: no pairs).
    mate: Optional[np.ndarray] = None

    def take(self, rows: np.ndarray) -> "_Wave":
        """The request columns of ``rows`` (an index or mask), in that order."""
        return _Wave(
            self.requesters[rows], self.targets[rows], self.dirs[rows], self.kinds[rows]
        )


class WaveReader:
    """Owns the wave buffer, the vertex-part queue and the lane-file map."""

    def __init__(self, image: GraphImage, safs, config, stats) -> None:
        self.image = image
        self.safs = safs
        self.config = config
        self.stats = stats
        # Requests issued since the last wave, as chunks of the four
        # request columns of a _Wave plus their list-table rows.
        self._buffer = []
        #: Vertex parts of split requests, for any worker to pick up.
        self.parts: Deque[Tuple[int, np.ndarray, EdgeType, bool]] = deque()
        #: The SAFS file behind each lane of the list table, by id and by
        #: lane (-1: no file); set by :meth:`open_files`.
        self.lane_files: Dict[int, object] = {}
        self.lane_fids: Tuple[int, ...] = ()

    def clear(self) -> None:
        """Drop every buffered request and vertex part."""
        self._buffer.clear()
        self.parts.clear()

    def open_files(self) -> None:
        """Attach the image's files to SAFS unless they are there, and map
        the list table's lanes to their file ids.

        File ids are numbered per SAFS, so the map is the reader's.  An
        undirected image's in-lists are its one edge file.
        """
        image, safs = self.image, self.safs
        name = image.file_name(EdgeType.OUT)
        if name not in safs.file_names():
            image.attach_to_safs(safs)
        elif safs.file_format(name) != image.fmt:
            # A same-named file written under the other layout would parse
            # as garbage; fail fast instead.
            raise ValueError(
                f"SAFS file {name!r} was created as format "
                f"{safs.file_format(name)!r} but the image expects "
                f"{image.fmt!r}"
            )
        files = []
        for direction in DIRECTIONS:
            edges = image.file_name(direction if image.directed else EdgeType.OUT)
            attrs = f"{image.name}.{direction.value}-attrs"
            files.append(safs.open_file(edges))
            files.append(safs.open_file(attrs) if direction in image.attr_offsets else None)
        self.lane_files = {file.file_id: file for file in files if file is not None}
        self.lane_fids = tuple(-1 if file is None else file.file_id for file in files)

    # -- buffering (called by GraphContext) --------------------------------

    def request(
        self, requester: int, targets: np.ndarray, direction: EdgeType, with_attrs: bool = False
    ) -> None:
        """Buffer ``requester``'s request for the ``direction`` lists of
        ``targets``; beyond ``vertical_part_threshold`` targets all but
        the first part wait in :attr:`parts`."""
        if targets.size:
            check_vertex_ids(targets, self.image.num_vertices, "requested vertex")
        threshold = self.config.vertical_part_threshold
        if threshold and targets.size > threshold:
            parts = split_into_parts(requester, targets, self.config.vertical_part_size)
            targets = parts[0].targets
            for part in parts[1:]:
                self.parts.append((requester, part.targets, direction, with_attrs))
        self._append(requester, targets, direction, with_attrs)

    def request_self(self, vertices: np.ndarray, edge_type: EdgeType) -> None:
        """Buffer a whole wave of self-requests from ``run_batch``:
        per-vertex ``request_self`` calls in ``vertices`` order, a vertex's
        directions adjacent."""
        n = self.image.num_vertices
        check_vertex_ids(vertices, n, "requested vertex")
        codes = _DIRECTION_CODES[edge_type]
        lists = vertices.repeat(codes.size)
        dirs = np.empty((vertices.size, codes.size), dtype=np.int64)
        dirs[:] = codes
        dirs = dirs.ravel()
        kinds = np.zeros(lists.size, dtype=np.int64)  # all ``_EDGES``
        self._buffer.append((lists, lists, dirs, kinds, dirs * (2 * n) + lists))

    def next_part(self) -> None:
        """Move the oldest vertex part into the wave buffer."""
        self._append(*self.parts.popleft())
        self.stats.add(reg.ENGINE_VERTEX_PARTS)

    def _append(
        self, requester: int, targets: np.ndarray, direction: EdgeType, with_attrs: bool
    ) -> None:
        """Add one request's edge-list rows — followed, ``with_attrs``, by
        an attribute-block row per target — to the wave buffer."""
        if with_attrs and direction not in self.image.attr_offsets:
            raise ValueError(f"the graph has no {direction.value}-edge attributes")
        code, n = DIRECTIONS.index(direction), self.image.num_vertices
        requesters = np.full(targets.size, requester)
        dirs = np.full(targets.size, code)
        kinds = np.full(targets.size, _EDGES_WITH_ATTRS if with_attrs else _EDGES)
        rows = targets + 2 * code * n
        self._buffer.append((requesters, targets, dirs, kinds, rows))
        if with_attrs:
            self._buffer.append((requesters, targets, dirs, np.full(targets.size, _ATTRS), rows + n))

    # -- reading ------------------------------------------------------------

    def take(self) -> _Wave:
        """Everything buffered so far as one wave."""
        chunks, self._buffer = self._buffer, []
        if len(chunks) == 1:
            return _Wave(*chunks[0])
        return _Wave(*(np.concatenate(column) for column in zip(*chunks)))

    def waves(self, worker):
        """Read buffered waves on ``worker`` until none is left, yielding
        each for delivery; what the delivery buffers is the next wave."""
        while self._buffer:
            wave = self.take()
            if wave.targets.size:
                yield self.read(worker, wave)

    def read(self, worker, wave: _Wave) -> _Wave:
        """Read one wave: its rows in delivery order with their lists.

        Every row of the wave is a row of the image's list table, so one
        gather locates the whole wave.  In memory an attribute block needs
        no read of its own; semi-externally the wave is read through SAFS
        (:meth:`_submit`).  Either way the lists are read in one gather,
        in delivery order, out of the image's one neighbor array
        (:meth:`GraphImage.edge_words`).
        """
        source = self.image.edge_words()
        sizes, degrees, positions = self.image.list_rows()[:, wave.rows]
        if self.safs is not None:
            wave, arrived = self._submit(worker, wave, sizes)
            degrees, positions = degrees[arrived], positions[arrived]
        elif wave.kinds.any():
            keep = (wave.kinds != _ATTRS).nonzero()[0]
            wave, degrees, positions = wave.take(keep), degrees[keep], positions[keep]
        wave.degrees = degrees
        wave.edges = gather_ranges(source, positions, degrees)
        return wave

    def _submit(self, worker, wave: _Wave, sizes: np.ndarray):
        """Merge and issue one wave through SAFS; returns the wave's rows
        in completion order and their indices in ``wave``.

        The wave is keyed by its rows of :meth:`GraphImage.list_keys` and
        merged as arrays — over the whole wave with engine merging,
        within SAFS's bounded queue window or not at all for the two
        Figure 12 counterfactuals — then issued span by span.  Its
        elements complete with their span and are put in the stable
        completion-time order.
        """
        image, safs, config = self.image, self.safs, self.config
        keyed, band = image.list_keys(self.lane_fids, safs.page_size)
        keys, last = keyed[:, wave.rows]
        # A zero-degree vertex's attribute block is empty: nothing to read.
        io = sizes.nonzero()[0]
        if config.merge_in_engine:
            window, kernel_requests = None, 0
        else:
            window = safs.config.fs_merge_window if config.merge_in_fs else 1
            kernel_requests = io.size
        spans = merge_request_arrays(keys[io], last[io], safs.page_size, band, window=window)
        span_done, cpu, span_issued, io_ids = safs.submit_spans(
            spans, self.lane_files, worker.time, kernel_requests
        )
        worker.time += cpu
        worker.busy += cpu
        self.stats.add(reg.ENGINE_IO_REQUESTS, io.size)

        part_done = span_done[spans.span_of_part]
        by_completion = part_done.argsort(kind="stable")
        arrived = io[spans.order[by_completion]]
        mate = None
        if wave.kinds.any():
            # The k-th list requested with attributes pairs with the k-th
            # attribute block; a block that was read is a row of its own.
            row = np.full(wave.targets.size, -1, dtype=np.int64)
            row[arrived] = np.arange(arrived.size)
            lists = row[wave.kinds == _EDGES_WITH_ATTRS]
            blocks = row[wave.kinds == _ATTRS]
            read = blocks >= 0
            mate = np.full(arrived.size, -1, dtype=np.int64)
            mate[lists[read]] = blocks[read]
            mate[blocks[read]] = lists[read]

        wave = wave.take(arrived)
        wave.mate = mate
        wave.times = part_done[by_completion]
        if io_ids is not None:
            span = spans.span_of_part[by_completion].tolist()
            issued = span_issued.tolist()
            safs.obs.request_events_batch(
                wave.requesters.tolist(),
                wave.targets.tolist(),
                [DIRECTIONS[code] for code in wave.dirs.tolist()],
                [_KIND_NAMES[kind] for kind in wave.kinds.tolist()],
                [io_ids[s] for s in span],
                [issued[s] for s in span],
                wave.times.tolist(),
            )

        # Attribute rows ride along: their degree is 0.
        if image.fmt == FORMAT_V2:
            wave.decode_sizes = sizes[arrived] * (wave.kinds != _ATTRS)
        return wave, arrived

    def lists(self, wave: _Wave):
        """A read wave as the lists ``run_on_vertices`` is handed:
        ``(batch, times, decode sizes)``, one row per list.

        A list requested with attributes is delivered once its attribute
        block arrived too, with its attributes laid out beside its edges.
        """
        if wave.decode_sizes is not None:
            self.stats.add(reg.GRAPH_DECODE_BYTES, int(wave.decode_sizes.sum()))
        self.stats.add(reg.ENGINE_EDGES_DELIVERED, int(wave.edges.size))
        times, sizes, degrees, edges = wave.times, wave.decode_sizes, wave.degrees, wave.edges
        if wave.mate is not None:
            # Rows whose pair is complete; an attribute row stands for its list.
            at = np.flatnonzero(wave.mate < np.arange(wave.mate.size))
            rows = np.where(wave.kinds[at] == _ATTRS, wave.mate[at], at)
            times = times[at]
            edges = gather_ranges(edges, (np.cumsum(degrees) - degrees)[rows], degrees[rows])
            degrees = degrees[rows]
            if sizes is not None:
                sizes = sizes[rows]
            wave = wave.take(rows)
        batch = PageVertexBatch(
            wave.requesters, wave.targets, wave.dirs, degrees, edges,
            *self._attrs_of(wave.targets, wave.dirs, wave.kinds, degrees),
        )
        return batch, times, sizes

    def _attrs_of(self, owners, dirs, kinds, degrees):
        """Which lists were requested with attributes, and those lists'
        attributes (one float32 per edge) laid out beside their edges,
        NaN elsewhere; ``(None, None)`` when none was."""
        has_attrs = kinds == _EDGES_WITH_ATTRS
        if not has_attrs.any():
            return None, None
        starts = np.cumsum(degrees) - degrees
        attrs = np.full(int(degrees.sum()), np.nan, dtype=np.float32)
        # Each list's attribute block: its row in the attribute lane.
        first = self.image.list_rows()[2, (2 * dirs + 1) * self.image.num_vertices + owners]
        for code, direction in enumerate(DIRECTIONS):
            lane = has_attrs & (dirs == code)
            if lane.any():
                values = np.frombuffer(self.image.attr_bytes[direction], dtype="<f4")
                attrs[scatter_positions(starts[lane], degrees[lane])] = gather_ranges(
                    values, first[lane], degrees[lane]
                )
        return has_attrs, attrs
