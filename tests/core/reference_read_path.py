"""Reference semi-external read path: the oracle the list-table path of
``WaveReader.read`` is tested against.

The wave is located lane by lane — per (direction, kind) lane a mask,
a file opened by name, one ``GraphIndex.locate_many`` and one
``degrees_of`` — merged with a two-key ``lexsort`` per window, and its
lists read lane by lane out of each file's own bytes, then scattered
together.  It is slow and obviously canonical: the engine must issue the
same spans and deliver the same rows, byte for byte.  The one departure
from the lane-by-lane original is that an undirected image's in-lists
come from its one edge file, as they do in memory.
"""

from typing import Optional, Tuple

import numpy as np

from repro.core.reader import _ATTRS, _EDGES_WITH_ATTRS, _Wave
from repro.graph.format import (
    FORMAT_V2,
    HEADER_BYTES,
    decode_lists_v2,
    gather_ranges,
    scatter_positions,
)
from repro.graph.page_vertex import DIRECTIONS
from repro.graph.types import EdgeType
from repro.safs.io_request import MergedSpans


def reference_merge(
    file_ids: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    page_size: int,
    adjacency_gap: int = 1,
    window: Optional[int] = None,
) -> MergedSpans:
    """The conservative merge with one ``(file, offset)`` lexsort per
    window and an explicit break at every file change."""
    n = offsets.size
    empty = np.zeros(0, dtype=np.int64)
    if n == 0:
        return MergedSpans(empty, empty, empty.copy(), empty.copy(), empty.copy())
    starts = [0, n] if window is None or window >= n else list(range(0, n, window)) + [n]
    columns = [[] for _ in range(5)]
    span_base = 0
    for lo, hi in zip(starts[:-1], starts[1:]):
        order = np.lexsort((offsets[lo:hi], file_ids[lo:hi])) + lo
        first = offsets[order] // page_size
        last = (offsets[order] + lengths[order] - 1) // page_size
        fids = file_ids[order]
        stride = int(last.max()) + adjacency_gap + 2
        lift = fids * stride
        cummax = np.maximum.accumulate(last + lift)
        breaks = np.empty(order.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = (fids[1:] != fids[:-1]) | (
            first[1:] + lift[1:] > cummax[:-1] + adjacency_gap
        )
        span_starts = np.nonzero(breaks)[0]
        for column, values in zip(columns, (
            fids[span_starts],
            first[span_starts],
            np.maximum.reduceat(last, span_starts),
            order,
            span_base + np.cumsum(breaks) - 1,
        )):
            column.append(values)
        span_base += span_starts.size
    return MergedSpans(*(np.concatenate(column) for column in columns))


def reference_service(engine, worker, wave: _Wave) -> Tuple[MergedSpans, _Wave]:
    """Locate, merge, issue and read one wave the lane-by-lane way;
    returns the merged spans and the wave as it would be delivered."""
    image, safs, config = engine.image, engine.safs, engine.config
    compressed = image.fmt == FORMAT_V2
    n = wave.targets.size
    file_ids = np.empty(n, dtype=np.int64)
    offsets = np.empty(n, dtype=np.int64)
    sizes = np.empty(n, dtype=np.int64)
    degrees = np.zeros(n, dtype=np.int64)
    files, edge_files = {}, {}
    lane_of = 2 * wave.dirs + (wave.kinds == _ATTRS)
    for lane in sorted(set(lane_of.tolist())):
        direction = DIRECTIONS[lane // 2]
        mask = lane_of == lane
        targets = wave.targets[mask]
        if lane % 2:
            file = safs.open_file(f"{image.name}.{direction.value}-attrs")
            blocks = image.attr_offsets[direction]
            offsets[mask] = blocks[targets]
            sizes[mask] = blocks[targets + 1] - blocks[targets]
        else:
            stored = direction if image.directed else EdgeType.OUT
            file = edge_files[lane // 2] = safs.open_file(image.file_name(stored))
            index = image.index(direction)
            offsets[mask], sizes[mask] = index.locate_many(targets)
            degrees[mask] = index.degrees_of(targets)
        files[file.file_id] = file
        file_ids[mask] = file.file_id

    io = np.flatnonzero(sizes)
    if config.merge_in_engine:
        window, kernel_requests = None, 0
    else:
        window = safs.config.fs_merge_window if config.merge_in_fs else 1
        kernel_requests = io.size
    spans = reference_merge(
        file_ids[io], offsets[io], sizes[io], safs.page_size, window=window
    )
    span_done, cpu, _, _ = safs.submit_spans(spans, files, worker.time, kernel_requests)
    worker.time += cpu
    worker.busy += cpu

    part_done = span_done[spans.span_of_part]
    by_completion = np.argsort(part_done, kind="stable")
    arrived = io[spans.order[by_completion]]
    mate = None
    if wave.kinds.any():
        row = np.full(n, -1, dtype=np.int64)
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
    wave.degrees = degrees = degrees[arrived]
    offsets = offsets[arrived]
    starts = np.zeros(degrees.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=starts[1:])
    wave.edges = np.empty(int(degrees.sum()), dtype=np.uint32)
    for code, file in edge_files.items():
        # Attribute rows ride along: their degree is 0.
        lane = wave.dirs == code
        data = file.read(0, file.size)
        if compressed:
            lists = decode_lists_v2(np.frombuffer(data, np.uint8), offsets[lane], degrees[lane])
        else:
            first = offsets[lane] // 4 + HEADER_BYTES // 4
            lists = gather_ranges(np.frombuffer(data, "<u4"), first, degrees[lane])
        wave.edges[scatter_positions(starts[lane], degrees[lane])] = lists
    if compressed:
        wave.decode_sizes = sizes[arrived] * (wave.kinds != _ATTRS)
    return spans, wave
