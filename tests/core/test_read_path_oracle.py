"""The wave reader, row for row against the lane-by-lane semi-external
reference (``tests/core/reference_read_path.py``).

``golden_read_path.json`` pins the simulated numbers a wave produces;
these properties pin the wave itself.  One wave is buffered into two
identically built engines: one serves it through the image's list table,
the other through the reference.  Both must issue the same merged spans
(files, pages, order, part-to-span map) and deliver the same rows
(requesters, targets, degrees, edges, completion times, attribute
pairing, decode sizes) — over out-, in- and both-direction requests,
attribute reads, duplicate targets, zero-degree vertices, directed and
undirected images, formats v1 and v2 and all three merge disciplines.
An in-memory engine, served the same wave, must hand the program the
reference's lists with their attributes, in request order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine, _Worker
from repro.core.reader import _ATTRS, _EDGES_WITH_ATTRS, _Wave
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed, build_undirected
from repro.graph.page_vertex import DIRECTIONS
from repro.graph.types import EdgeType
from repro.safs.filesystem import SAFS, SAFSConfig
from tests.core.reference_read_path import reference_service

MERGES = {
    "engine": dict(merge_in_engine=True),
    "fs": dict(merge_in_engine=False, merge_in_fs=True),
    "none": dict(merge_in_engine=False, merge_in_fs=False),
}

#: Small pages and a small window, so waves span pages and windows.
SAFS_CONFIG = SAFSConfig(page_size=128, fs_merge_window=4)


def _engine(image, merge, attach=None) -> GraphEngine:
    """A one-thread engine: in memory for ``merge=None``, else semi-external
    over a fresh SAFS; ``attach(safs)`` creates the files first when given."""
    if merge is None:
        return GraphEngine(image, config=EngineConfig(mode=ExecutionMode.IN_MEMORY, num_threads=1))
    safs = SAFS(config=SAFS_CONFIG)
    if attach is not None:
        attach(safs)
    config = EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=1, **MERGES[merge])
    engine = GraphEngine(image, safs=safs, config=config)
    engine.reader.open_files()
    return engine


def _wave(engine, requests) -> _Wave:
    """Buffer ``requests`` the way the context calls do and return them
    as the one wave the engine would service next."""
    for request in requests:
        if request[0] == "self":
            engine.reader.request_self(np.asarray(request[1], dtype=np.int64), request[2])
            continue
        _, requester, targets, edge_type, with_attrs = request
        for direction in edge_type.directions():
            engine.reader.request(
                requester, np.asarray(targets, dtype=np.int64), direction, with_attrs
            )
    return engine.reader.take()


def _served(engine, wave):
    """The spans the list-table path issues for ``wave`` and the wave it
    delivers."""
    spans = []
    submit = engine.safs.submit_spans

    def record(merged, *args):
        spans.append(merged)
        return submit(merged, *args)

    engine.safs.submit_spans = record
    delivered = engine.reader.read(_Worker(0), wave)
    return spans[0], delivered


def _assert_same(got, want) -> None:
    for name in ("file_ids", "first_pages", "last_pages", "order", "span_of_part"):
        np.testing.assert_array_equal(getattr(got[0], name), getattr(want[0], name), err_msg=name)
    for name in (
        "requesters", "targets", "dirs", "kinds", "degrees", "edges", "times",
        "decode_sizes", "mate",
    ):
        a, b = getattr(got[1], name), getattr(want[1], name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


class _Recorder(VertexProgram):
    """Keeps every list ``run_on_vertices`` is handed, as a row tuple
    ``(requester, target, direction, edges, attributes or None)``."""

    def __init__(self):
        self.rows = []

    def run_on_vertices(self, g, batch):
        edges = batch.read_edges_concat()
        has_attrs = [False] * batch.num_lists if batch.has_attrs is None else batch.has_attrs
        start = 0
        for i, end in enumerate(np.cumsum(batch.degrees).tolist()):
            attrs = batch.read_edge_attrs_concat()[start:end].tobytes() if has_attrs[i] else None
            self.rows.append((
                int(batch.vertices[i]), int(batch.owners[i]), int(batch.directions[i]),
                edges[start:end].tobytes(), attrs,
            ))
            start = end


def _reference_rows(image, wave) -> list:
    """The lists of a reference-served wave as :class:`_Recorder` rows,
    each list's attributes read through its CSR's ``indptr``."""
    rows, start = [], 0
    for i, end in enumerate(np.cumsum(wave.degrees).tolist()):
        direction = DIRECTIONS[wave.dirs[i]]
        attrs = None
        if wave.kinds[i] == _EDGES_WITH_ATTRS:
            first = image.csr(direction).indptr[wave.targets[i]]
            values = np.frombuffer(image.attr_bytes[direction], dtype="<f4")
            attrs = values[first : first + end - start].tobytes()
        if wave.kinds[i] != _ATTRS:
            rows.append((
                int(wave.requesters[i]), int(wave.targets[i]), int(wave.dirs[i]),
                wave.edges[start:end].tobytes(), attrs,
            ))
        start = end
    return rows


def _check(image, merge, requests, attach=None):
    """Serve ``requests`` both ways and compare; returns the spans.  An
    in-memory engine delivers the reference's lists in request order."""
    engine = _engine(image, merge, attach)
    oracle = _engine(image, merge, attach)
    got = _served(engine, _wave(engine, requests))
    want = reference_service(oracle, _Worker(0), _wave(oracle, requests))
    _assert_same(got, want)

    memory = _engine(image, None)
    memory.program = _Recorder()
    wave = _wave(memory, requests)
    memory._deliver_wave(_Worker(0), memory.reader.read(_Worker(0), wave))
    rows = memory.program.rows
    lists = wave.kinds != _ATTRS
    assert [row[:3] for row in rows] == list(zip(
        wave.requesters[lists].tolist(), wave.targets[lists].tolist(), wave.dirs[lists].tolist()
    ))
    assert sorted(rows, key=repr) == sorted(_reference_rows(image, want[1]), key=repr)
    return got[0]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=150))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.arange(edges.shape[0], dtype=np.float64) + 0.5
    directed = draw(st.booleans())
    build = build_directed if directed else build_undirected
    image = build(edges, n, name="g", weights=weights, fmt=draw(st.sampled_from(["v1", "v2"])))
    targets = st.lists(vertex, min_size=1, max_size=12)  # duplicates allowed
    edge_type = st.sampled_from(list(EdgeType))
    request = st.one_of(
        st.tuples(st.just("self"), targets, edge_type),
        st.tuples(st.just("vertices"), vertex, targets, edge_type, st.just(False)),
        # Only out-lists carry attributes.
        st.tuples(st.just("vertices"), vertex, targets, st.just(EdgeType.OUT), st.just(True)),
    )
    requests = draw(st.lists(request, min_size=1, max_size=6))
    return image, draw(st.sampled_from(list(MERGES))), requests


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_list_table_path_matches_lane_by_lane_reference(case):
    _check(*case)


@pytest.mark.parametrize("fmt", ["v1", "v2"])
@pytest.mark.parametrize("merge", list(MERGES))
def test_file_ids_out_of_lane_order(fmt, merge):
    """Spans follow file ids, not lanes: here another image's files come
    first and this image's files were created against lane order.  The
    image is served alternately through that stack and a plainly attached
    one, whose ids run the other way: its list table, banded by file id,
    must follow whichever stack reads it."""
    ring = np.column_stack((np.arange(48), (np.arange(48) * 7 + 1) % 48))
    image = build_directed(ring, 48, name="g", weights=np.ones(48), fmt=fmt)
    other = build_directed(ring[::-1], 48, name="other", fmt=fmt)

    def attach(safs):
        other.attach_to_safs(safs)
        safs.create_file(image.file_name(EdgeType.IN), image.in_bytes, fmt=fmt)
        safs.create_file("g.out-attrs", image.attr_bytes[EdgeType.OUT])
        safs.create_file(image.file_name(EdgeType.OUT), image.out_bytes, fmt=fmt)

    requests = [
        ("self", np.arange(0, 48, 3), EdgeType.BOTH),
        ("vertices", 5, np.arange(40, 8, -2), EdgeType.OUT, True),
    ]
    fids = list(_engine(image, merge, attach).reader.lane_fids)
    # out-edges, out-attrs, in-edges, in-attrs: ids descend over the lanes.
    assert fids == [4, 3, 2, -1]
    assert list(_engine(image, merge).reader.lane_fids) == [0, 2, 1, -1]
    spans = [_check(image, merge, requests, stack) for stack in (attach, None, attach, None)]
    assert set(spans[0].file_ids.tolist()) == {2, 3, 4}
    assert set(spans[1].file_ids.tolist()) == {0, 1, 2}
    for a, b in zip(spans, spans[2:]):
        np.testing.assert_array_equal(a.file_ids, b.file_ids)
