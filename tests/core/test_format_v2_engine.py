"""Format v1 vs v2 through the live engine.

The compressed format may change only what moves over the simulated SSDs:
algorithm state must be bit-identical between formats, bytes_read must
drop, and the decode counters must appear in v2 runs only — a v1 run's
counter stream stays exactly the legacy stream.
"""

import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.wcc import WCCProgram
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.graph import format as graph_format
from repro.graph.builder import GraphImage, _build_direction, build_directed
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import rmat_graph
from repro.obs import registry as reg
from repro.safs.filesystem import SAFS

from tests.conftest import scalar_hooks_only

SCALE = 9


def _image(fmt):
    edges, num_vertices = rmat_graph(SCALE, edge_factor=8, seed=7)
    return build_directed(edges, num_vertices, name="tiny", fmt=fmt)


def _make_program(name, image):
    if name == "pr":
        return PageRankProgram(image.num_vertices)
    return WCCProgram(image.num_vertices)


def _state_of(name, program):
    if name == "pr":
        return program.rank + program.pending
    return program.component


def _run(name, fmt, batched=True):
    image = _image(fmt)
    engine = GraphEngine(
        image,
        config=EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4),
    )
    program = _make_program(name, image)
    with nullcontext() if batched else scalar_hooks_only(type(program)):
        result = engine.run(program, max_iterations=8)
    return result, program


@pytest.mark.parametrize("name", ["pr", "wcc"])
def test_v2_identical_results_fewer_bytes(name):
    v1_result, v1_program = _run(name, FORMAT_V1)
    v2_result, v2_program = _run(name, FORMAT_V2)
    assert np.array_equal(_state_of(name, v1_program), _state_of(name, v2_program))
    assert v1_result.iterations == v2_result.iterations
    assert v2_result.bytes_read < v1_result.bytes_read
    assert v2_result.cache_hit_rate >= v1_result.cache_hit_rate


@pytest.mark.parametrize("name", ["pr", "wcc"])
def test_decode_counters_only_under_v2(name):
    v1_result, _ = _run(name, FORMAT_V1)
    v2_result, _ = _run(name, FORMAT_V2)
    assert reg.GRAPH_DECODE_BYTES not in v1_result.counters
    assert reg.GRAPH_COMPRESSION_RATIO not in v1_result.counters
    assert v2_result.counters[reg.GRAPH_DECODE_BYTES] > 0
    assert v2_result.counters[reg.GRAPH_COMPRESSION_RATIO] > 1.0


@pytest.mark.parametrize("name", ["pr", "wcc"])
def test_v2_scalar_equals_batched(name):
    # The batched delivery replays charges (send, run, decode) in the
    # scalar order, so stripping the batch hooks must not move a clock.
    batched_result, batched_program = _run(name, FORMAT_V2, batched=True)
    scalar_result, scalar_program = _run(name, FORMAT_V2, batched=False)
    assert np.array_equal(
        _state_of(name, batched_program), _state_of(name, scalar_program)
    )
    assert batched_result.runtime == scalar_result.runtime
    assert batched_result.bytes_read == scalar_result.bytes_read
    assert (
        batched_result.counters[reg.GRAPH_DECODE_BYTES]
        == scalar_result.counters[reg.GRAPH_DECODE_BYTES]
    )


def test_decode_bytes_equal_compressed_file_bytes_delivered():
    # In PageRank's first iteration every vertex with out-edges requests
    # its own edge list exactly once, so the decoded bytes of a
    # one-iteration run equal the compressed file minus the header-only
    # lists of degree-0 vertices.
    image = _image(FORMAT_V2)
    engine = GraphEngine(
        image,
        config=EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4),
    )
    result = engine.run(PageRankProgram(image.num_vertices), max_iterations=1)
    degrees = image.out_csr.degrees()
    skipped_headers = 8 * int(np.count_nonzero(degrees == 0))
    assert (
        result.counters[reg.GRAPH_DECODE_BYTES]
        == len(image.out_bytes) - skipped_headers
    )


def test_format_mismatch_on_attach_rejected():
    # Attaching a v2 image to a SAFS that already holds the same file
    # names in v1 layout must fail fast, not decode garbage.
    v1_image = _image(FORMAT_V1)
    engine = GraphEngine(
        v1_image,
        config=EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4),
    )
    engine.run(_make_program("wcc", v1_image), max_iterations=1)
    v2_image = _image(FORMAT_V2)
    clash = GraphEngine(
        v2_image,
        safs=engine.safs,
        config=EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4),
    )
    with pytest.raises(ValueError, match="format"):
        clash.run(_make_program("wcc", v2_image), max_iterations=1)


@pytest.fixture()
def decode_calls(monkeypatch):
    """Calls of ``decode_lists_v2`` under every name a ``repro`` module
    binds it to, so a caller in any module is counted."""
    calls = []
    original = graph_format.decode_lists_v2

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _sem_engine(image, safs=None):
    config = EngineConfig(mode=ExecutionMode.SEMI_EXTERNAL, num_threads=4)
    return GraphEngine(image, safs=safs, config=config)


def test_v2_image_is_decoded_once(decode_calls):
    """The first wave checks the image's files; no later wave, run, SAFS
    stack or execution mode decodes them again."""
    image = _image(FORMAT_V2)
    first = _sem_engine(image)
    levels, _ = bfs(first)
    assert decode_calls
    decode_calls.clear()
    again, _ = bfs(_sem_engine(image))
    assert not decode_calls
    # Another image's files first: this image's files get other ids.
    safs = SAFS()
    build_directed(np.array([[0, 1]]), 2, name="first", fmt=FORMAT_V2).attach_to_safs(safs)
    second = _sem_engine(image, safs)
    other, _ = bfs(second)
    assert not decode_calls
    ids_a, ids_b = first.reader.lane_fids, second.reader.lane_fids
    assert ids_a != ids_b
    in_memory, _ = bfs(_engine(image, ExecutionMode.IN_MEMORY))
    assert not decode_calls
    np.testing.assert_array_equal(levels, again)
    np.testing.assert_array_equal(levels, other)
    np.testing.assert_array_equal(levels, in_memory)


def test_v1_image_is_never_decoded(decode_calls):
    image = _image(FORMAT_V1)
    bfs(_sem_engine(image))
    bfs(_sem_engine(image))
    assert not decode_calls


def _corrupt_image(indices, byte, value):
    """An undirected v2 image of the lists ``[indices[0:2], indices[2:3],
    []]`` whose file has byte ``byte`` of vertex 0's list set to
    ``value``; its CSR keeps ``indices``."""
    indptr = np.array([0, 2, 3, 3])
    csr, data, index = _build_direction(indptr, np.array(indices, dtype=np.uint32), FORMAT_V2)
    data = bytearray(data)
    data[index.locate(0)[0] + byte] = value
    data = bytes(data)
    return GraphImage(
        name="corrupt", num_vertices=3, directed=False,
        out_csr=csr, in_csr=csr, out_bytes=data, in_bytes=data,
        out_index=index, in_index=index, edge_count=3, fmt=FORMAT_V2,
    )


def _engine(image, mode):
    return GraphEngine(image, config=EngineConfig(mode=mode, num_threads=4))


#: BFS sources and execution modes; the semi-external cases keep the ids
#: they had before the in-memory ones were added.
FIRST_WAVE_CASES = [
    pytest.param(0, ExecutionMode.SEMI_EXTERNAL, id="0"),
    pytest.param(1, ExecutionMode.SEMI_EXTERNAL, id="1"),
    pytest.param(0, ExecutionMode.IN_MEMORY, id="in-memory-0"),
    pytest.param(1, ExecutionMode.IN_MEMORY, id="in-memory-1"),
]


@pytest.mark.parametrize("source, mode", FIRST_WAVE_CASES)
def test_u32_overflow_raises_at_the_first_wave(source, mode):
    """Vertex 0's first delta grows by one, so its second neighbor id
    passes 2**32 - 1.  The check decodes every list of the file, so the
    first wave raises whichever list it reads, in either mode."""
    # The tag byte, then the first delta: 1 -> 2, so 2 + (2**32 - 2).
    image = _corrupt_image([1, 0xFFFFFFFF, 0], 9, 2)
    engine = _engine(image, mode)
    with pytest.raises(ValueError, match="corrupt v2 edge list"):
        bfs(engine, source=source)
    assert engine.stats.get(reg.ENGINE_EDGES_DELIVERED) == 0


@pytest.mark.parametrize("source, mode", FIRST_WAVE_CASES)
def test_in_range_mismatch_raises_at_the_first_wave(source, mode):
    """Vertex 0's second delta drops from 1 to 0, so its list decodes to
    ``[1, 1]``, every id a vertex, where the image holds ``[1, 2]``.  The
    check compares the decode with the image's neighbors, so neither mode
    delivers either list."""
    image = _corrupt_image([1, 2, 0], 10, 0)
    engine = _engine(image, mode)
    with pytest.raises(ValueError, match="corrupt v2 edge list"):
        bfs(engine, source=source)
    assert engine.stats.get(reg.ENGINE_EDGES_DELIVERED) == 0
