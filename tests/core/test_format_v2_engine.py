"""Format v1 vs v2 through the live engine.

The compressed format may change only what moves over the simulated SSDs:
algorithm state must be bit-identical between formats, bytes_read must
drop, and the decode counters must appear in v2 runs only — a v1 run's
counter stream stays exactly the legacy stream.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.wcc import WCCProgram
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.graph.builder import build_directed
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import rmat_graph
from repro.obs import registry as reg

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
