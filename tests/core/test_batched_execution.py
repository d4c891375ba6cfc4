"""Batched-vs-scalar engine equivalence.

Stripping the batch hooks off a program must leave every simulated number
— worker clocks included — bit-identical, across execution modes and
merge disciplines (the non-engine-merge discipline exercises the
expansion fallback rather than the array fast path).
"""

import numpy as np
import pytest

from repro.algorithms.kcore import KCoreProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.wcc import WCCProgram
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import rmat_graph

SCALE = 9


def _image(undirected=False):
    edges, num_vertices = rmat_graph(SCALE, edge_factor=8, seed=7)
    if undirected:
        return build_undirected(edges, num_vertices, name="tiny-u")
    return build_directed(edges, num_vertices, name="tiny")


def _strip_batch_hooks(program):
    program.run_batch = None
    program.run_on_vertices = None
    program.run_on_messages = None
    return program


def _make_program(name, image):
    if name == "pr":
        return PageRankProgram(image.num_vertices)
    if name == "wcc":
        return WCCProgram(image.num_vertices)
    degrees = image.out_csr.degrees().astype(np.int64)
    return KCoreProgram(image.num_vertices, 4, degrees)


def _run(name, image, mode, merge_in_engine, batched):
    config = EngineConfig(
        mode=mode, num_threads=4, merge_in_engine=merge_in_engine
    )
    engine = GraphEngine(image, config=config)
    program = _make_program(name, image)
    if not batched:
        _strip_batch_hooks(program)
    result = engine.run(program, max_iterations=10)
    return result, program


def _state_of(name, program):
    if name == "pr":
        return program.rank + program.pending
    if name == "wcc":
        return program.component
    return program.alive


@pytest.mark.parametrize("name", ["pr", "wcc", "kcore"])
@pytest.mark.parametrize(
    "mode,merge_in_engine",
    [
        (ExecutionMode.SEMI_EXTERNAL, True),
        (ExecutionMode.SEMI_EXTERNAL, False),
        (ExecutionMode.IN_MEMORY, True),
    ],
)
def test_batched_equals_scalar(name, mode, merge_in_engine):
    image = _image(undirected=(name == "kcore"))
    scalar_result, scalar_program = _run(name, image, mode, merge_in_engine, False)
    batched_result, batched_program = _run(name, image, mode, merge_in_engine, True)

    assert batched_result.runtime == scalar_result.runtime
    assert batched_result.cpu_busy == scalar_result.cpu_busy
    assert batched_result.iterations == scalar_result.iterations
    assert batched_result.bytes_read == scalar_result.bytes_read
    assert batched_result.counters == scalar_result.counters
    np.testing.assert_array_equal(
        _state_of(name, batched_program), _state_of(name, scalar_program)
    )
