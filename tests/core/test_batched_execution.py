"""Batched-vs-scalar engine equivalence.

Replacing a program's batch hooks with the defaults (which loop over the
scalar hooks) must leave every simulated number — worker clocks included
— bit-identical, across execution modes and merge disciplines (the
non-engine-merge discipline exercises the expansion fallback rather than
the array fast path).
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bc import _BackwardProgram, _ForwardProgram, betweenness_centrality
from repro.algorithms.bfs import BFSProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.sssp import SSSPProgram
from repro.algorithms.wcc import WCCProgram
from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.graph.builder import build_directed
from repro.graph.format import FORMAT_V1, FORMAT_V2
from repro.graph.generators import rmat_graph

from tests.conftest import scalar_hooks_only

SCALE = 9

SCALAR_HOOKS = ("run", "run_on_vertex", "run_on_message")

#: name -> (program classes a run instantiates, state arrays compared).
PROGRAMS = {
    "pr": ((PageRankProgram,), ("rank", "pending")),
    "wcc": ((WCCProgram,), ("component",)),
    "bfs": ((BFSProgram,), ("visited", "level")),
    "bc": ((_ForwardProgram, _BackwardProgram), ()),
    "sssp": ((SSSPProgram,), ("dist", "_announced")),
}
TRAVERSALS = ("bfs", "bc", "sssp")

MODES = [
    (ExecutionMode.SEMI_EXTERNAL, True),
    (ExecutionMode.SEMI_EXTERNAL, False),
    (ExecutionMode.IN_MEMORY, True),
]


def _image(name, fmt=FORMAT_V1):
    edges, num_vertices = rmat_graph(SCALE, edge_factor=8, seed=7)
    weights = None
    if name == "sssp":
        weights = np.random.default_rng(7).uniform(0.5, 4.0, len(edges)).astype(np.float32)
    return build_directed(edges, num_vertices, name="tiny", weights=weights, fmt=fmt)


def _execute(name, engine, source):
    """Run ``name``; returns ``(result, {state name: array})``."""
    image = engine.image
    if name == "bc":
        # Through the library entry point: both sweeps, and the hand-over
        # of ``dist`` / ``sigma`` between them, are what is compared.
        delta, result = betweenness_centrality(engine, source)
        return result, {"delta": delta}
    if name == "pr":
        program = PageRankProgram(image.num_vertices)
    elif name == "wcc":
        program = WCCProgram(image.num_vertices)
    elif name == "bfs":
        program = BFSProgram(image.num_vertices)
    else:
        program = SSSPProgram(image.num_vertices, source)
    if name in TRAVERSALS:
        result = engine.run(program, initial_active=np.asarray([source]))
    else:
        result = engine.run(program, max_iterations=10)
    return result, {field: getattr(program, field) for field in PROGRAMS[name][1]}


def _run(name, image, mode, merge_in_engine, batched, source=None, num_threads=4):
    """One run with the native batch hooks, or with the scalar hooks only
    (each program's definition, hence the oracle).  Traversals start at
    ``source``, by default the largest hub."""
    if source is None:
        source = int(np.argmax(image.out_csr.degrees()))
    config = EngineConfig(
        mode=mode, num_threads=num_threads, merge_in_engine=merge_in_engine
    )
    engine = GraphEngine(image, config=config)
    with nullcontext() if batched else scalar_hooks_only(*PROGRAMS[name][0]):
        result, state = _execute(name, engine, source)
    clocks = [(w.time, w.busy) for w in engine._workers]
    return result, state, clocks


def _assert_identical(scalar, batched):
    scalar_result, scalar_state, scalar_clocks = scalar
    batched_result, batched_state, batched_clocks = batched
    assert batched_result.runtime == scalar_result.runtime
    assert batched_result.cpu_busy == scalar_result.cpu_busy
    assert batched_result.iterations == scalar_result.iterations
    assert batched_result.bytes_read == scalar_result.bytes_read
    assert batched_result.counters == scalar_result.counters
    assert batched_clocks == scalar_clocks
    assert batched_state.keys() == scalar_state.keys()
    for field, expected in scalar_state.items():
        np.testing.assert_array_equal(batched_state[field], expected, err_msg=field)


@pytest.mark.parametrize(
    "name",
    ["pr", "wcc"]
    + [f"{name}-{fmt}" for name in TRAVERSALS for fmt in (FORMAT_V1, FORMAT_V2)],
)
@pytest.mark.parametrize("mode,merge_in_engine", MODES)
def test_batched_equals_scalar(name, mode, merge_in_engine):
    name, _, fmt = name.partition("-")
    image = _image(name, fmt or FORMAT_V1)
    _assert_identical(
        _run(name, image, mode, merge_in_engine, False),
        _run(name, image, mode, merge_in_engine, True),
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=48),
    density=st.floats(min_value=0.2, max_value=3.0),
    num_threads=st.sampled_from([1, 2, 5]),
    name=st.sampled_from(["bfs", "bc"]),
    fmt=st.sampled_from([FORMAT_V1, FORMAT_V2]),
)
@settings(max_examples=40, deadline=None)
def test_traversals_batched_equal_scalar_on_random_digraphs(
    seed, n, density, num_threads, name, fmt
):
    # Sparse random digraphs hold what the R-MAT fixture does not:
    # isolated vertices, self-loops, sources with no out-edges and
    # components the source cannot reach.
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(max(1, int(n * density)), 2), dtype=np.int64)
    image = build_directed(edges, n, name=f"prop{seed}", fmt=fmt)
    source = int(rng.integers(0, n))
    mode = ExecutionMode.SEMI_EXTERNAL
    _assert_identical(
        _run(name, image, mode, True, False, source, num_threads),
        _run(name, image, mode, True, True, source, num_threads),
    )


@pytest.mark.parametrize("name", ["bfs", "bc"])
def test_traversals_take_the_batch_path(name, monkeypatch):
    # With the hooks on, a SEM run never enters a scalar hook.
    calls = []
    for cls in PROGRAMS[name][0]:
        for hook in SCALAR_HOOKS:
            monkeypatch.setattr(
                cls, hook, lambda *args, _hook=f"{cls.__name__}.{hook}": calls.append(_hook)
            )
    image = _image(name)
    result, _, _ = _run(name, image, ExecutionMode.SEMI_EXTERNAL, True, True)
    assert calls == []
    assert result.iterations > 2
    assert result.counters["engine.edges_delivered"] > 0
