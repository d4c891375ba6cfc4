"""Host-memory budgets of the edge generators and the image builder.

tracemalloc's peak (numpy reports its array buffers to it) over one call,
divided by the edges that call handles: raw edges for a generator, whose
peak includes the ``(m, 2)`` int64 result it returns (16 B per edge);
distinct edges for a build, whose input was allocated before tracing
began and so is not counted.  The ratios do not depend on scale, so small
graphs stand in for the benchmark's.  The ceilings hold the stages to
in-place arithmetic on temporaries at their narrowest exact width; the
int64 per-edge scatter encoders they replaced peaked at 114 B
(``build_directed`` v2) and 211 B (``build_undirected`` v2) per edge,
and ``page_sim`` at 92 B per raw edge.
"""

import tracemalloc

import pytest

from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import page_sim, twitter_sim

GENERATORS = {
    "page_sim": lambda: page_sim(1 << 13),
    "rmat": lambda: twitter_sim(11),
}


def _peak_bytes(call):
    """``(result, peak bytes allocated during call())``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def graph(request):
    return GENERATORS[request.param]()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generation_peak(name):
    (edges, _), peak = _peak_bytes(GENERATORS[name])
    assert peak / edges.shape[0] <= 64


@pytest.mark.parametrize("fmt", ["v1", "v2"])
@pytest.mark.parametrize(
    "build, ceiling", [(build_directed, 64), (build_undirected, 104)],
    ids=["directed", "undirected"],
)
def test_build_peak_above_input(graph, build, ceiling, fmt):
    edges, n = graph
    image, peak = _peak_bytes(lambda: build(edges, n, fmt=fmt))
    assert peak / image.num_edges <= ceiling
