"""Host-memory budgets of the edge generators and the image builder.

tracemalloc's peak (numpy reports its array buffers to it) over one call,
divided by the edges that call handles: raw edges for a generator, whose
peak includes the ``(m, 2)`` int64 result it returns (16 B per edge);
distinct edges for a build, whose input was allocated before tracing
began and so is not counted.  The ratios do not depend on scale, so small
graphs stand in for the benchmark's.  The ceilings hold the stages to
in-place arithmetic on temporaries at their narrowest exact width; the
int64 per-edge scatter encoders they replaced peaked at 114 B
(``build_directed`` v2) and 211 B (``build_undirected`` v2) per edge.
``page_sim`` peaked at 92 B per raw edge, then 41 B with one
preallocated result, and now 29 B: no two draw-sized temporaries
are alive at once.  R-MAT generation peaks at 33 B (``twitter_sim(11)``;
43.5 B when traced first in a fresh process, before numpy.random loads).
"""

import tracemalloc

# numpy loads numpy.random on first use: import it here, so its module
# objects (~0.8 MiB) are not charged to the first generator traced.
import numpy.random  # noqa: F401
import pytest

from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import page_sim, twitter_sim

GENERATORS = {
    "page_sim": lambda: page_sim(1 << 13),
    "rmat": lambda: twitter_sim(11),
}
# Bytes per raw edge, the 16 B result included.
GENERATION_CEILINGS = {"page_sim": 32, "rmat": 64}


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
    assert peak / edges.shape[0] <= GENERATION_CEILINGS[name]


@pytest.mark.parametrize("fmt", ["v1", "v2"])
@pytest.mark.parametrize(
    "build, ceiling", [(build_directed, 64), (build_undirected, 104)],
    ids=["directed", "undirected"],
)
def test_build_peak_above_input(graph, build, ceiling, fmt):
    edges, n = graph
    image, peak = _peak_bytes(lambda: build(edges, n, fmt=fmt))
    assert peak / image.num_edges <= ceiling
