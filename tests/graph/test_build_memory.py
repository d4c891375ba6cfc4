"""Host-memory budgets of the edge generators and the image builder.

tracemalloc's peak (numpy reports its array buffers to it) over one call,
divided by the edges that call handles: raw edges for a generator, whose
peak includes the ``(m, 2)`` int32 result it returns (8 B per edge);
distinct edges for a build, whose input was allocated before tracing
began and so is not counted.  The ratios barely depend on scale (a
generator's fixed chunk buffers weigh a little more on small graphs), so
small graphs stand in for the benchmark's.  Each ceiling is the measured
peak plus about a quarter.

History: the int64 per-edge scatter encoders peaked at 114 B
(``build_directed`` v2) and 211 B (``build_undirected`` v2) per edge;
in-place arithmetic at the narrowest exact width brought the builds to
25 B and 37 B.  Taking int32 edges as given, u32 keys below n = 2**16
and a v2 encoder that works a run of lists at a time bring them to
19 B and 21 B (v1: 23 B and 29 B).  ``page_sim`` peaked at 92 B per raw
edge, then 41 B with one preallocated result, then 29 B with one
draw-sized temporary at a time, and now 14 B: an int32 result and
every stream drawn in fixed-size chunks.  R-MAT generation went from
33 B to 20 B (``twitter_sim(11)``) the same way.  The setup-shaped
budget traces ``page_sim`` and a v2 ``build_directed`` of its edges
together, the edges alive throughout, as ``run.py``'s set-up does: 31 B
per raw edge with int64 edges, 19 B now, so an int64 edge array coming
back breaks it.
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
# Bytes per raw edge, the 8 B result included.
GENERATION_CEILINGS = {"page_sim": 17, "rmat": 25}
# Bytes per raw edge of page_sim generation plus a v2 directed build.
SETUP_CEILING = 24


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
    "build, ceiling", [(build_directed, 30), (build_undirected, 37)],
    ids=["directed", "undirected"],
)
def test_build_peak_above_input(graph, build, ceiling, fmt):
    edges, n = graph
    image, peak = _peak_bytes(lambda: build(edges, n, fmt=fmt))
    assert peak / image.num_edges <= ceiling


def test_setup_shaped_peak():
    def setup():
        edges, n = page_sim(1 << 13)
        return edges, build_directed(edges, n, fmt="v2")

    (edges, _), peak = _peak_bytes(setup)
    assert peak / edges.shape[0] <= SETUP_CEILING
