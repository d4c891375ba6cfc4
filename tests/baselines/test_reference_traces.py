"""The neighborhood utilities against their loop-over-vertices bodies.

The TC / SS workload traces, ``undirected_degrees``, ``modularity`` and
``estimate_diameter`` read the undirected projection of
:mod:`repro.graph.sets`; ``reference_traces`` holds the same functions
as loops over vertices.  Both must agree exactly — totals, the whole trace with its
work counts, degrees with their dtype, modularity to the bit and the
diameter estimate — on small directed and undirected images with
self-loops, reciprocal pairs, isolated vertices and no edges at all.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.clustering import undirected_degrees
from repro.algorithms.communities import modularity
from repro.algorithms.diameter import estimate_diameter
from repro.baselines.common import scan_trace, triangle_trace
from tests.baselines import reference_traces as reference
from tests.graph.test_sets import images


@given(image=images(max_vertices=24, max_edges=90))
@settings(max_examples=150, deadline=None)
def test_traces_match_reference(image):
    assert triangle_trace(image) == reference.triangle_trace(image)
    assert scan_trace(image) == reference.scan_trace(image)


@given(image=images(max_vertices=24, max_edges=90), data=st.data())
@settings(max_examples=150, deadline=None)
def test_projection_readers_match_reference(image, data):
    got, want = undirected_degrees(image), reference.undirected_degrees(image)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    communities = data.draw(st.integers(1, image.num_vertices))
    labels = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, communities - 1),
                min_size=image.num_vertices,
                max_size=image.num_vertices,
            )
        )
    )
    assert modularity(image, labels) == reference.modularity(image, labels)
    sweeps = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 100))
    assert estimate_diameter(image, sweeps, seed) == reference.estimate_diameter(
        image, sweeps, seed
    )
