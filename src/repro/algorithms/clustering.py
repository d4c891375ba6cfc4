"""Local clustering coefficients (extension).

The clustering coefficient of a vertex is ``2 * triangles(v) /
(deg(v) * (deg(v) - 1))`` on the undirected projection — a direct product
of the triangle-counting program, so this module composes rather than
re-traverses: one TC run yields every vertex's coefficient plus the
graph's average (the Watts-Strogatz small-world statistic the paper's TC
reference [28] introduced).
"""

from typing import Tuple

import numpy as np

from repro.algorithms.triangle_count import triangle_count
from repro.core.engine import GraphEngine, RunResult
from repro.graph.builder import GraphImage
from repro.graph.sets import union_segments


def undirected_degrees(image: GraphImage) -> np.ndarray:
    """Distinct-neighbor counts on the undirected projection, self-loops
    excluded."""
    return union_segments(image).degrees()


def clustering_coefficients(
    engine: GraphEngine,
) -> Tuple[np.ndarray, float, RunResult]:
    """Per-vertex clustering coefficients and their mean.

    Returns ``(coefficients, average, result)``.  Vertices with fewer
    than two neighbors have coefficient 0 (the networkx convention).
    """
    image = engine.image
    triangles, result = triangle_count(engine)
    degrees = undirected_degrees(image)
    pairs = degrees * (degrees - 1)
    coefficients = np.zeros(image.num_vertices)
    valid = pairs > 0
    coefficients[valid] = 2.0 * triangles[valid] / pairs[valid]
    average = float(coefficients.mean()) if image.num_vertices else 0.0
    return coefficients, average, result
