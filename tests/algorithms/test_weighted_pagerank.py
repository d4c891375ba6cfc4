"""Tests for weighted PageRank against a direct fixpoint reference."""

import numpy as np
import pytest

from repro.algorithms.weighted_pagerank import (
    WeightedPageRankProgram,
    weighted_pagerank,
)
from repro.core.config import ExecutionMode
from repro.graph.builder import build_directed

from tests.conftest import engine_for


@pytest.fixture(scope="module")
def weighted_image():
    rng = np.random.default_rng(12)
    edges = rng.integers(0, 120, size=(700, 2), dtype=np.int64)
    weights = rng.uniform(0.1, 3.0, size=len(edges)).astype(np.float32)
    return build_directed(edges, 120, name="wpr", weights=weights)


def reference(image, damping=0.85, sweeps=300):
    n = image.num_vertices
    indptr = image.out_csr.indptr
    indices = image.out_csr.indices
    weights = np.frombuffer(image.attr_bytes[list(image.attr_bytes)[0]], dtype="<f4")
    rank = np.full(n, 1.0 - damping)
    for _ in range(sweeps):
        updated = np.full(n, 1.0 - damping)
        for v in range(n):
            w = weights[indptr[v] : indptr[v + 1]].astype(np.float64)
            total = w.sum()
            if total > 0:
                updated[indices[indptr[v] : indptr[v + 1]]] += (
                    damping * rank[v] * w / total
                )
        rank = updated
    return rank


@pytest.mark.parametrize("mode", list(ExecutionMode))
class TestWeightedPageRank:
    def test_converges_to_reference(self, weighted_image, mode):
        ranks, result = weighted_pagerank(
            engine_for(weighted_image, mode=mode),
            max_iterations=120,
            tolerance=1e-11,
        )
        expected = reference(weighted_image)
        assert np.abs(ranks - expected).max() < 1e-4


class TestWeightedPageRankBehaviour:
    def test_heavily_weighted_target_ranks_higher(self):
        # 0 -> 1 with weight 9, 0 -> 2 with weight 1.
        edges = np.array([[0, 1], [0, 2]])
        weights = np.array([9.0, 1.0], dtype=np.float32)
        image = build_directed(edges, 3, name="wpr-skew", weights=weights)
        ranks, _ = weighted_pagerank(
            engine_for(image, range_shift=1), max_iterations=20, tolerance=1e-12
        )
        assert ranks[1] > ranks[2]

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 50, size=(250, 2), dtype=np.int64)
        ones = np.ones(len(edges), dtype=np.float32)
        weighted = build_directed(edges, 50, name="wpr-u", weights=ones)
        plain = build_directed(edges, 50, name="wpr-p")
        from repro.algorithms.pagerank import pagerank

        w_ranks, _ = weighted_pagerank(
            engine_for(weighted, range_shift=3), max_iterations=80, tolerance=1e-11
        )
        p_ranks, _ = pagerank(
            engine_for(plain, range_shift=3), max_iterations=80, tolerance=1e-11
        )
        assert np.abs(w_ranks - p_ranks).max() < 1e-6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WeightedPageRankProgram(4, damping=1.0)
        with pytest.raises(ValueError):
            WeightedPageRankProgram(4, tolerance=0.0)

    def test_unweighted_image_rejected(self, er_image):
        with pytest.raises(ValueError):
            weighted_pagerank(engine_for(er_image), max_iterations=2)
