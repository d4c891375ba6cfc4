"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.builder import build_directed
from repro.graph.generators import (
    erdos_renyi_graph,
    page_sim,
    rmat_graph,
    subdomain_sim,
    twitter_sim,
    web_graph,
)
from tests.graph import reference_generators


class TestRMAT:
    def test_shape(self):
        edges, n = rmat_graph(scale=8, edge_factor=4, seed=0)
        assert n == 256
        assert edges.shape == (4 * 256, 2)
        assert edges.min() >= 0
        assert edges.max() < n

    def test_deterministic(self):
        a, _ = rmat_graph(scale=6, edge_factor=3, seed=42)
        b, _ = rmat_graph(scale=6, edge_factor=3, seed=42)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a, _ = rmat_graph(scale=6, edge_factor=3, seed=1)
        b, _ = rmat_graph(scale=6, edge_factor=3, seed=2)
        assert not np.array_equal(a, b)

    def test_degree_skew(self):
        # R-MAT graphs are skewed: the hottest vertex collects far more
        # than the average degree.
        edges, n = rmat_graph(scale=12, edge_factor=16, seed=0)
        out_deg = np.bincount(edges[:, 0], minlength=n)
        assert out_deg.max() > 10 * out_deg.mean()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            rmat_graph(scale=0, edge_factor=1)
        with pytest.raises(ValueError):
            rmat_graph(scale=4, edge_factor=0)
        with pytest.raises(ValueError):
            rmat_graph(scale=4, edge_factor=1, a=0.9, b=0.3, c=0.1)


class TestErdosRenyi:
    def test_shape_and_range(self):
        edges, n = erdos_renyi_graph(100, 500, seed=0)
        assert n == 100
        assert edges.shape == (500, 2)
        assert edges.min() >= 0 and edges.max() < 100

    def test_invalid(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(0, 5)
        with pytest.raises(ValueError):
            erdos_renyi_graph(5, -1)


class TestWebGraph:
    def test_locality_profile(self):
        edges, n = web_graph(4096, edge_factor=8, domain_size=64, locality=0.9, seed=0)
        assert edges.min() >= 0 and edges.max() < n
        src_dom = edges[:, 0] // 64
        dst_dom = edges[:, 1] // 64
        same = np.mean(src_dom == dst_dom)
        assert same > 0.6  # most links stay in the domain

    def test_low_locality(self):
        edges, _ = web_graph(4096, edge_factor=8, domain_size=64, locality=0.0, seed=0)
        src_dom = edges[:, 0] // 64
        dst_dom = edges[:, 1] // 64
        assert np.mean(src_dom == dst_dom) < 0.4

    def test_invalid(self):
        with pytest.raises(ValueError):
            web_graph(10, edge_factor=2, domain_size=64)
        with pytest.raises(ValueError):
            web_graph(1000, edge_factor=2, locality=1.5)

    @pytest.mark.parametrize("edge_factor", [0, -3])
    def test_invalid_edge_factor(self, edge_factor):
        with pytest.raises(ValueError, match="edge_factor"):
            web_graph(1000, edge_factor=edge_factor)

    @pytest.mark.parametrize("domain_size", [0, -64])
    def test_invalid_domain_size(self, domain_size):
        with pytest.raises(ValueError, match="domain_size"):
            web_graph(1000, edge_factor=2, domain_size=domain_size)


@st.composite
def web_graph_args(draw):
    n = draw(st.integers(min_value=2, max_value=4096))
    return dict(
        num_vertices=n,
        edge_factor=draw(st.integers(min_value=1, max_value=8)),
        domain_size=draw(st.integers(min_value=1, max_value=n - 1)),
        locality=draw(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
        ),
        seed=draw(st.integers(min_value=0, max_value=2**64)),
    )


def _assert_same_edges(args, dtype=np.int32):
    """The generator's edges are the oracle's int64 edges, value for
    value, at ``dtype`` (int32 below 2**31 vertices)."""
    edges, n = web_graph(**args)
    expected, expected_n = reference_generators.web_graph(**args)
    assert n == expected_n
    assert edges.dtype == dtype and edges.shape == expected.shape
    assert np.array_equal(edges, expected)


class TestWebGraphMatchesOracle:
    """The chunked int32 generator against its old int64 body."""

    @given(args=web_graph_args())
    @settings(max_examples=150, deadline=None)
    def test_same_edges(self, args):
        _assert_same_edges(args)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("num_vertices", [1 << 12, 5000])
    def test_page_sim_profile(self, num_vertices, seed):
        _assert_same_edges(
            dict(num_vertices=num_vertices, edge_factor=52, domain_size=64, seed=seed)
        )

    def test_width_guard(self):
        assert generators._scratch_dtype(2**31 - 1) is np.int32
        assert generators._scratch_dtype(2**31) is np.int64

    @pytest.mark.parametrize("locality", [0.0, 0.85, 1.0])
    def test_int64_fallback(self, monkeypatch, locality):
        bounds = []

        def guard(bound):
            bounds.append(bound)
            return np.int64

        monkeypatch.setattr(generators, "_scratch_dtype", guard)
        _assert_same_edges(
            dict(num_vertices=3000, edge_factor=5, domain_size=50, locality=locality, seed=7),
            dtype=np.int64,
        )
        # The result's bound, then the capped hops': a hop of more than
        # ``n // domain_size + 2`` domains clips to the first or last page.
        assert bounds == [3000, (3000 // 50 + 2) * 50]

    @pytest.mark.parametrize("domain_size", [1, 7, 64])
    def test_hop_cap_reaches_both_clips(self, domain_size):
        # Tiny graphs with locality 0: many hops run past either end.
        _assert_same_edges(
            dict(num_vertices=domain_size + 2, edge_factor=400,
                 domain_size=domain_size, locality=0.0, seed=domain_size)
        )

    @pytest.mark.parametrize(
        "num_vertices", [generators.DRAW_CHUNK - 1, generators.DRAW_CHUNK + 5]
    )
    def test_streams_cross_chunks(self, num_vertices):
        # Edge factor 1: the streams end just short of / past one chunk.
        _assert_same_edges(dict(num_vertices=num_vertices, edge_factor=1, seed=2))


class TestDatasetStandIns:
    def test_twitter_sim_ratio(self):
        edges, n = twitter_sim(scale=10)
        assert len(edges) / n == 36

    def test_subdomain_sim_ratio(self):
        edges, n = subdomain_sim(scale=10)
        assert len(edges) / n == 22

    def test_page_sim_ratio_and_locality(self):
        edges, n = page_sim(num_vertices=4096)
        # Raw sampling over-draws (the home-page funnel deduplicates
        # away); the *distinct* edge ratio is what Table 1 checks.
        assert len(edges) / n == pytest.approx(52, rel=0.05)

    def test_standins_build(self):
        for gen in (lambda: twitter_sim(scale=8), lambda: subdomain_sim(scale=8)):
            edges, n = gen()
            image = build_directed(edges, n)
            assert image.num_vertices == n
            assert 0 < image.num_edges <= len(edges)
