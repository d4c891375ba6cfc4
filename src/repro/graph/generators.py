"""Synthetic stand-ins for the paper's datasets (Table 1).

The paper evaluates on three real web/social graphs we cannot ship:

========== ============ ========= ====== ========
Graph      #Vertices    #Edges    Size   Diameter
========== ============ ========= ====== ========
Twitter    42M          1.5B      13GB   23
Subdomain  89M          2B        18GB   30
Page       3.4B         129B      1.1TB  650
========== ============ ========= ====== ========

What FlashGraph's behaviour actually depends on is (i) the power-law degree
distribution, (ii) the edges/vertex ratio, and (iii) vertex-ID locality
(the page graph is clustered by domain, which produces good cache hit
rates).  The generators below reproduce those properties at a configurable
scale; :func:`twitter_sim`, :func:`subdomain_sim` and :func:`page_sim`
bake in each dataset's ratio and locality profile.
"""

from typing import Tuple

import numpy as np


def rmat_graph(
    scale: int,
    edge_factor: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Tuple[np.ndarray, int]:
    """Generate a directed R-MAT graph (Graph500 parameters by default).

    Returns ``(edges, num_vertices)`` with ``num_vertices = 2**scale`` and
    ``edge_factor * num_vertices`` sampled edges (duplicates included; the
    builder deduplicates).  R-MAT yields the skewed, power-law-ish degree
    distribution of social graphs like Twitter.
    """
    if scale <= 0 or scale > 30:
        raise ValueError("scale must be in (0, 30]")
    if edge_factor <= 0:
        raise ValueError("edge_factor must be positive")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("quadrant probabilities must be a partition of 1")
    rng = np.random.default_rng(seed)
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices
    # Pre-permutation ids have ``scale <= 30`` bits: int32 builds them in
    # place, one reused float64 buffer takes each bit's draws.
    src = np.zeros(num_edges, dtype=np.int32)
    dst = np.zeros(num_edges, dtype=np.int32)
    r = np.empty(num_edges)
    for bit in range(scale):
        rng.random(out=r)
        # Quadrants in order a (0,0), b (0,1), c (1,0), d (1,1).
        right = r >= a
        right &= r < a + b
        right |= r >= a + b + c
        src <<= 1
        src |= r >= a + b
        dst <<= 1
        dst |= right
    del r, right
    # Permute IDs so vertex ID carries no structural information, as in
    # natural social graphs where crawl order is arbitrary.
    perm = rng.permutation(num_vertices)
    edges = np.empty((num_edges, 2), dtype=np.int64)
    edges[:, 0] = perm[src]
    del src
    edges[:, 1] = perm[dst]
    return edges, num_vertices


def erdos_renyi_graph(
    num_vertices: int, num_edges: int, seed: int = 0
) -> Tuple[np.ndarray, int]:
    """A G(n, m) random digraph (no degree skew; used by tests/ablations)."""
    if num_vertices <= 0 or num_edges < 0:
        raise ValueError("need a positive vertex count and non-negative edges")
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_vertices, size=(num_edges, 2), dtype=np.int64)
    return edges, num_vertices


def _scratch_dtype(bound: int) -> type:
    """int32 when every value a scratch array takes lies in ``[-bound,
    bound]`` and ``bound`` fits int32, else int64: the width guard that
    keeps narrow arithmetic exact."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _domain_base(src: np.ndarray, domain_size: int, dtype: type) -> np.ndarray:
    """``src // domain_size * domain_size`` in one ``dtype`` array (the
    ufunc casts through its small buffer, not an int64 copy)."""
    base = np.empty(src.size, dtype=dtype)
    np.floor_divide(src, domain_size, out=base)
    base *= domain_size
    return base


def web_graph(
    num_vertices: int,
    edge_factor: int,
    domain_size: int = 64,
    locality: float = 0.85,
    seed: int = 0,
) -> Tuple[np.ndarray, int]:
    """A domain-clustered web-like digraph (the page graph's profile).

    Vertices are grouped into consecutive-ID *domains* of ``domain_size``
    pages.  A fraction ``locality`` of each page's links stays within its
    own domain (IDs adjacent on SSD → good merging and cache hits); the
    rest hop to a page of a nearby domain.  Sparse long chains of
    domains give the large effective diameter the page graph exhibits.
    """
    if edge_factor <= 0:
        raise ValueError("edge_factor must be positive")
    if domain_size <= 0:
        raise ValueError("domain_size must be positive")
    if num_vertices <= domain_size:
        raise ValueError("need more vertices than one domain")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * edge_factor
    # One (m + chain, 2) result.  No two draw-sized temporaries are alive
    # at once: beside the result and the ``local`` mask, each draw meets
    # at most one scratch array, of the narrowest width that is exact.
    # The draws' order and stream are fixed: the output is pinned byte for byte.
    chain_src = np.arange(0, num_vertices - domain_size, domain_size, dtype=np.int64)
    edges = np.empty((num_edges + chain_src.size, 2), dtype=np.int64)
    src, dst = edges[:num_edges, 0], edges[:num_edges, 1]
    src[:] = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    local = rng.random(num_edges) < locality
    # Local links: another page of the same domain.  A third of them point
    # at the domain's first page — real sites funnel links to their home
    # page — giving each domain a hub and dense within-domain overlap
    # (cache reuse, triangle structure) without adding any long-range
    # shortcut that would shrink the diameter.
    dst[:] = rng.integers(0, domain_size, size=num_edges)
    home = rng.random(num_edges) < 0.35
    base = _domain_base(src, domain_size, _scratch_dtype(num_vertices))
    dst += base
    np.copyto(dst, base, where=home)
    del base, home
    # Non-local links hop to a *nearby* domain (sites link within their
    # topical neighborhood).  Having no global shortcuts preserves the huge
    # effective diameter the paper reports for the page graph (650).
    # The hop ``±geometric * domain_size + base + offset`` lies within
    # ``num_vertices + (max geometric + 1) * domain_size`` of zero.
    hops = rng.geometric(0.7, size=num_edges)
    width = _scratch_dtype(num_vertices + (int(hops.max()) + 1) * domain_size)
    near_dst = np.empty(num_edges, dtype=width)
    np.multiply(hops, domain_size, out=near_dst)
    del hops
    # The stream ``choice((-1, 1))`` draws, without its gather of a copy.
    sign = rng.integers(0, 2, size=num_edges)
    sign *= 2
    sign -= 1
    near_dst *= sign
    del sign
    near_dst += _domain_base(src, domain_size, width)
    near_dst += rng.integers(0, domain_size, size=num_edges)
    np.clip(near_dst, 0, num_vertices - 1, out=near_dst)
    np.logical_not(local, out=local)
    np.copyto(dst, near_dst, where=local)
    del near_dst, local
    np.minimum(dst, num_vertices - 1, out=dst)
    edges[num_edges:, 0] = chain_src
    chain_src += domain_size
    edges[num_edges:, 1] = chain_src
    return edges, num_vertices


def twitter_sim(scale: int = 14, seed: int = 1) -> Tuple[np.ndarray, int]:
    """Scaled Twitter stand-in: R-MAT, ~36 edges per vertex (1.5B/42M)."""
    return rmat_graph(scale, edge_factor=36, seed=seed)


def subdomain_sim(scale: int = 15, seed: int = 2) -> Tuple[np.ndarray, int]:
    """Scaled subdomain-web stand-in: R-MAT, ~22 edges/vertex (2B/89M),
    mildly flatter skew than Twitter."""
    return rmat_graph(scale, edge_factor=22, a=0.45, b=0.22, c=0.22, seed=seed)


def page_sim(num_vertices: int = 1 << 17, seed: int = 3) -> Tuple[np.ndarray, int]:
    """Scaled page-graph stand-in: domain-clustered web graph with
    per-domain home-page hubs, ~38 distinct edges/vertex (129B/3.4B) and
    high ID locality.  The raw edge factor over-samples because the
    home-page funnel produces many duplicate links that deduplicate away
    during construction."""
    return web_graph(num_vertices, edge_factor=52, domain_size=64, seed=seed)
