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

Every generator returns ``(edges, num_vertices)`` with ``edges`` an
``(m, 2)`` array of ``_scratch_dtype(num_vertices)`` — int32 below 2**31
vertices, the width the image stores ids at — which the builder takes
as given.  The array is the transpose of a ``(2, m)`` one, so each
column (the sources, the destinations) is contiguous: the generators
build them, and the builder reads them, without strided access.
"""

from typing import Tuple

import numpy as np


#: Values per draw in the generators' chunked loops.  numpy's
#: ``Generator`` draws value by value, so a stream drawn in chunks is the
#: stream drawn whole, and a chunk's temporaries stay under 1 MiB.
DRAW_CHUNK = 1 << 16


def _chunks(total: int):
    """Consecutive slices of at most :data:`DRAW_CHUNK` covering ``[0, total)``."""
    return [slice(a, min(a + DRAW_CHUNK, total)) for a in range(0, total, DRAW_CHUNK)]


def _scratch_dtype(bound: int) -> type:
    """int32 when every value a scratch array takes lies in ``[-bound,
    bound]`` and ``bound`` fits int32, else int64: the width guard that
    keeps narrow arithmetic exact.  Every generator returns its edges at
    ``_scratch_dtype(num_vertices)``, int32 below 2**31 vertices."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


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
    builder deduplicates), an int32 ``(m, 2)`` array.  R-MAT yields the
    skewed, power-law-ish degree distribution of social graphs like
    Twitter.
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
    # Ids have ``scale <= 30`` bits: the result's columns build them in
    # place, bit by bit, each bit's draws taken a chunk at a time.
    columns = np.zeros((2, num_edges), dtype=_scratch_dtype(num_vertices))
    r = np.empty(DRAW_CHUNK)
    chunks = _chunks(num_edges)
    for bit in range(scale):
        for part in chunks:
            src, dst = columns[0, part], columns[1, part]
            draws = r[: part.stop - part.start]
            rng.random(out=draws)
            # Quadrants in order a (0,0), b (0,1), c (1,0), d (1,1).
            right = draws >= a
            right &= draws < a + b
            right |= draws >= a + b + c
            src <<= 1
            src |= draws >= a + b
            dst <<= 1
            dst |= right
    # Permute IDs so vertex ID carries no structural information, as in
    # natural social graphs where crawl order is arbitrary.
    perm = rng.permutation(num_vertices).astype(columns.dtype)
    flat = columns.reshape(-1)
    for part in _chunks(flat.size):
        flat[part] = perm[flat[part]]
    return columns.T, num_vertices


def erdos_renyi_graph(
    num_vertices: int, num_edges: int, seed: int = 0
) -> Tuple[np.ndarray, int]:
    """A G(n, m) random digraph (no degree skew; used by tests/ablations),
    its ``(m, 2)`` edges int32 below 2**31 vertices."""
    if num_vertices <= 0 or num_edges < 0:
        raise ValueError("need a positive vertex count and non-negative edges")
    rng = np.random.default_rng(seed)
    columns = np.empty((2, num_edges), dtype=_scratch_dtype(num_vertices))
    # The stream fills the edges row by row: src, dst, src, dst, ...
    for part in _chunks(num_edges):
        draws = rng.integers(0, num_vertices, size=2 * (part.stop - part.start), dtype=np.int64)
        columns[0, part] = draws[0::2]
        columns[1, part] = draws[1::2]
    return columns.T, num_vertices


def _domain_base(src: np.ndarray, domain_size: int) -> np.ndarray:
    """``src // domain_size * domain_size`` of a chunk, in int64."""
    base = src // domain_size
    return np.multiply(base, domain_size, dtype=np.int64)


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
    Returns ``(edges, num_vertices)``, ``edges`` an ``(m, 2)`` array of
    ``_scratch_dtype(num_vertices)`` (int32 below 2**31 vertices).
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
    # The draws' order and stream are fixed (the edges are pinned value
    # for value): seven full-length streams, each drawn a chunk at a time.
    # Beside the result, only the ``far`` mask and the non-local links'
    # hops live across streams; every other temporary is one chunk's.
    chain_src = np.arange(0, num_vertices - domain_size, domain_size, dtype=np.int64)
    columns = np.empty((2, num_edges + chain_src.size), dtype=_scratch_dtype(num_vertices))
    src, dst = columns[0, :num_edges], columns[1, :num_edges]
    chunks = _chunks(num_edges)
    for part in chunks:
        src[part] = rng.integers(
            0, num_vertices, size=part.stop - part.start, dtype=np.int64
        )
    # ``far``: the links that leave their domain.
    far = np.empty(num_edges, dtype=bool)
    for part in chunks:
        np.greater_equal(rng.random(part.stop - part.start), locality, out=far[part])
    # Local links: another page of the same domain.  A third of them point
    # at the domain's first page — real sites funnel links to their home
    # page — giving each domain a hub and dense within-domain overlap
    # (cache reuse, triangle structure) without adding any long-range
    # shortcut that would shrink the diameter.
    for part in chunks:
        dst[part] = rng.integers(0, domain_size, size=part.stop - part.start)
    for part in chunks:
        home = rng.random(part.stop - part.start) < 0.35
        base = _domain_base(src[part], domain_size)
        local = dst[part] + base
        np.copyto(local, base, where=home)
        np.minimum(local, num_vertices - 1, out=local)
        dst[part] = local
    # Non-local links hop to a *nearby* domain (sites link within their
    # topical neighborhood).  Having no global shortcuts preserves the huge
    # effective diameter the paper reports for the page graph (650).
    # The target ``clip(base ± hops * domain_size + offset)`` is the same
    # with ``hops`` capped at ``cap``: a hop that long clips to the first
    # or last page either way, and the cap bounds the scratch width.
    cap = num_vertices // domain_size + 2
    hops = np.empty(int(np.count_nonzero(far)), dtype=_scratch_dtype(cap * domain_size))
    spans, at = [], 0
    for part in chunks:
        drawn = rng.geometric(0.7, size=part.stop - part.start)[far[part]]
        span = slice(at, at + drawn.size)
        np.minimum(drawn, cap, out=drawn)
        np.multiply(drawn, domain_size, out=hops[span], casting="unsafe")
        spans.append((part, span))
        at = span.stop
    # The stream ``choice((-1, 1))`` draws, without its gather of a copy.
    for part, span in spans:
        sign = rng.integers(0, 2, size=part.stop - part.start)[far[part]]
        sign *= 2
        sign -= 1
        hops[span] *= sign
    for part, span in spans:
        offset = rng.integers(0, domain_size, size=part.stop - part.start)
        mask = far[part]
        near = _domain_base(src[part][mask], domain_size)
        near += hops[span]
        near += offset[mask]
        np.clip(near, 0, num_vertices - 1, out=near)
        dst[part][mask] = near
    columns[0, num_edges:] = chain_src
    chain_src += domain_size
    columns[1, num_edges:] = chain_src
    return columns.T, num_vertices


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
