"""Oracle for the page-graph generator.

:func:`repro.graph.generators.web_graph` once built the near-domain hop
in int64 full-size temporaries: ``rng.choice((-1, 1))`` gathered its
sign into a second array beside its index draw, and the domain base was
``src // domain_size * domain_size``, two temporaries of its own.  The
generator now returns int32 edges and draws every stream in fixed-size
chunks; this module keeps the old int64 body verbatim (argument checks
aside), so a property test can hold the new one to it value for value.
"""

import numpy as np


def web_graph(
    num_vertices: int,
    edge_factor: int,
    domain_size: int = 64,
    locality: float = 0.85,
    seed: int = 0,
):
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * edge_factor
    chain_src = np.arange(0, num_vertices - domain_size, domain_size, dtype=np.int64)
    edges = np.empty((num_edges + chain_src.size, 2), dtype=np.int64)
    src, dst = edges[:num_edges, 0], edges[:num_edges, 1]
    src[:] = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    local = rng.random(num_edges) < locality
    domain_base = src // domain_size
    domain_base *= domain_size
    dst[:] = rng.integers(0, domain_size, size=num_edges)
    dst += domain_base
    np.copyto(dst, domain_base, where=rng.random(num_edges) < 0.35)
    del domain_base
    near_dst = rng.geometric(0.7, size=num_edges)
    near_dst *= domain_size
    near_dst *= rng.choice((-1, 1), size=num_edges)
    near_dst += src // domain_size * domain_size
    near_dst += rng.integers(0, domain_size, size=num_edges)
    np.clip(near_dst, 0, num_vertices - 1, out=near_dst)
    np.copyto(dst, near_dst, where=~local)
    del near_dst, local
    np.minimum(dst, num_vertices - 1, out=dst)
    edges[num_edges:, 0] = chain_src
    chain_src += domain_size
    edges[num_edges:, 1] = chain_src
    return edges, num_vertices
