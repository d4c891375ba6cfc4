"""Shared fixtures: small graphs, engine factories and hook stripping."""

from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

from repro.core.config import EngineConfig, ExecutionMode
from repro.core.engine import GraphEngine
from repro.core.vertex_program import VertexProgram
from repro.graph.builder import build_directed, build_undirected
from repro.graph.generators import erdos_renyi_graph, rmat_graph


@pytest.fixture(scope="session")
def er_edges():
    """A 300-vertex random digraph and its edge list."""
    return erdos_renyi_graph(300, 1500, seed=5)


@pytest.fixture(scope="session")
def er_image(er_edges):
    edges, n = er_edges
    return build_directed(edges, n, name="er")


@pytest.fixture(scope="session")
def er_digraph(er_edges):
    edges, n = er_edges
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges.tolist()))
    return g


@pytest.fixture(scope="session")
def er_ugraph(er_edges):
    edges, n = er_edges
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((int(u), int(v)) for u, v in edges if u != v)
    return g


@pytest.fixture(scope="session")
def er_uimage(er_edges):
    edges, n = er_edges
    simple = np.asarray([[u, v] for u, v in edges.tolist() if u != v])
    return build_undirected(simple, n, name="er-u")


@pytest.fixture(scope="session")
def rmat_image():
    edges, n = rmat_graph(scale=9, edge_factor=8, seed=3)
    return build_directed(edges, n, name="rmat")


@pytest.fixture(scope="session")
def rmat_digraph(rmat_image):
    from repro.graph.io_edge_list import image_to_networkx

    return image_to_networkx(rmat_image)


def engine_for(image, mode=ExecutionMode.SEMI_EXTERNAL, cache_kib=None, **overrides):
    """A small-footprint engine for tests (4 threads, small ranges).

    ``cache_kib`` bounds the SAFS page cache; ``None`` keeps the default
    (large enough to hold every test graph).
    """
    defaults = dict(mode=mode, num_threads=4, range_shift=5)
    defaults.update(overrides)
    safs = None
    if cache_kib is not None and mode is ExecutionMode.SEMI_EXTERNAL:
        from repro.safs.filesystem import SAFS, SAFSConfig

        safs = SAFS(config=SAFSConfig(cache_bytes=cache_kib * 1024))
    return GraphEngine(image, safs=safs, config=EngineConfig(**defaults))


@pytest.fixture()
def make_engine():
    return engine_for


#: The hooks the engine calls, each defaulting to a loop over its scalar twin.
BATCH_HOOKS = ("run_batch", "run_on_vertices", "run_on_messages")


@contextmanager
def scalar_hooks_only(*classes):
    """Inside the block every batch hook of ``classes`` is the
    ``VertexProgram`` default, so runs go through the scalar hooks — the
    definition each native batch hook must reproduce bit for bit."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in classes:
            for hook in BATCH_HOOKS:
                patch.setattr(cls, hook, vars(VertexProgram)[hook])
        yield
