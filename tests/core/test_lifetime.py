"""A dropped engine or service is freed when its last reference goes.

An engine owns its ``GraphContext`` (and a service its sinks, sampler
and overload controller), so none of them may hold a strong reference
back: a cycle would keep the whole SAFS stack, its devices and the
image alive until the cycle collector's next full pass.  Each test runs
with the collector off, so only reference counting can free the object.
"""

import gc
import weakref

import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core import EngineConfig, ExecutionMode, GraphEngine
from repro.graph.builder import build_directed
from repro.graph.generators import rmat_graph
from repro.obs import Observer, arm
from repro.obs.timeline import TimelineSampler
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.serve.overload import OverloadConfig


@pytest.fixture(scope="module")
def image():
    edges, n = rmat_graph(8, edge_factor=8, seed=3)
    return build_directed(edges, n, name="lifetime")


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("armed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
def test_engine_dies_with_its_last_reference(image, no_collector, mode, armed):
    engine = GraphEngine(image, config=EngineConfig(mode=mode, num_threads=4))
    if armed:
        arm(engine)
    bfs(engine, 0)
    pagerank(engine, max_iterations=3)
    refs = [weakref.ref(engine)]
    if engine.safs is not None:
        refs += [weakref.ref(engine.safs), weakref.ref(engine.safs.array)]
    del engine
    assert [ref() for ref in refs] == [None] * len(refs)


def _trace():
    traffics = [
        TenantTraffic(tenant="a", rate_qps=3000.0),
        TenantTraffic(tenant="b", rate_qps=2000.0, apps=("bfs", "wcc")),
    ]
    return generate_trace(traffics, 0.003, seed=5)


@pytest.mark.parametrize("armed", [False, True], ids=["plain", "armed"])
def test_service_dies_with_its_last_reference(image, no_collector, armed):
    tenants = [TenantSpec(name="a", max_concurrent=2), TenantSpec(name="b")]
    config = ServiceConfig(pr_iterations=3)
    extras = {}
    if armed:
        # Every part that calls back into the service: sampler, brownout
        # detector, observer.
        config = ServiceConfig(
            pr_iterations=3, overload=OverloadConfig(brownout=True)
        )
        extras = dict(observer=Observer(), timeline=TimelineSampler())
    service = GraphService(image, tenants, config, **extras)
    report = service.serve(_trace())
    assert report.completed > 0
    refs = [weakref.ref(service), weakref.ref(service.safs)]
    del service
    assert [ref() for ref in refs] == [None, None]
