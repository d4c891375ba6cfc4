"""Serving is a pure function of (config, trace seed): two runs agree
byte for byte — span traces, histograms, reports."""

import pytest

from repro.bench.datasets import load_dataset
from repro.obs import Observer, to_jsonl
from repro.obs import registry as reg
from repro.serve import (
    GraphService,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)

TENANTS = [
    TenantSpec(name="acme", weight=2.0, max_concurrent=3),
    TenantSpec(name="globex", max_concurrent=2, cache_bytes=1 << 18),
]
TRAFFICS = [
    TenantTraffic(
        tenant="acme", rate_qps=120.0, burst_factor=4.0, burst_fraction=0.2
    ),
    TenantTraffic(tenant="globex", rate_qps=60.0, apps=("bfs", "wcc")),
]


def _one_run(image, seed):
    trace = generate_trace(TRAFFICS, 0.1, seed=seed)
    observer = Observer()
    service = GraphService(
        image, TENANTS, ServiceConfig(policy="fair"), observer=observer
    )
    report = service.serve(trace)
    histograms = {
        name: hist.summary()
        for name, hist in service.stats.histograms().items()
        if name.startswith("serve.")
    }
    return to_jsonl(observer), histograms, report.to_dict()


@pytest.fixture(scope="module")
def image():
    return load_dataset("twitter-sim")


@pytest.fixture(scope="module")
def seed_11_run(image):
    """The seed-11 run both tests compare against, served once."""
    return _one_run(image, seed=11)


class TestServeDeterminism:
    def test_same_seed_byte_identical_spans_and_histograms(self, image, seed_11_run):
        spans_one, hists_one, report_one = seed_11_run
        spans_two, hists_two, report_two = _one_run(image, seed=11)
        assert spans_one == spans_two  # byte-identical JSONL
        assert hists_one == hists_two
        assert report_one == report_two
        # Per-tenant histogram families actually recorded.
        for tenant in ("acme", "globex"):
            assert f"{reg.HIST_SERVE_QUERY_SECONDS}.{tenant}" in hists_one
            assert f"{reg.HIST_SERVE_QUEUE_WAIT_SECONDS}.{tenant}" in hists_one

    def test_different_seeds_differ(self, image, seed_11_run):
        spans_one, _, report_one = seed_11_run
        spans_two, _, report_two = _one_run(image, seed=12)
        assert report_one != report_two
        assert spans_one != spans_two
