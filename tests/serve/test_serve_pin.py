"""Pins every observable output of the serve loop across its feature grid.

Sixteen served runs — clean and under a recoverable fault plan, times
four overload-control levels (none, shed-only, shed + deadline
enforcement, full brownout), times two I/O-sharing levels (off; in-flight
dedup + result cache) — with the span observer, the
timeline sampler and SLO objectives armed on some of them.  Each case
pins the sha256 of what the run emitted: ``report.to_dict()``, every
job record and shed record, the overload event log, the SLO summary,
the timeline snapshots, the span JSONL, and the
final counter, histogram and gauge snapshot.

Regenerate (only when serving behaviour itself legitimately changes)::

    PYTHONPATH=src python tests/serve/test_serve_pin.py --regen
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.graph.builder import build_directed
from repro.graph.generators import rmat_graph
from repro.obs import Observer, TimelineSampler, to_jsonl
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.sim.faults import DeviceFailure, FaultPlan, FaultPolicy, TransientErrors

FIXTURE = Path(__file__).resolve().parent / "golden_serve.json"

#: Transient errors on a device the pin graph uses, plus a device death
#: the array has to route around: retries and timeouts stretch jobs past
#: their deadlines, so the chaos cases shed and deadline-abort far more.
FAULT_PLAN = FaultPlan(
    [
        TransientErrors(device=0, start=0.0, end=10.0, probability=0.15),
        DeviceFailure(device=1, at=0.004),
    ],
    seed=42,
)
FAULT_POLICY = FaultPolicy(max_retries=12, retry_backoff=200e-6, request_timeout=0.002)

#: Overload-control level -> (scheduling policy, OverloadConfig or None).
CONTROLS = {
    "none": ("fair", None),
    "shed": (
        "fifo",
        dict(tenant_queue_cap=3, global_queue_cap=5, shed_policy="by-priority"),
    ),
    "deadline": (
        "deadline",
        dict(tenant_queue_cap=4, global_queue_cap=6, enforce_deadlines=True),
    ),
    "brownout": (
        "fair",
        dict(
            tenant_queue_cap=4,
            global_queue_cap=6,
            shed_policy="by-priority",
            enforce_deadlines=True,
            brownout=True,
            wait_budget_s=0.0005,
        ),
    ),
}

SHARING = {
    "off": {},
    "on": dict(share_reads=True, result_cache=True),
}

CASES = [
    f"{fault}-{control}-{sharing}"
    for fault in ("clean", "chaos")
    for control in CONTROLS
    for sharing in SHARING
]


@lru_cache(maxsize=None)
def _image():
    edges, n = rmat_graph(10, edge_factor=8, seed=7)
    return build_directed(edges, n, name="serve-pin")


def _case(case: str):
    """``(service, trace, observer, timeline)`` for one case id."""
    fault, control, sharing = case.split("-")
    policy, overload = CONTROLS[control]
    share = sharing == "on"
    slo = control != "none"
    partition = dict(cache_bytes=4 * 4096) if share else {}
    tenants = [
        TenantSpec(
            name="acme",
            weight=2.0,
            max_concurrent=2,
            deadline_s=0.003,
            **partition,
            **(
                dict(slo_latency_s=0.003, slo_target=0.9, slo_availability=0.9)
                if slo
                else {}
            ),
        ),
        TenantSpec(
            name="globex",
            max_concurrent=1,
            queue_cap=2,
            deadline_s=0.006,
            degradable=False,
            result_cache="private",
            **partition,
        ),
    ]
    traffics = [
        TenantTraffic(
            tenant="acme",
            rate_qps=3600.0,
            burst_factor=3.0,
            burst_fraction=0.3,
            burst_period_s=0.005,
        ),
        TenantTraffic(tenant="globex", rate_qps=1800.0, apps=("bfs", "wcc")),
    ]
    trace = generate_trace(traffics, 0.012, seed=3)
    config = ServiceConfig(
        cache_bytes=8 * 4096,
        num_threads=4,
        range_shift=5,
        policy=policy,
        pr_iterations=3,
        overload=OverloadConfig(**overload) if overload is not None else None,
        **SHARING[sharing],
    )
    observer = Observer() if fault == "chaos" or control == "brownout" else None
    timeline = TimelineSampler() if control in ("deadline", "brownout") or share else None
    chaos = fault == "chaos"
    service = GraphService(
        _image(),
        tenants,
        config,
        fault_plan=FAULT_PLAN if chaos else None,
        fault_policy=FAULT_POLICY if chaos else None,
        observer=observer,
        timeline=timeline,
    )
    return service, trace, observer, timeline


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run_case(case: str) -> dict:
    service, trace, observer, timeline = _case(case)
    report = service.serve(trace)
    records = [
        [
            r.index, r.tenant, r.app, r.arrival_time, r.start_time,
            r.finish_time, r.ok, r.iterations, r.abort_reason, r.degraded,
            r.result_cached, r.bytes_read, r.dedup_pages, r.dedup_waits,
            r.result.runtime, r.result.counters,
            None if r.values is None
            else hashlib.sha256(np.ascontiguousarray(r.values).tobytes()).hexdigest(),
        ]
        for r in report.records
    ]
    sheds = [
        [s.index, s.tenant, s.app, s.arrival_time, s.shed_time, s.reason]
        for s in report.sheds
    ]
    metrics = service.stats.metrics_snapshot()
    pins = {
        "report": report.to_dict(),
        "records": records,
        "sheds": sheds,
        "overload_events": (report.overload or {}).get("events"),
        "slo": report.slo,
        "timeline": timeline.snapshots if timeline is not None else None,
        "spans": to_jsonl(observer) if observer is not None else None,
        "counters": metrics["counters"],
        "histograms": metrics["histograms"],
        "series": metrics["series"],
    }
    return {name: _sha(value) for name, value in pins.items()}


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_serve_pinned(case):
    assert run_case(case) == _golden()[case]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/serve/test_serve_pin.py --regen")
    rows = (
        f"{json.dumps(case)}: {json.dumps(run_case(case), sort_keys=True)}"
        for case in CASES
    )
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {FIXTURE} ({len(CASES)} cases)")
