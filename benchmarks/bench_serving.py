#!/usr/bin/env python
"""Sustained QPS vs tail latency for the multi-tenant serving layer.

Serves seeded open-loop traffic (``repro.serve``) against the shared
SAFS stack on twitter-sim across an offered-QPS sweep, for two tenant
mixes, each run clean and under the composed chaos plan (flaky device +
stuck queue + one SSD death).  Records sustained-QPS-vs-p50/p99 curves
in ``BENCH_serving.json``:

- **interactive**: a bursty heavy tenant (weight 2, quota 3, Zipf over
  pr/bfs/wcc) sharing with a steady light tenant (quota 2, bfs/wcc) —
  the fair-share stress shape.
- **uniform**: two identical steady tenants — the baseline shape.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # print table
    PYTHONPATH=src python benchmarks/bench_serving.py --record   # + BENCH_serving.json
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --check  # CI gate
    PYTHONPATH=src python benchmarks/bench_serving.py --markdown out.md

``--check`` exits non-zero if any run violated a tenant quota, if a
clean run aborted a query, or if the lowest-QPS clean p99 exceeds
``--p99-budget-ms`` (default 25).  ``--smoke`` shrinks the sweep to the
interactive mix at the two lower QPS points for CI.

The **overload rows** drive the interactive shape (with deadlines and
queue caps on the tenants) at 2x the top of the QPS grid under four
control levels — ``no-control``, ``shed-only``, ``shed+deadline``,
``full-brownout`` — clean and under chaos.  ``--check`` then gates the
headline robustness claim: full-brownout under chaos keeps *served*
p99 (completed queries — what a client who got an answer experienced)
within :data:`OVERLOAD_P99_MULT` x the clean base p99 and its queue
bounded, while no-control under the same overdrive does not; it also
reruns the full-brownout chaos point and asserts the shed/abort/
brownout event stream is byte-identical.

The **sharing rows** drive the *overlap* mix — two partitioned tenants
issuing the same pr/wcc repeats — at a fixed QPS under three I/O-sharing
levels (``off``, ``dedup``, ``dedup+rcache``; see
``docs/io_sharing.md``), clean and under chaos.  Each row records
``bytes_read``, the page-accounting quadruple, and a digest of every
completed query's output vector.  ``--check`` gates: dedup fires
(``pages_deduped > 0``) on every sharing level, the conservation law
``pages_requested == pages_fetched + pages_deduped + cache_hits``
holds exactly on every row, sharing strictly reduces clean
``bytes_read`` vs ``off``, outputs are digest-identical across clean
levels (sharing never changes answers), and a same-seed rerun of the
``dedup+rcache`` chaos point reproduces its row byte for byte.
``--sharing-smoke`` runs only the sharing rows at half duration (the CI
``io-sharing-smoke`` job).
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.bench.datasets import load_dataset
from repro.obs import registry
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.sim.faults import (
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    StuckQueue,
    TransientErrors,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = _REPO_ROOT / "BENCH_serving.json"

TRAFFIC_SEED = 11
DURATION_S = 0.2
QPS_GRID = (40.0, 120.0, 360.0)

#: The composed recoverable chaos profile the test suite uses.
CHAOS_PLAN = FaultPlan(
    [
        TransientErrors(device=3, start=0.0, end=10.0, probability=0.15),
        StuckQueue(device=7, start=0.0005, end=0.012),
        DeviceFailure(device=11, at=0.002),
    ],
    seed=42,
)
CHAOS_POLICY = FaultPolicy(
    max_retries=12, retry_backoff=200e-6, request_timeout=0.002
)


def _interactive_mix(total_qps):
    tenants = [
        TenantSpec(name="acme", weight=2.0, max_concurrent=3),
        TenantSpec(name="globex", max_concurrent=2),
    ]
    traffics = [
        TenantTraffic(
            tenant="acme",
            rate_qps=total_qps * 2.0 / 3.0,
            apps=("pr", "bfs", "wcc"),
            burst_factor=4.0,
            burst_fraction=0.2,
        ),
        TenantTraffic(
            tenant="globex", rate_qps=total_qps / 3.0, apps=("bfs", "wcc")
        ),
    ]
    return tenants, traffics


def _uniform_mix(total_qps):
    tenants = [
        TenantSpec(name="north", max_concurrent=2),
        TenantSpec(name="south", max_concurrent=2),
    ]
    traffics = [
        TenantTraffic(tenant="north", rate_qps=total_qps / 2.0),
        TenantTraffic(tenant="south", rate_qps=total_qps / 2.0),
    ]
    return tenants, traffics


MIXES = {"interactive": _interactive_mix, "uniform": _uniform_mix}

#: Overdrive: 2x the top of the sweep — deliberately infeasible load.
OVERDRIVE_QPS = QPS_GRID[-1] * 2.0

#: --check: full-brownout chaos *served* p99 must stay within this
#: multiple of the lowest-QPS clean interactive p99, and no-control
#: chaos must exceed it (measured ~4x vs ~2500x; the margin absorbs
#: timing noise without ever letting the two regimes overlap).
OVERLOAD_P99_MULT = 12.0

_OVERLOAD_CAPS = dict(
    tenant_queue_cap=6, global_queue_cap=10, shed_policy="by-priority"
)

#: The four control levels of the overload rows, weakest to strongest.
OVERLOAD_CONTROLS = {
    "no-control": None,
    "shed-only": OverloadConfig(**_OVERLOAD_CAPS),
    "shed+deadline": OverloadConfig(**_OVERLOAD_CAPS, enforce_deadlines=True),
    "full-brownout": OverloadConfig(
        **_OVERLOAD_CAPS,
        enforce_deadlines=True,
        brownout=True,
        wait_budget_s=0.01,
    ),
}


def _overload_mix(total_qps):
    """The interactive shape, hardened for overload control: both
    tenants carry deadlines and queue caps, and globex pays for full
    fidelity (never degraded — it is shed or aborted instead)."""
    tenants = [
        TenantSpec(
            name="acme",
            weight=2.0,
            max_concurrent=3,
            deadline_s=0.05,
            queue_cap=6,
        ),
        TenantSpec(
            name="globex",
            max_concurrent=2,
            deadline_s=0.03,
            queue_cap=4,
            degradable=False,
        ),
    ]
    traffics = [
        TenantTraffic(
            tenant="acme",
            rate_qps=total_qps * 2.0 / 3.0,
            apps=("pr", "bfs", "wcc"),
            burst_factor=4.0,
            burst_fraction=0.2,
        ),
        TenantTraffic(
            tenant="globex", rate_qps=total_qps / 3.0, apps=("bfs", "wcc")
        ),
    ]
    return tenants, traffics


#: Fixed offered QPS of the sharing rows: comfortably inside the sweep,
#: high enough that pr/wcc repeats overlap in flight.
SHARING_QPS = 120.0

#: The three I/O-sharing levels of the overlap rows, weakest to
#: strongest (ServiceConfig knobs; ``off`` is the PR-9 baseline).
SHARING_LEVELS = {
    "off": {},
    "dedup": dict(share_reads=True),
    "dedup+rcache": dict(share_reads=True, result_cache=True),
}


def _overlap_mix(total_qps):
    """Two partitioned tenants (256 KiB each — dedup only fires across
    partitions) issuing the *same* pr/wcc repeats: the overlapping-read
    shape the I/O-sharing tentpole exists for."""
    tenants = [
        TenantSpec(name="ridge", max_concurrent=2, cache_bytes=1 << 18),
        TenantSpec(name="vale", max_concurrent=2, cache_bytes=1 << 18),
    ]
    traffics = [
        TenantTraffic(
            tenant="ridge", rate_qps=total_qps / 2.0, apps=("pr", "wcc")
        ),
        TenantTraffic(
            tenant="vale", rate_qps=total_qps / 2.0, apps=("pr", "wcc")
        ),
    ]
    return tenants, traffics


def _results_digest(report):
    """SHA-256 over every completed query's output vector, in trace
    order — the witness that a sharing level never changed an answer."""
    digest = hashlib.sha256()
    for record in sorted(report.records, key=lambda r: r.index):
        if not record.ok or record.values is None:
            continue
        digest.update(f"{record.index}|{record.tenant}|{record.app}|".encode())
        digest.update(np.asarray(record.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def run_sharing_point(image, level, chaos, duration_s=DURATION_S):
    """One overlap-mix run at ``level`` (a SHARING_LEVELS key)."""
    tenants, traffics = _overlap_mix(SHARING_QPS)
    trace = generate_trace(traffics, duration_s, seed=TRAFFIC_SEED)
    service = GraphService(
        image,
        tenants,
        ServiceConfig(policy="fair", **SHARING_LEVELS[level]),
        fault_plan=CHAOS_PLAN if chaos else None,
        fault_policy=CHAOS_POLICY if chaos else None,
    )
    report = service.serve(trace)
    quota_ok = all(
        service.admission.peak[t.name] <= t.max_concurrent for t in tenants
    )
    stats = service.stats
    requested = stats.get(registry.IO_PAGES_REQUESTED)
    fetched = stats.get(registry.IO_PAGES_FETCHED)
    deduped = stats.get(registry.SAFS_DEDUP_PAGES)
    cache_hits = stats.get(registry.CACHE_HITS)
    sharing = report.sharing or {}
    result_cache = sharing.get("result_cache") or {}
    return {
        "mix": "overlap",
        "variant": "chaos" if chaos else "clean",
        "sharing": level,
        "duration_s": duration_s,
        "offered_qps": SHARING_QPS,
        "offered": report.offered,
        "completed": report.completed,
        "aborted": report.aborted,
        "quota_waits": report.quota_waits,
        "quota_ok": quota_ok,
        "sustained_qps": round(report.sustained_qps, 2),
        "p50_ms": round(report.latency_quantile(0.50) * 1e3, 4),
        "p99_ms": round(report.latency_quantile(0.99) * 1e3, 4),
        "bytes_read": stats.get(registry.ARRAY_BYTES_READ),
        "pages_requested": requested,
        "pages_fetched": fetched,
        "pages_deduped": deduped,
        "cache_hits": cache_hits,
        "dedup_waits": stats.get(registry.SAFS_DEDUP_WAITS),
        "result_cache_hits": result_cache.get("hits", 0),
        # The page-accounting conservation law: every requested page is
        # served by exactly one of cache hit / fresh fetch / dedup
        # attach.  Exact float equality — these are integer-valued
        # counters.
        "conservation_ok": requested == fetched + deduped + cache_hits,
        # Chaos comparisons normalize per completed query: sharing lets
        # more queries survive the fault plan, so absolute bytes can
        # rise even as each answer costs less I/O.
        "bytes_per_completed": (
            round(stats.get(registry.ARRAY_BYTES_READ) / report.completed, 2)
            if report.completed
            else 0.0
        ),
        "results_digest": _results_digest(report),
    }


def run_point(image, mix, offered_qps, chaos, duration_s=DURATION_S):
    tenants, traffics = MIXES[mix](offered_qps)
    trace = generate_trace(traffics, duration_s, seed=TRAFFIC_SEED)
    service = GraphService(
        image,
        tenants,
        ServiceConfig(policy="fair"),
        fault_plan=CHAOS_PLAN if chaos else None,
        fault_policy=CHAOS_POLICY if chaos else None,
    )
    report = service.serve(trace)
    quota_ok = all(
        service.admission.peak[t.name] <= t.max_concurrent for t in tenants
    )
    return {
        "mix": mix,
        "variant": "chaos" if chaos else "clean",
        "offered_qps": offered_qps,
        "offered": report.offered,
        "completed": report.completed,
        "aborted": report.aborted,
        "quota_waits": report.quota_waits,
        "quota_ok": quota_ok,
        "sustained_qps": round(report.sustained_qps, 2),
        "p50_ms": round(report.latency_quantile(0.50) * 1e3, 4),
        "p99_ms": round(report.latency_quantile(0.99) * 1e3, 4),
        "tenant_p99_ms": {
            name: round(tr.latency_quantile(0.99) * 1e3, 4)
            for name, tr in sorted(report.tenants.items())
        },
    }


def _served_quantile(report, q):
    """Latency quantile over successfully completed queries only."""
    import math

    served = sorted(r.latency for r in report.records if r.ok)
    if not served:
        return 0.0
    rank = max(1, math.ceil(q * len(served)))
    return served[min(rank, len(served)) - 1]


def run_overload_point(image, control, chaos, duration_s=DURATION_S):
    """One overdriven run under ``control`` (an OVERLOAD_CONTROLS key)."""
    tenants, traffics = _overload_mix(OVERDRIVE_QPS)
    trace = generate_trace(traffics, duration_s, seed=TRAFFIC_SEED)
    service = GraphService(
        image,
        tenants,
        ServiceConfig(policy="fair", overload=OVERLOAD_CONTROLS[control]),
        fault_plan=CHAOS_PLAN if chaos else None,
        fault_policy=CHAOS_POLICY if chaos else None,
    )
    report = service.serve(trace)
    quota_ok = all(
        service.admission.peak[t.name] <= t.max_concurrent for t in tenants
    )
    summary = report.overload or {}
    events = summary.get("events", [])
    row = {
        "mix": "overload",
        "variant": "chaos" if chaos else "clean",
        "control": control,
        "duration_s": duration_s,
        "offered_qps": OVERDRIVE_QPS,
        "offered": report.offered,
        "completed": report.completed,
        "aborted": report.aborted,
        "shed": report.shed,
        "deadline_aborts": report.deadline_aborts,
        "quota_waits": report.quota_waits,
        "quota_ok": quota_ok,
        "shed_rate": round(report.shed / report.offered, 4),
        "goodput_qps": round(report.sustained_qps, 2),
        "sustained_qps": round(report.sustained_qps, 2),
        "p50_ms": round(report.latency_quantile(0.50) * 1e3, 4),
        "p99_ms": round(report.latency_quantile(0.99) * 1e3, 4),
        # Served latency: quantile over successfully completed queries
        # only (the SLO metric).  The all-admitted p99 above still
        # counts deadline-aborted partials, whose latency is the cancel
        # time — useful for seeing how late aborts land, but not what a
        # client who got an answer experienced.
        "p99_served_ms": round(_served_quantile(report, 0.99) * 1e3, 4),
        "peak_queue_depth": summary.get("peak_queue_depth"),
        "brownout_transitions": summary.get("transitions", 0),
        "brownout_ms": round(summary.get("brownout_seconds", 0.0) * 1e3, 4),
        "degraded": sum(summary.get("degraded_jobs", {}).values()),
        # Digest of the shed/abort/brownout decision stream: same seed
        # must reproduce it byte for byte (--check reruns and compares).
        "events_digest": hashlib.sha256(
            json.dumps(events, sort_keys=True).encode()
        ).hexdigest(),
    }
    return row


def run_all(smoke=False, sharing_only=False):
    image = load_dataset("twitter-sim")
    if sharing_only:
        rows = []
        for level in SHARING_LEVELS:
            for chaos in (False, True):
                rows.append(
                    run_sharing_point(image, level, chaos, DURATION_S / 2)
                )
        return rows
    if smoke:
        points = [("interactive", qps) for qps in QPS_GRID[:2]]
        duration = DURATION_S / 2
        overload_points = [
            (control, True) for control in OVERLOAD_CONTROLS
        ]
    else:
        points = [(mix, qps) for mix in MIXES for qps in QPS_GRID]
        duration = DURATION_S
        overload_points = [
            (control, chaos)
            for control in OVERLOAD_CONTROLS
            for chaos in (False, True)
        ]
    rows = []
    for mix, qps in points:
        for chaos in (False, True):
            rows.append(run_point(image, mix, qps, chaos, duration))
    for control, chaos in overload_points:
        rows.append(run_overload_point(image, control, chaos, duration))
    for level in SHARING_LEVELS:
        for chaos in (False, True):
            rows.append(run_sharing_point(image, level, chaos, duration))
    return rows


def format_markdown(rows):
    lines = [
        "| mix | variant | control | offered QPS | sustained QPS | completed "
        "| aborted | shed | quota waits | p50 ms | p99 ms |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['mix']} | {row['variant']} "
            f"| {row.get('control', row.get('sharing', '-'))} "
            f"| {row['offered_qps']:g} "
            f"| {row['sustained_qps']:g} | {row['completed']} "
            f"| {row['aborted']} | {row.get('shed', 0)} "
            f"| {row['quota_waits']} "
            f"| {row['p50_ms']:.3f} | {row['p99_ms']:.3f} |"
        )
    return "\n".join(lines) + "\n"


def _row_label(row):
    label = f"{row['mix']}/{row['variant']}@{row['offered_qps']:g}qps"
    if "control" in row:
        label += f"/{row['control']}"
    if "sharing" in row:
        label += f"/{row['sharing']}"
    return label


def _check_sharing(rows):
    """The sharing-row gates (see the module docstring)."""
    failed = False
    sharing = [r for r in rows if r["mix"] == "overlap"]
    if not sharing:
        return False
    for row in sharing:
        label = _row_label(row)
        if not row["conservation_ok"]:
            print(
                f"FAIL {label}: page conservation broken "
                f"(requested {row['pages_requested']:g} != fetched "
                f"{row['pages_fetched']:g} + deduped "
                f"{row['pages_deduped']:g} + cache hits "
                f"{row['cache_hits']:g})",
                file=sys.stderr,
            )
            failed = True
        if row["sharing"] == "off" and row["pages_deduped"] != 0:
            print(
                f"FAIL {label}: dedup fired with sharing off",
                file=sys.stderr,
            )
            failed = True
        # The dedup-only level must attach on the overlapping mix.  The
        # rcache levels answer the repeats at admission, so their
        # residual I/O may legitimately never overlap in flight — they
        # are gated on result-cache hits instead.
        if row["sharing"] == "dedup" and row["pages_deduped"] <= 0:
            print(
                f"FAIL {label}: overlapping mix deduplicated nothing",
                file=sys.stderr,
            )
            failed = True
        if row["sharing"] == "dedup+rcache" and row["result_cache_hits"] <= 0:
            print(
                f"FAIL {label}: repeat queries never hit the result cache",
                file=sys.stderr,
            )
            failed = True
    # Sharing must strictly reduce bytes read off the array, and must
    # never change a single answer byte: every clean level serves the
    # same output vectors as the clean baseline.
    by_key = {(r["variant"], r["sharing"]): r for r in sharing}
    for variant in ("clean", "chaos"):
        base = by_key.get((variant, "off"))
        if base is None:
            continue
        for level in SHARING_LEVELS:
            row = by_key.get((variant, level))
            if row is None or level == "off":
                continue
            label = _row_label(row)
            metric = "bytes_read" if variant == "clean" else "bytes_per_completed"
            if row[metric] >= base[metric]:
                print(
                    f"FAIL {label}: {metric} {row[metric]:g} not "
                    f"below the off baseline {base[metric]:g}",
                    file=sys.stderr,
                )
                failed = True
            if (
                variant == "clean"
                and row["results_digest"] != base["results_digest"]
            ):
                print(
                    f"FAIL {label}: results digest differs from the off "
                    "baseline — sharing changed an answer",
                    file=sys.stderr,
                )
                failed = True
    # Byte-identical replay: rerun the strongest chaos point and compare
    # the whole row (digest, byte counts, page accounting, tails).
    recorded = by_key.get(("chaos", "dedup+rcache"))
    if recorded is not None:
        image = load_dataset("twitter-sim")
        rerun = run_sharing_point(
            image, "dedup+rcache", True, recorded["duration_s"]
        )
        if rerun != recorded:
            diff = sorted(
                k for k in recorded if rerun.get(k) != recorded[k]
            )
            print(
                "FAIL sharing determinism: same-seed rerun of "
                f"{_row_label(recorded)} differs in {', '.join(diff)}",
                file=sys.stderr,
            )
            failed = True
    return failed


def _check_overload(rows, base_p99_ms):
    """The overload-row gates (see the module docstring)."""
    failed = False
    overload = [r for r in rows if r["mix"] == "overload"]
    if not overload:
        return False
    for row in overload:
        label = _row_label(row)
        served = row["completed"] + row["aborted"] + row["shed"]
        if served != row["offered"]:
            print(
                f"FAIL {label}: {row['offered'] - served} arrivals "
                "unaccounted (completed + aborted + shed != offered)",
                file=sys.stderr,
            )
            failed = True
        if row["control"] == "no-control":
            continue
        cap = _OVERLOAD_CAPS["global_queue_cap"]
        if row["peak_queue_depth"] > cap:
            print(
                f"FAIL {label}: peak queue depth {row['peak_queue_depth']} "
                f"burst the global cap of {cap}",
                file=sys.stderr,
            )
            failed = True
        if row["shed"] <= 0:
            print(
                f"FAIL {label}: overdrive shed nothing (shed-rate 0)",
                file=sys.stderr,
            )
            failed = True
    # The headline gate compares *served* p99 (completed queries): with
    # full control a client who got an answer got it within a bounded
    # multiple of the uncontended p99 even under chaos at 2x overdrive,
    # while without control even successful answers take seconds.
    bound = OVERLOAD_P99_MULT * base_p99_ms
    for row in overload:
        if row["variant"] != "chaos":
            continue
        label = _row_label(row)
        if row["control"] == "full-brownout" and row["p99_served_ms"] > bound:
            print(
                f"FAIL {label}: served p99 {row['p99_served_ms']:.3f}ms "
                f"burst the {OVERLOAD_P99_MULT:g}x-base bound of "
                f"{bound:.3f}ms",
                file=sys.stderr,
            )
            failed = True
        if row["control"] == "no-control" and row["p99_served_ms"] <= bound:
            print(
                f"FAIL {label}: served p99 {row['p99_served_ms']:.3f}ms "
                f"within the {bound:.3f}ms bound — overload control "
                "shows no advantage over no control",
                file=sys.stderr,
            )
            failed = True
    # Byte-identical replay: rerun the strongest chaos point and compare
    # its decision stream digest against the recorded one.
    recorded = next(
        (
            r
            for r in overload
            if r["control"] == "full-brownout" and r["variant"] == "chaos"
        ),
        None,
    )
    if recorded is not None:
        image = load_dataset("twitter-sim")
        rerun = run_overload_point(
            image, "full-brownout", True, recorded["duration_s"]
        )
        for key in ("events_digest", "completed", "aborted", "shed"):
            if rerun[key] != recorded[key]:
                print(
                    f"FAIL overload determinism: {key} differs across "
                    f"same-seed reruns ({recorded[key]!r} != {rerun[key]!r})",
                    file=sys.stderr,
                )
                failed = True
    return failed


def check(rows, p99_budget_ms):
    failed = False
    for row in rows:
        label = _row_label(row)
        if not row["quota_ok"]:
            print(f"FAIL {label}: tenant quota exceeded", file=sys.stderr)
            failed = True
        if row["mix"] == "overload":
            continue  # overload rows get their own conservation law below
        if row["completed"] + row["aborted"] != row["offered"]:
            print(f"FAIL {label}: arrivals went unserved", file=sys.stderr)
            failed = True
        if row["variant"] == "clean" and row["aborted"]:
            print(f"FAIL {label}: clean run aborted queries", file=sys.stderr)
            failed = True
    # The clean p99 base comes from the sweep mixes only — the overlap
    # rows run a fixed-QPS shape whose tails answer a different
    # question (byte savings, not sweep headroom).
    clean = [
        r
        for r in rows
        if r["variant"] == "clean" and r["mix"] not in ("overload", "overlap")
    ]
    if clean:
        base = min(clean, key=lambda r: r["offered_qps"])
        if base["p99_ms"] > p99_budget_ms:
            print(
                f"FAIL baseline p99 {base['p99_ms']:.3f}ms exceeds the "
                f"{p99_budget_ms:g}ms budget",
                file=sys.stderr,
            )
            failed = True
        failed = _check_overload(rows, base["p99_ms"]) or failed
    failed = _check_sharing(rows) or failed
    print("serving check:", "FAILED" if failed else "ok")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the sweep to BENCH_serving.json")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on quota/SLO violations")
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset: one mix, two QPS points, half duration")
    parser.add_argument("--sharing-smoke", action="store_true",
                        help="CI subset: only the I/O-sharing overlap rows "
                        "at half duration")
    parser.add_argument("--p99-budget-ms", type=float, default=25.0,
                        help="--check: p99 budget for the lowest-QPS clean "
                        "run (default 25)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write the sweep as a Markdown table")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the raw sweep rows as JSON")
    args = parser.parse_args()

    rows = run_all(smoke=args.smoke, sharing_only=args.sharing_smoke)
    print(format_markdown(rows))
    if args.record:
        RESULTS_FILE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(rows)} runs in {RESULTS_FILE.name}")
    if args.markdown:
        Path(args.markdown).write_text(format_markdown(rows))
        print(f"wrote Markdown table -> {args.markdown}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote raw rows -> {args.json}")
    if args.check:
        return check(rows, args.p99_budget_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
