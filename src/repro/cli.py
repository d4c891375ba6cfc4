"""Command-line tools for the FlashGraph reproduction.

Four subcommands mirror a downstream user's workflow::

    python -m repro.cli generate --dataset twitter-sim --out tw.npz
    python -m repro.cli run --algorithm bfs --dataset twitter-sim \
        --mode semi-external --cache-mb 1 --trace bfs.csv
    python -m repro.cli bench --experiment fig8
    python -m repro.cli profile --algorithm pr --dataset twitter-sim \
        --out BENCH_profile.json

``generate`` persists a scaled dataset's edge list; ``run`` executes one
algorithm on a registered dataset or an edge-list file and prints the
result row; ``bench`` regenerates one paper table/figure by name;
``profile`` runs one algorithm with the observer armed and writes a
validated per-iteration per-layer time breakdown (see
:mod:`repro.obs.report`); ``slo`` serves a multi-tenant trace with the
timeline sampler armed and writes a validated burn-rate report
(``repro.slo/v1``, see :mod:`repro.obs.slo`).
"""

import argparse
import json
import sys
from typing import List, Optional

from repro.bench import experiments
from repro.bench import extra_experiments
from repro.bench.datasets import DATASETS, load_dataset
from repro.bench.harness import PAPER_APPS, make_engine, result_row, run_algorithm
from repro.bench.reporting import format_table
from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.core.config import ExecutionKind, ExecutionMode
from repro.core.engine import IterationAborted, RunResult
from repro.obs import (
    Observer,
    TimelineSampler,
    arm,
    build_profile,
    build_slo_report,
    format_profile,
    format_slo_report,
    validate_profile,
    validate_slo_report,
    write_chrome,
    write_iteration_csv,
    write_jsonl,
)
from repro.serve import (
    GraphService,
    OverloadConfig,
    ServiceConfig,
    TenantSpec,
    TenantTraffic,
    generate_trace,
)
from repro.serve.overload import SHED_POLICIES
from repro.serve.queries import APPS
from repro.serve.service import SCHEDULING_POLICIES
from repro.sim.faults import default_chaos_plan
from repro.sim.health import HealthPolicy
from repro.sim.parity import ParityConfig
from repro.graph.builder import build_directed
from repro.graph.format import FORMAT_V1, FORMATS
from repro.graph.io_edge_list import (
    load_edges_npz,
    load_edges_text,
    save_edges_npz,
    stored_graph_format,
)
from repro.graph.stats import degree_percentiles, degree_stats, format_size_report
from repro.graph.types import EdgeType

EXPERIMENTS = {
    "table1": experiments.table1,
    "fig8": experiments.fig8,
    "fig9": experiments.fig9,
    "fig10": experiments.fig10,
    "fig11": experiments.fig11,
    "fig12": experiments.fig12,
    "fig13": experiments.fig13,
    "fig14": experiments.fig14,
    "table2": experiments.table2,
    "ablations": experiments.ablations,
    "sec56": extra_experiments.sec56_clusters,
    "turbograph": extra_experiments.turbograph_comparison,
    "cache-policy": extra_experiments.cache_policy_ablation,
    "stragglers": extra_experiments.straggler_experiment,
    "partitioning": extra_experiments.partitioning_ablation,
}


def _add_serve_arguments(p) -> None:
    """The serving-run flags shared by ``serve`` and ``slo``."""
    p.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    p.add_argument(
        "--tenant", action="append", required=True, metavar="SPEC",
        help="one tenant, repeatable: name=acme,rate=120[,weight=2]"
        "[,quota=3][,apps=pr+bfs+wcc][,burst=4x0.2][,deadline=0.05]"
        "[,cache-kb=256][,slo-latency=0.02][,slo-target=0.99]"
        "[,slo-availability=0.95][,share=0][,result-cache=private] "
        "(rate in queries per simulated "
        "second; burst=FACTORxFRACTION of each 50ms window; "
        "slo-latency/slo-availability declare burn-rate objectives; "
        "share= opts a tenant out of --share-reads dedup; "
        "result-cache= is shared, private or off)",
    )
    p.add_argument(
        "--duration", type=float, default=0.2,
        help="trace length in simulated seconds (default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="traffic seed")
    p.add_argument(
        "--policy", choices=list(SCHEDULING_POLICIES), default="fair",
        help="admission scheduling policy (default: %(default)s)",
    )
    p.add_argument("--cache-mb", type=float, default=1.0)
    p.add_argument("--threads", type=int, default=32)
    p.add_argument(
        "--pr-iterations", type=int, default=5,
        help="iteration cap for 'pr' queries (default: %(default)s)",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="inject the default chaos plan, seeded",
    )
    p.add_argument(
        "--overload", action="store_true",
        help="arm overload control: bounded queues with shedding, plus "
        "deadline enforcement and brownout when their flags are set "
        "(see docs/overload.md)",
    )
    p.add_argument(
        "--queue-cap", type=int, default=8,
        help="per-tenant waiting-queue cap under --overload "
        "(default: %(default)s; per-tenant queue-cap= overrides)",
    )
    p.add_argument(
        "--global-queue-cap", type=int, default=24,
        help="global waiting-queue cap under --overload "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--shed-policy", choices=list(SHED_POLICIES),
        default="reject-newest",
        help="which query a full queue sheds (default: %(default)s)",
    )
    p.add_argument(
        "--enforce-deadlines", action="store_true",
        help="drop queued queries past their deadline and cancel "
        "running jobs once the deadline is unreachable",
    )
    p.add_argument(
        "--brownout", action="store_true",
        help="arm the overload detector + brownout state machine",
    )
    p.add_argument(
        "--brownout-pr-iterations", type=int, default=2,
        help="iteration cap for pr queries admitted during brownout "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--share-reads", action="store_true",
        help="cross-query in-flight read dedup: overlapping dispatches "
        "attach to outstanding device fetches instead of re-issuing "
        "them (see docs/io_sharing.md)",
    )
    p.add_argument(
        "--result-cache", action="store_true",
        help="answer repeat queries (same algorithm, params and graph "
        "image) from a cached output vector at admission time",
    )
    p.add_argument(
        "--result-cache-ttl", type=float, default=None, metavar="SECONDS",
        help="result-cache entry lifetime on the simulated clock "
        "(default: never expires)",
    )
    p.add_argument(
        "--timeline", metavar="PATH",
        help="arm the timeline sampler and write its windowed snapshot "
        "table as Markdown here",
    )
    p.add_argument(
        "--timeline-interval", type=float, default=0.005,
        help="timeline window length in simulated seconds "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--trace-spans",
        help="write the shared observer's span trace as JSONL here "
        "(includes per-query lifecycle events)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FlashGraph reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and persist a dataset")
    gen.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    gen.add_argument("--out", required=True, help="output .npz path")
    gen.add_argument(
        "--graph-format", choices=list(FORMATS), default=FORMAT_V1,
        help="on-SSD edge-list format recorded in the .npz; `run` builds "
        "the image in this format unless overridden (default: %(default)s)",
    )

    run = sub.add_parser("run", help="run one algorithm")
    run.add_argument("--algorithm", choices=PAPER_APPS, required=True)
    run.add_argument("--dataset", choices=sorted(DATASETS))
    run.add_argument("--edges", help="edge-list file (.npz or text)")
    run.add_argument(
        "--graph-format", choices=list(FORMATS), default=None,
        help="on-SSD edge-list format (default: the format recorded in the "
        ".npz, else v1)",
    )
    run.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default=ExecutionMode.SEMI_EXTERNAL.value,
    )
    run.add_argument(
        "--execution",
        choices=[k.value for k in ExecutionKind],
        default=ExecutionKind.SYNC.value,
        help="run-loop policy: 'sync' BSP supersteps (the default) or "
        "'async' priority rounds for residual-capable algorithms "
        "(pr, wcc; see docs/execution_modes.md)",
    )
    run.add_argument(
        "--async-threshold", type=float, default=0.0,
        help="async: stop once the global residual sum falls to this "
        "value (0 runs to quiescence)",
    )
    run.add_argument("--cache-mb", type=float, default=1.0)
    run.add_argument("--threads", type=int, default=32)
    run.add_argument(
        "--source", type=int, default=None,
        help="traversal source (default: the largest out-degree hub)",
    )
    run.add_argument("--max-iterations", type=int, default=30)
    run.add_argument("--trace", help="write per-iteration CSV here")
    run.add_argument(
        "--trace-spans",
        help="write the armed observer's span trace as JSONL here",
    )
    run.add_argument(
        "--trace-chrome",
        help="write a Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    run.add_argument(
        "--fault-seed", type=int, default=None,
        help="inject the default chaos plan, seeded (semi-external only)",
    )
    run.add_argument(
        "--parity", action="store_true",
        help="stripe a rotating parity page per stripe; single-device "
        "loss and silent corruption reconstruct from survivors",
    )
    run.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for iteration-barrier checkpoints",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="barriers between checkpoints (with --checkpoint-dir)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir; "
        "the finished run is bit-identical to an uninterrupted one",
    )

    bench = sub.add_parser("bench", help="regenerate one paper experiment")
    bench.add_argument("--experiment", choices=sorted(EXPERIMENTS), required=True)

    serve = sub.add_parser(
        "serve",
        help="serve a seeded multi-tenant query trace over one shared "
        "SAFS stack and print per-tenant SLO stats",
    )
    _add_serve_arguments(serve)
    serve.add_argument("--out", help="write the service report as JSON here")

    slo = sub.add_parser(
        "slo",
        help="serve a trace with the timeline sampler armed and write a "
        "validated burn-rate report (repro.slo/v1); tenants declare "
        "objectives via slo-latency=/slo-target=/slo-availability=",
    )
    _add_serve_arguments(slo)
    slo.add_argument(
        "--out", default="slo_report.json",
        help="burn-rate report JSON output path (default: %(default)s)",
    )

    graph = sub.add_parser("graph", help="inspect a graph without running anything")
    gsub = graph.add_subparsers(dest="graph_command", required=True)
    gstats = gsub.add_parser(
        "stats",
        help="vertices, edges, degree percentiles and on-SSD bytes "
        "under format v1 vs v2",
    )
    gstats.add_argument("--dataset", choices=sorted(DATASETS))
    gstats.add_argument("--edges", help="edge-list file (.npz or text)")

    prof = sub.add_parser(
        "profile",
        help="run one algorithm with tracing armed and write a "
        "per-iteration per-layer time breakdown",
    )
    prof.add_argument("--algorithm", choices=PAPER_APPS, required=True)
    prof.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    prof.add_argument("--cache-mb", type=float, default=1.0)
    prof.add_argument("--threads", type=int, default=32)
    prof.add_argument("--source", type=int, default=None)
    prof.add_argument("--max-iterations", type=int, default=30)
    prof.add_argument(
        "--out", default="BENCH_profile.json",
        help="profile JSON output path (default: %(default)s)",
    )
    prof.add_argument(
        "--trace-spans", help="also write the span trace as JSONL here"
    )
    prof.add_argument(
        "--trace-chrome", help="also write a Chrome trace_event JSON here"
    )
    prof.set_defaults(trace=None)
    return parser


def _resolve_format(args) -> str:
    """The on-SSD format for this invocation: the explicit flag, else the
    format recorded in the ``.npz`` being loaded, else v1."""
    fmt = getattr(args, "graph_format", None)
    if fmt is None and args.edges and args.edges.endswith(".npz"):
        fmt = stored_graph_format(args.edges)
    return fmt or FORMAT_V1


def _load_image(args, fmt: str = FORMAT_V1):
    if args.dataset:
        return load_dataset(args.dataset, fmt)
    if args.edges:
        if args.edges.endswith(".npz"):
            edges, num_vertices = load_edges_npz(args.edges)
        else:
            edges, num_vertices = load_edges_text(args.edges)
        return build_directed(edges, num_vertices, name="cli-graph", fmt=fmt)
    raise SystemExit(f"{args.command} needs --dataset or --edges")


def cmd_generate(args) -> int:
    dataset = DATASETS[args.dataset]
    edges, num_vertices = dataset.builder()
    save_edges_npz(args.out, edges, num_vertices, fmt=args.graph_format)
    print(
        f"wrote {args.dataset}: {num_vertices:,} vertices, "
        f"{len(edges):,} edges ({args.graph_format}) -> {args.out}"
    )
    return 0


def _run_traced(engine, args, observer) -> Optional[RunResult]:
    """Run ``args.algorithm`` on ``engine`` and write every trace file
    ``args`` names from the armed ``observer`` (``None`` when none is
    named).  An abort is reported, the iterations that completed before
    it are still written, and ``None`` is returned."""
    try:
        result = run_algorithm(
            engine, args.algorithm, source=args.source,
            max_iterations=args.max_iterations,
        )
    except IterationAborted as aborted:
        print(
            f"run aborted at iteration {aborted.iteration}: {aborted.cause}",
            file=sys.stderr,
        )
        result = None
    if observer is None:
        return result
    if args.trace:
        rows = write_iteration_csv(observer, args.trace)
        if result is None:
            print(
                f"wrote partial {rows}-iteration trace -> {args.trace}",
                file=sys.stderr,
            )
        else:
            print(f"wrote {rows}-iteration trace -> {args.trace}")
    if args.trace_spans:
        write_jsonl(observer, args.trace_spans)
        print(f"wrote span trace -> {args.trace_spans}")
    if args.trace_chrome:
        write_chrome(observer, args.trace_chrome)
        print(f"wrote Chrome trace -> {args.trace_chrome}")
    return result


def _check_run_args(args, image) -> None:
    """Reject a traversal source that is not a vertex and a negative
    iteration cap before anything runs."""
    if args.source is not None and not 0 <= args.source < image.num_vertices:
        raise SystemExit(
            f"--source {args.source} is not a vertex of {image.name} "
            f"({image.num_vertices:,} vertices)"
        )
    if args.max_iterations < 0:
        raise SystemExit(
            f"--max-iterations must be non-negative, got {args.max_iterations}"
        )


def _make_engine(image, args, **kwargs):
    """:func:`make_engine` from the shared flags; a configuration the
    engine rejects is a one-line error, not a traceback."""
    try:
        return make_engine(
            image,
            cache_bytes=int(args.cache_mb * (1 << 20)),
            num_threads=args.threads,
            **kwargs,
        )
    except ValueError as exc:
        raise SystemExit(f"bad run configuration: {exc}") from None


def cmd_run(args) -> int:
    fmt = _resolve_format(args)
    image = _load_image(args, fmt)
    _check_run_args(args, image)
    mode = ExecutionMode(args.mode)
    if mode is not ExecutionMode.SEMI_EXTERNAL:
        if args.fault_seed is not None:
            raise SystemExit("--fault-seed needs --mode semi-external")
        if args.parity:
            raise SystemExit("--parity needs --mode semi-external")
        if args.trace_spans or args.trace_chrome:
            raise SystemExit(
                "--trace-spans/--trace-chrome need --mode semi-external"
            )
    execution = ExecutionKind(args.execution)
    if execution is ExecutionKind.ASYNC and args.algorithm not in ("pr", "wcc"):
        raise SystemExit(
            "--execution async needs a residual-capable algorithm "
            "(pr, wcc); see docs/execution_modes.md"
        )
    fault_plan = None
    if args.fault_seed is not None:
        fault_plan = default_chaos_plan(args.fault_seed)
    engine = _make_engine(
        image,
        args,
        mode=mode,
        execution=execution,
        async_threshold=args.async_threshold,
        fault_plan=fault_plan,
        health_policy=HealthPolicy() if fault_plan is not None else None,
        parity=ParityConfig() if args.parity else None,
    )
    manager = None
    if args.checkpoint_dir:
        manager = CheckpointManager(args.checkpoint_dir)
        try:
            engine.enable_checkpoints(manager, every=args.checkpoint_every)
        except ValueError as exc:
            raise SystemExit(f"bad run configuration: {exc}") from None
    if args.resume:
        if manager is None:
            raise SystemExit("--resume needs --checkpoint-dir")
        try:
            iteration = engine.resume_from(manager)
        except CheckpointError as exc:
            raise SystemExit(f"cannot resume: {exc}") from None
        print(f"resuming from the iteration-{iteration} checkpoint")
    observer = None
    if args.trace or args.trace_spans or args.trace_chrome:
        observer = arm(engine)
    try:
        result = _run_traced(engine, args, observer)
    except CheckpointError as exc:
        # The checkpoint is held to the program only as the run starts:
        # one another algorithm wrote fails here, not in resume_from.
        if not args.resume:
            raise
        raise SystemExit(f"cannot resume: {exc}") from None
    if result is None:
        if manager is not None and manager.latest() is not None:
            print(
                f"latest checkpoint: {manager.latest()} (re-run with --resume)",
                file=sys.stderr,
            )
        return 1
    label = mode.value
    if execution is not ExecutionKind.SYNC:
        label = f"{mode.value}+{execution.value}"
    row = result_row(label, args.algorithm, result, fmt=fmt)
    print(format_table([row], title=f"{args.algorithm} on {image.name}"))
    return 0


def _parse_tenant(spec: str):
    """``name=acme,rate=120[,weight=2][,quota=3][,apps=pr+bfs+wcc]
    [,burst=4x0.2][,deadline=0.05][,cache-kb=256][,queue-cap=4]
    [,degradable=0][,slo-latency=0.02][,slo-target=0.99]
    [,slo-availability=0.95]`` → (TenantSpec, TenantTraffic)."""
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            raise SystemExit(f"bad tenant field {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    name = fields.pop("name", None)
    rate = fields.pop("rate", None)
    if not name or rate is None:
        raise SystemExit("each --tenant needs at least name= and rate=")
    weight = float(fields.pop("weight", 1.0))
    quota = int(fields.pop("quota", 2))
    apps = tuple(fields.pop("apps", "pr+bfs+wcc").split("+"))
    for app in apps:
        if app not in APPS:
            raise SystemExit(
                f"bad tenant {name!r}: unsupported app {app!r} "
                f"(supported: {', '.join(APPS)})"
            )
    deadline = fields.pop("deadline", None)
    cache_kb = fields.pop("cache-kb", None)
    queue_cap = fields.pop("queue-cap", None)
    degradable = fields.pop("degradable", "1") not in ("0", "false", "no")
    slo_latency = fields.pop("slo-latency", None)
    slo_target = float(fields.pop("slo-target", 0.99))
    slo_availability = fields.pop("slo-availability", None)
    share_reads = fields.pop("share", "1") not in ("0", "false", "no")
    result_cache = fields.pop("result-cache", "shared")
    burst = fields.pop("burst", None)
    if fields:
        raise SystemExit(f"unknown tenant fields: {', '.join(sorted(fields))}")
    burst_factor, burst_fraction = 1.0, 0.0
    if burst:
        try:
            factor_s, fraction_s = burst.split("x", 1)
            burst_factor, burst_fraction = float(factor_s), float(fraction_s)
        except ValueError:
            raise SystemExit(
                f"bad burst {burst!r} (expected FACTORxFRACTION, e.g. 4x0.2)"
            ) from None
    try:
        tenant = TenantSpec(
            name=name,
            weight=weight,
            max_concurrent=quota,
            deadline_s=float(deadline) if deadline else None,
            cache_bytes=int(float(cache_kb) * 1024) if cache_kb else None,
            queue_cap=int(queue_cap) if queue_cap else None,
            degradable=degradable,
            slo_latency_s=float(slo_latency) if slo_latency else None,
            slo_target=slo_target,
            slo_availability=(
                float(slo_availability) if slo_availability else None
            ),
            share_reads=share_reads,
            result_cache=result_cache,
        )
        traffic = TenantTraffic(
            tenant=name,
            rate_qps=float(rate),
            apps=apps,
            burst_factor=burst_factor,
            burst_fraction=burst_fraction,
        )
    except ValueError as exc:
        raise SystemExit(f"bad tenant {name!r}: {exc}") from None
    return tenant, traffic


def _make_service(args, timeline: bool = False):
    """A :class:`GraphService` plus its trace, from the shared flags.

    The service carries an :class:`Observer` when ``--trace-spans`` asks
    for one, and a :class:`TimelineSampler` for ``--timeline`` (always,
    with ``timeline=True``)."""
    image = load_dataset(args.dataset)
    parsed = [_parse_tenant(spec) for spec in args.tenant]
    tenants = [tenant for tenant, _ in parsed]
    traffics = [traffic for _, traffic in parsed]
    trace = generate_trace(traffics, args.duration, args.seed)
    fault_plan = None
    if args.fault_seed is not None:
        fault_plan = default_chaos_plan(args.fault_seed)
    if not args.overload and (args.enforce_deadlines or args.brownout):
        raise SystemExit(
            "--enforce-deadlines/--brownout need --overload to arm "
            "overload control"
        )
    try:
        overload = None
        if args.overload:
            overload = OverloadConfig(
                tenant_queue_cap=args.queue_cap,
                global_queue_cap=args.global_queue_cap,
                shed_policy=args.shed_policy,
                enforce_deadlines=args.enforce_deadlines,
                brownout=args.brownout,
                brownout_pr_iterations=args.brownout_pr_iterations,
            )
        config = ServiceConfig(
            cache_bytes=int(args.cache_mb * (1 << 20)),
            num_threads=args.threads,
            policy=args.policy,
            pr_iterations=args.pr_iterations,
            overload=overload,
            share_reads=args.share_reads,
            result_cache=args.result_cache,
            result_cache_ttl_s=args.result_cache_ttl,
        )
        service = GraphService(
            image,
            tenants,
            config,
            fault_plan=fault_plan,
            health_policy=HealthPolicy() if fault_plan is not None else None,
            observer=Observer() if args.trace_spans else None,
            timeline=(
                TimelineSampler(interval_s=args.timeline_interval)
                if timeline or args.timeline
                else None
            ),
        )
    except ValueError as exc:  # e.g. --result-cache-ttl 0 or --queue-cap 0
        raise SystemExit(f"bad service configuration: {exc}") from None
    return service, trace


def _write_traces(args, service) -> None:
    """Write the span trace and timeline table the flags asked for."""
    if args.trace_spans:
        write_jsonl(service.observer, args.trace_spans)
        print(f"wrote span trace -> {args.trace_spans}")
    if args.timeline:
        with open(args.timeline, "w") as f:
            f.write(service.timeline.to_markdown())
            f.write("\n")
        print(f"wrote timeline -> {args.timeline}")


def cmd_serve(args) -> int:
    service, trace = _make_service(args)
    report = service.serve(trace)
    print(
        f"served {report.completed}/{report.offered} queries "
        f"({report.aborted} aborted, {report.shed} shed, "
        f"{report.quota_waits} quota waits) "
        f"in {report.duration_s * 1e3:.3f} simulated ms "
        f"under the '{report.policy}' policy"
    )
    if report.overload is not None:
        summary = report.overload
        print(
            f"overload control: state={summary['state']} "
            f"transitions={summary['transitions']} "
            f"brownout={summary['brownout_seconds'] * 1e3:.3f}ms "
            f"peak queue={summary['peak_queue_depth']} "
            f"degraded={sum(summary['degraded_jobs'].values())} "
            f"deadline aborts={sum(summary['deadline_aborts'].values())}"
        )
    if report.sharing is not None:
        sharing = report.sharing
        parts = [
            f"dedup pages={sharing['dedup_pages']:.0f}",
            f"waits={sharing['dedup_waits']:.0f}",
        ]
        if sharing["result_cache"] is not None:
            rc = sharing["result_cache"]
            parts.append(
                f"result-cache hits={rc['hits']}/{rc['hits'] + rc['misses']}"
            )
        print(f"io sharing: {' '.join(parts)}")
    header = (
        f"{'tenant':<12} {'jobs':>5} {'aborts':>6} {'shed':>5} {'p50 ms':>9} "
        f"{'p99 ms':>9} {'max wait ms':>12} {'busy ms':>9}"
    )
    print(header)
    for name, tenant_report in sorted(report.tenants.items()):
        row = tenant_report.to_dict()
        print(
            f"{name:<12} {row['jobs']:>5} {row['aborts']:>6} "
            f"{row['shed']:>5} "
            f"{row['latency_p50_s'] * 1e3:>9.3f} "
            f"{row['latency_p99_s'] * 1e3:>9.3f} "
            f"{row['max_queue_wait_s'] * 1e3:>12.3f} "
            f"{row['busy_seconds'] * 1e3:>9.3f}"
        )
    _write_traces(args, service)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote report -> {args.out}")
    return 0


def cmd_slo(args) -> int:
    """A serve run with the SLO observability plane fully armed: the
    timeline sampler streams windowed snapshots, tenants' declared
    objectives feed the burn-rate tracker, and the validated
    ``repro.slo/v1`` report lands in ``--out``."""
    service, trace = _make_service(args, timeline=True)
    if service.slo is None:
        raise SystemExit(
            "repro slo needs at least one tenant declaring an objective "
            "(slo-latency= or slo-availability= in --tenant)"
        )
    report = service.serve(trace)
    label = f"{args.dataset} policy={args.policy} seed={args.seed}"
    doc = build_slo_report(report, service.slo, service.timeline, label=label)
    problems = validate_slo_report(doc)
    if problems:
        for problem in problems:
            print(f"slo report invalid: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(format_slo_report(doc))
    print(service.timeline.to_markdown())
    _write_traces(args, service)
    print(f"wrote slo report -> {args.out}")
    return 0


def cmd_bench(args) -> int:
    rows = EXPERIMENTS[args.experiment]()
    print(format_table(rows, title=args.experiment))
    return 0


def cmd_graph_stats(args) -> int:
    image = _load_image(args)
    sizes = format_size_report(image)
    rows = []
    directions = [EdgeType.OUT] + ([EdgeType.IN] if image.directed else [])
    for direction in directions:
        stats = degree_stats(image, direction)
        row = {
            "direction": direction.value,
            "mean_deg": stats.mean,
            "max_deg": stats.maximum,
        }
        row.update(degree_percentiles(image, direction))
        rows.append(row)
    print(format_table(rows, title=f"{image.name} degree distribution"))
    print(
        format_table(
            [
                {
                    "vertices": image.num_vertices,
                    "edges": image.num_edges,
                    "v1_MB": sizes["v1_bytes"] / 1e6,
                    "v2_MB": sizes["v2_bytes"] / 1e6,
                    "compression": sizes["compression_ratio"],
                    "built_format": sizes["built_format"],
                }
            ],
            title=f"{image.name} on-SSD edge-file bytes",
        )
    )
    return 0


def cmd_profile(args) -> int:
    image = load_dataset(args.dataset)
    _check_run_args(args, image)
    engine = _make_engine(image, args, mode=ExecutionMode.SEMI_EXTERNAL)
    observer = arm(engine)
    if _run_traced(engine, args, observer) is None:
        return 1
    label = f"{args.algorithm}@{args.dataset}"
    profile = build_profile(observer, label=label)
    problems = validate_profile(profile)
    if problems:
        for problem in problems:
            print(f"profile invalid: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(profile, f, indent=2, sort_keys=True)
        f.write("\n")
    print(format_profile(profile))
    print(f"wrote profile -> {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "slo":
        return cmd_slo(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "graph":
        return cmd_graph_stats(args)
    if args.command == "profile":
        return cmd_profile(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
