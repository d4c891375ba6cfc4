#!/usr/bin/env python3
"""The two-clock benchmark: five workloads, eleven end-to-end metrics in
host and simulated time, and a per-layer attribution of both.

    python3 benchmarks/perf/run.py                      # all five workloads, one subprocess each
    python3 benchmarks/perf/run.py --traced             # ... then a traced run of each
    python3 benchmarks/perf/run.py --workload serve-clean --seed 1
    python3 benchmarks/perf/run.py --compare A/results.json B/results.json

``--workload`` runs one workload in this process and ends with the
one-line JSON result ``BENCHMARK.json``'s driver reads (``--trace 0``:
the gated end-to-end metrics, ``--trace 1``: every per-layer metric).
See README.md for the metrics, the layer table and how to read a trace.
"""

import os

# One host thread: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

import metrics as m

#: Set-up repetitions (generate + build + construct); the median is reported.
SETUP_REPEATS = 3
WORKLOAD_NAMES = m.ALL
_UNITS = {metric.name: metric.unit for metric in m.END_TO_END}
_UNITS.update({name: unit for name, unit, _ in m.PER_LAYER})


def _same(a, b) -> bool:
    """Exact equality of two output dicts holding arrays or lists."""
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


def _identical(label, first, other) -> list:
    """Simulated metrics, exact counts and outputs must not differ."""
    failures = []
    for field in ("sim", "counts"):
        left, right = getattr(first, field), getattr(other, field)
        moved = {k: (left[k], right.get(k)) for k in left if left[k] != right.get(k)}
        if moved:
            failures.append(f"{label}: {field} not byte-identical: {moved}")
    if not _same(first.outputs, other.outputs):
        failures.append(f"{label}: program outputs differ")
    return failures


def _timed_passes(seconds, limit, run):
    """Run ``run()`` until ``limit`` passes are done or the time budget
    is spent — always at least once."""
    start = time.perf_counter()
    done = 0
    while done < limit and (done == 0 or time.perf_counter() - start < seconds):
        run()
        done += 1


def run_untraced(workload, seed, seconds):
    """Set-up x3, the timed passes, then every output check."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ctx = workload.setup(seed)
        setups.append(time.perf_counter() - start)
    passes = []
    _timed_passes(seconds, workload.passes, lambda: passes.append(workload.execute(ctx)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    failures = [v for p in passes for v in p.violations]
    for index, other in enumerate(passes[1:], start=1):
        failures += _identical(f"pass {index} vs pass 0", first, other)
    check_failures = workload.verify(ctx, first)
    failures += check_failures
    if seed == 0:
        from workloads import SEED0_ROWS

        for name, want in SEED0_ROWS.get(workload.name, {}).items():
            if first.sim[name] != want:
                failures.append(
                    f"seed 0 {name} = {first.sim[name]!r}, BENCH_wallclock.json has {want!r}"
                )
    walls = [p.wall_s for p in passes]
    rates = [p.counts["core.edges_delivered"] / p.wall_s for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not workload.served:
        failed = min(len(check_failures), attempted)
    values = {
        "wall_s": statistics.median(walls),
        "edges_per_wall_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
        **first.sim,
        "failed_frac": failed / attempted,
    }
    wanted = [e.name for e in m.END_TO_END if workload.name in e.workloads]
    return {
        "passes": len(passes),
        "metrics": {name: values[name] for name in wanted},
        "samples": {"wall_s": walls, "edges_per_wall_s": rates, "setup_s": setups},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def run_traced(workload, seed, seconds, out):
    """Untraced/traced pass pairs: exact counts from the untraced pass,
    host self-times from the traced one, the difference is the tracing
    overhead.  The two batch SEM workloads add one ``arm()``-ed pass for
    the simulated-time split."""
    from repro.obs import TICK_SECONDS, Observer, build_profile

    from tracing import LAYERS, Tracer

    ctx = workload.setup(seed)
    tracer = Tracer()
    tracer.per_query = workload.served
    plain, traced = [], []

    def pair():
        plain.append(workload.execute(ctx))
        tracer.current_unit = -1 if workload.served else len(traced)
        with tracer.installed():
            traced.append(workload.execute(ctx))

    _timed_passes(seconds, max(1, workload.passes // 2), pair)
    first = plain[0]
    failures = [v for p in plain + traced for v in p.violations]
    for index, other in enumerate(traced):
        failures += _identical(f"traced pass {index} vs untraced", first, other)

    values = {name: 0.0 for name, _, _ in m.PER_LAYER}
    values.update(first.sim)
    values.update(first.counts)
    values["failed_frac"] = first.failed / first.attempted if workload.served else 0.0
    layer_times, roots = tracer.layer_times()
    for layer in LAYERS:
        self_s, calls = layer_times[layer]
        values[f"{layer}.self_s"] = self_s / len(traced)
        if f"{layer}.calls" in values:
            values[f"{layer}.calls"] = calls / len(traced)
    tiled = sum(self_s for self_s, _ in layer_times.values())
    if abs(tiled - roots) > 1e-6 * max(1.0, roots):
        failures.append(f"layer self-times sum to {tiled!r}, root spans to {roots!r}")
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    if not workload.served and "sim_bytes_read" in first.sim:
        observer = Observer()
        failures += _identical("armed pass vs untraced", first, workload.execute(ctx, observer))
        profile = build_profile(observer)
        totals = profile["totals"]
        budget = TICK_SECONDS * (len(profile["iterations"]) + 1)
        if abs(sum(totals.values()) - first.sim["sim_runtime_s"]) > budget:
            failures.append(
                f"simulated-time split sums to {sum(totals.values())!r}, "
                f"sim_runtime_s is {first.sim['sim_runtime_s']!r}"
            )
        for layer in ("compute", "queue", "service", "recovery"):
            values[f"sim.time.{layer}_s"] = totals[f"{layer}_s"]

    if out is not None:
        unit_names = None
        if workload.served:
            unit_names = dict(zip(tracer.finished, traced[-1].outputs["finish_order"]))
        tracer.write_jsonl(out / f"trace.{workload.name}.jsonl", unit_names)
    return {
        "passes": len(traced),
        "metrics": values,
        "samples": {
            "wall_s": [p.wall_s for p in plain],
            "traced_wall_s": [p.wall_s for p in traced],
        },
        "attempted": sum(p.attempted for p in plain + traced),
        "failed": sum(p.failed for p in plain + traced) if workload.served else 0,
        "failures": failures,
    }


def run_workload(name, seed, seconds, traced, out) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    print(
        f"# {name} seed={seed} trace={int(traced)} host_threads=1; modelled page cache starts "
        "empty; device model unvalidated against hardware"
    )
    if workload.served:
        print(
            "# gen_late_s=0: the open-loop trace is pre-drawn on the simulated clock and revealed "
            "by simulated time, so the generator cannot run late; latency is timed from Arrival.time"
        )
    workload.execute(workload.setup(seed, warm=True))  # untimed warm-up
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    if traced:
        result = run_traced(workload, seed, seconds, out)
    else:
        result = run_untraced(workload, seed, seconds)
    result.update(workload=name, seed=seed, traced=bool(traced))
    for metric, value in result["metrics"].items():
        print(f"{name:<20} {metric:<30} {value:>16.6f} {_UNITS[metric]}")
    for failure in result["failures"]:
        print(f"CHECK FAILED {name}: {failure}", file=sys.stderr)
    if out is not None:
        suffix = ".traced" if traced else ""
        (out / f"result.{name}{suffix}.json").write_text(json.dumps(result, indent=1) + "\n")
    reported = [n for n, _, _ in m.PER_LAYER] if traced else list(m.GATED)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": result["metrics"].get(n, 0.0), "unit": _UNITS[n]} for n in reported
        },
    }))
    return 1 if result["failures"] else 0


def run_all(seed, seconds, traced, out) -> int:
    """Each workload in its own fresh subprocess; results gathered into
    ``<out>/results.json`` (appended to, so repeated sets accumulate)."""
    status = 0
    runs = []
    for trace in (0, 1) if traced else (0,):
        for name in WORKLOAD_NAMES:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(out),
            ]
            result = out / f"result.{name}{'.traced' if trace else ''}.json"
            result.unlink(missing_ok=True)
            start = time.perf_counter()
            code = subprocess.run(command).returncode
            print(f"# {name} trace={trace}: exit {code} in {time.perf_counter() - start:.1f} s")
            status = status or code
            if result.exists():
                runs.append(json.loads(result.read_text()))
    results = out / "results.json"
    if results.exists():
        runs = json.loads(results.read_text())["runs"] + runs
    results.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"# {len(runs)} runs in {results}; " + ("ALL CHECKS PASSED" if not status else "FAILED"))
    return status


def run_compare(a_path, b_path) -> int:
    a = json.loads(Path(a_path).read_text())["runs"]
    b = json.loads(Path(b_path).read_text())["runs"]
    lines, problems = m.compare(a, b)
    print("\n".join(lines))
    print(f"# {problems} breached or unresolved rows")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget for the timed passes (at least one always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path,
                        help="write result.<workload>.json and, when traced, trace.<workload>.jsonl "
                             "here (all-workloads mode: also results.json; default benchmarks/perf/out)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, args.trace, args.out)
    out = args.out or HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    return run_all(args.seed, args.seconds, args.trace, out)


if __name__ == "__main__":
    sys.exit(main())
