"""Turn a trace into a per-iteration, per-layer simulated-time profile.

The profile decomposes each iteration's wall span into four layers:

- **compute** — the mean per-worker CPU-busy delta (computation that ran
  while I/O was in flight counts here, which is exactly the overlap the
  paper's engine is designed to create);
- **queue** — time requests waited in device queues;
- **service** — time devices spent transferring data;
- **recovery** — retries, backoff waits and parity reconstruction work.

The non-compute remainder of the span (the *stall*) is allocated across
queue/service/recovery proportionally to the device-seconds the tracer
measured for each, so the four layers sum exactly to the iteration span
and the totals sum to the simulated runtime (within :data:`TICK_SECONDS`,
one DES tick of float slack — validated by :func:`validate_profile`).

``python -m repro.obs.report PROFILE.json`` validates a profile document
written by ``repro profile`` or the bench harness.
"""

import json
import sys
from typing import Dict, List, Optional

#: Schema tag of the profile document.
PROFILE_SCHEMA = "repro.profile/v1"

#: One DES tick: the float tolerance the breakdown must sum within.
TICK_SECONDS = 1e-9

#: The four layers, in display order.
LAYERS = ("compute", "queue", "service", "recovery")


def build_profile(observer, label: str = "") -> dict:
    """A :data:`PROFILE_SCHEMA` document from an armed run's observer."""
    iterations: List[dict] = []
    totals = {layer: 0.0 for layer in LAYERS}
    runtime = offset = 0.0
    for row in observer.iterations:
        if row["start"] < runtime - offset:
            # A multi-run driver (bc's two sweeps) starts each run's clock
            # at 0; its runtime is the sum of the runs', as its
            # RunResult's is.
            offset = runtime
        span = row["end"] - row["start"]
        workers = row["workers"]
        compute = row["busy_sum"] / workers if workers else 0.0
        if compute > span:
            compute = span
        stall = span - compute
        weights = (row["queue_s"], row["service_s"], row["recovery_s"])
        total_weight = weights[0] + weights[1] + weights[2]
        if stall > 0.0 and total_weight > 0.0:
            queue = stall * weights[0] / total_weight
            service = stall * weights[1] / total_weight
            recovery = stall - queue - service
        else:
            # No device activity measured: the whole span is compute
            # (barrier overhead and idle waits included).
            compute = span
            queue = service = recovery = 0.0
        iterations.append(
            {
                "iteration": row["iteration"],
                "start_s": row["start"],
                "end_s": row["end"],
                "frontier": row["frontier"],
                "compute_s": compute,
                "queue_s": queue,
                "service_s": service,
                "recovery_s": recovery,
            }
        )
        totals["compute"] += compute
        totals["queue"] += queue
        totals["service"] += service
        totals["recovery"] += recovery
        runtime = offset + row["end"]
    return {
        "schema": PROFILE_SCHEMA,
        "label": label,
        "runtime_s": runtime,
        "iterations": iterations,
        "totals": {f"{layer}_s": totals[layer] for layer in LAYERS},
    }


def validate_profile(profile: dict) -> List[str]:
    """Schema + arithmetic checks; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(profile, dict):
        return ["profile is not a JSON object"]
    if profile.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema is {profile.get('schema')!r}, expected {PROFILE_SCHEMA!r}"
        )
    for key in ("runtime_s", "iterations", "totals"):
        if key not in profile:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    totals = profile["totals"]
    for layer in LAYERS:
        if f"{layer}_s" not in totals:
            problems.append(f"totals missing {layer}_s")
    rows = profile["iterations"]
    layer_keys = tuple(f"{layer}_s" for layer in LAYERS)
    for row in rows:
        for key in ("iteration", "start_s", "end_s") + layer_keys:
            if key not in row:
                problems.append(f"iteration row missing {key!r}")
                return problems
        span = row["end_s"] - row["start_s"]
        total = sum(row[key] for key in layer_keys)
        if abs(total - span) > TICK_SECONDS:
            problems.append(
                f"iteration {row['iteration']}: layers sum to {total!r}, "
                f"span is {span!r}"
            )
    if rows:
        # Iterations tile [0, runtime]: each starts at its predecessor's
        # barrier, so the totals must sum to the simulated runtime.
        grand = sum(sum(row[key] for key in layer_keys) for row in rows)
        budget = TICK_SECONDS * (len(rows) + 1)
        if abs(grand - profile["runtime_s"]) > budget:
            problems.append(
                f"totals sum to {grand!r}, runtime is {profile['runtime_s']!r}"
            )
    return problems


def format_profile(profile: dict) -> str:
    """A fixed-width text rendering of the breakdown."""
    lines = []
    label = profile.get("label") or "profile"
    lines.append(f"{label}: {profile['runtime_s']:.6f}s simulated over "
                 f"{len(profile['iterations'])} iterations")
    header = f"{'iter':>4} {'span_ms':>10}" + "".join(
        f" {layer + '_ms':>12}" for layer in LAYERS
    )
    lines.append(header)
    for row in profile["iterations"]:
        span = row["end_s"] - row["start_s"]
        lines.append(
            f"{row['iteration']:>4} {span * 1e3:>10.4f}"
            + "".join(f" {row[f'{layer}_s'] * 1e3:>12.4f}" for layer in LAYERS)
        )
    totals = profile["totals"]
    runtime = profile["runtime_s"]
    parts = []
    for layer in LAYERS:
        value = totals[f"{layer}_s"]
        share = value / runtime if runtime > 0 else 0.0
        parts.append(f"{layer} {value * 1e3:.4f}ms ({share:.1%})")
    lines.append("totals: " + ", ".join(parts))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Validate a profile document: ``python -m repro.obs.report FILE``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.report PROFILE.json", file=sys.stderr)
        return 2
    try:
        profile = json.loads(open(argv[0]).read())
    except (OSError, ValueError) as exc:
        print(f"cannot read {argv[0]}: {exc}", file=sys.stderr)
        return 1
    problems = validate_profile(profile)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(
        f"{argv[0]}: valid {PROFILE_SCHEMA} profile, "
        f"{len(profile['iterations'])} iterations, "
        f"runtime {profile['runtime_s']:.6f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
