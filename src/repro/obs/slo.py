"""Multi-window SLO burn-rate tracking for the serving layer.

Tenants declare objectives on their :class:`~repro.serve.tenants.TenantSpec`:

- a **latency objective** ``(slo_latency_s, slo_target)`` — at least
  ``slo_target`` of the tenant's queries should complete within
  ``slo_latency_s`` of arrival (a shed or aborted query can never meet
  it, so it counts against the budget too);
- an **availability objective** ``slo_availability`` — at least that
  fraction of offered queries should be *served* at all (not shed at
  the queue caps, not aborted).

The :class:`SLOTracker` consumes the service's per-query outcome stream
on the simulated clock and maintains, per objective, a **fast** and a
**slow** sliding window (the SRE multi-window pattern: the fast window
catches a cliff quickly, the slow window keeps a brief blip from
paging).  Each window's *burn rate* is::

    burn = bad_fraction_in_window / (1 - target)

i.e. how many times faster than budgeted the error budget is burning;
``burn == 1`` exactly exhausts the budget over the objective period.  A
**burn-start** event fires when *both* windows burn at or above the
threshold, and the matching **burn-stop** fires when the fast window
falls back below it — hysteresis for free, since the slow window keeps
the condition from re-arming on a single good query.  Events carry the
DES timestamp and both burn rates, so they interleave deterministically
with the overload controller's shed/brownout events; two runs of the
same seed produce byte-identical event logs.

``python -m repro.obs.slo REPORT.json`` validates a
:data:`SLO_SCHEMA` document written by ``repro slo`` or the bench
harness, mirroring ``python -m repro.obs.report``.
"""

import json
import sys
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Tuple

#: Schema tag of the SLO report document (validated like
#: ``repro.profile/v1``).
SLO_SCHEMA = "repro.slo/v1"

#: Objective kinds, in display order.
OBJECTIVE_KINDS = ("latency", "availability")


#: Fast sliding window (simulated seconds): catches sharp error-budget
#: cliffs.
FAST_WINDOW_S = 0.02
#: Slow sliding window: confirms the burn is sustained.
SLOW_WINDOW_S = 0.1
#: Burn rate at or above which (in *both* windows) a burn starts.
BURN_THRESHOLD = 1.0


@dataclass(frozen=True)
class SLOEvent:
    """One burn-rate threshold crossing, in decision order.

    ``kind`` is ``"burn-start"`` (both windows at/over the threshold)
    or ``"burn-stop"`` (the fast window fell back under it).
    """

    time: float
    tenant: str
    objective: str
    kind: str
    fast_burn: float
    slow_burn: float


class _Window:
    """A sliding count of good/bad outcomes over simulated time."""

    __slots__ = ("span", "entries", "bad")

    def __init__(self, span: float) -> None:
        self.span = span
        self.entries = deque()  # (time, is_bad)
        self.bad = 0

    def push(self, time: float, is_bad: bool) -> None:
        self.entries.append((time, is_bad))
        if is_bad:
            self.bad += 1
        horizon = time - self.span
        while self.entries and self.entries[0][0] < horizon:
            _, old_bad = self.entries.popleft()
            if old_bad:
                self.bad -= 1

    def bad_fraction(self) -> float:
        n = len(self.entries)
        return self.bad / n if n else 0.0


class _ObjectiveState:
    """One (tenant, objective) pair's burn-tracking state."""

    __slots__ = (
        "threshold", "target", "budget", "fast", "slow", "good", "bad",
        "burning", "burn_since", "burn_seconds", "peak_fast", "peak_slow",
    )

    def __init__(self, threshold: float, target: float) -> None:
        self.threshold = threshold
        self.target = target
        self.budget = 1.0 - target
        self.fast = _Window(FAST_WINDOW_S)
        self.slow = _Window(SLOW_WINDOW_S)
        self.good = 0
        self.bad = 0
        self.burning = False
        self.burn_since = 0.0
        self.burn_seconds = 0.0
        self.peak_fast = 0.0
        self.peak_slow = 0.0


class SLOTracker:
    """Tracks every declared objective over one service run.

    Subscribed to the shed/completed/aborted events of
    :meth:`~repro.serve.service.GraphService.serve` only when armed: a
    service whose tenants declare no objectives never constructs one.
    Purely observational — it reads the outcome stream
    but never touches the shared counters, so an SLO-tracked run's
    counter snapshot stays bit-identical to an untracked one.
    """

    def __init__(self, tenants: Mapping[str, object]) -> None:
        self.events: List[SLOEvent] = []
        #: Monotone high-water clock.  The service finalizes jobs in
        #: event-loop order, whose finish times are *not* globally
        #: monotone; clamping each sample to the high-water keeps the
        #: sliding windows and the event log time-ordered (the same
        #: attribution policy as ``repro.obs.timeline``).
        self._clock = 0.0
        #: ``(tenant, objective)`` → state, insertion-ordered by the
        #: (sorted) tenant walk so iteration is deterministic.
        self._states: Dict[Tuple[str, str], _ObjectiveState] = {}
        for name in sorted(tenants):
            spec = tenants[name]
            objectives = getattr(spec, "slo_objectives", {})
            for kind in OBJECTIVE_KINDS:
                if kind in objectives:
                    threshold, target = objectives[kind]
                    self._states[(name, kind)] = _ObjectiveState(
                        threshold, target
                    )

    @property
    def active(self) -> bool:
        """Whether any tenant declared any objective."""
        return bool(self._states)

    # ------------------------------------------------------------------
    # The outcome stream
    # ------------------------------------------------------------------

    def record(
        self,
        tenant: str,
        time: float,
        outcome: str,
        latency: Optional[float] = None,
    ) -> None:
        """Feed one query outcome at simulated ``time``.

        ``outcome`` is ``"completed"``, ``"aborted"`` or ``"shed"``;
        ``latency`` is the arrival-to-finish latency for completed
        queries.  Badness per objective:

        - latency: bad unless completed within the threshold (a shed or
          aborted query never met it);
        - availability: bad unless completed.
        """
        if time > self._clock:
            self._clock = time
        time = self._clock
        for kind in OBJECTIVE_KINDS:
            state = self._states.get((tenant, kind))
            if state is None:
                continue
            if kind == "latency":
                is_bad = outcome != "completed" or (
                    latency is None or latency > state.threshold
                )
            else:
                is_bad = outcome != "completed"
            if is_bad:
                state.bad += 1
            else:
                state.good += 1
            state.fast.push(time, is_bad)
            state.slow.push(time, is_bad)
            self._advance(tenant, kind, state, time)

    def _advance(
        self, tenant: str, kind: str, state: _ObjectiveState, time: float
    ) -> None:
        fast_burn = state.fast.bad_fraction() / state.budget
        slow_burn = state.slow.bad_fraction() / state.budget
        if fast_burn > state.peak_fast:
            state.peak_fast = fast_burn
        if slow_burn > state.peak_slow:
            state.peak_slow = slow_burn
        if not state.burning:
            if fast_burn >= BURN_THRESHOLD and slow_burn >= BURN_THRESHOLD:
                state.burning = True
                state.burn_since = time
                self.events.append(
                    SLOEvent(time, tenant, kind, "burn-start", fast_burn, slow_burn)
                )
        elif fast_burn < BURN_THRESHOLD:
            state.burning = False
            state.burn_seconds += max(0.0, time - state.burn_since)
            self.events.append(
                SLOEvent(time, tenant, kind, "burn-stop", fast_burn, slow_burn)
            )

    def finish(self, now: float) -> None:
        """Close time-in-burn accounting at the end of the run."""
        for state in self._states.values():
            if state.burning:
                state.burn_seconds += max(0.0, now - state.burn_since)
                state.burn_since = now

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready tracker outcome (the deterministic event log
        included, so the byte-identity tests can serialize it)."""
        tenants: Dict[str, dict] = {}
        for (name, kind), state in self._states.items():
            total = state.good + state.bad
            tenants.setdefault(name, {})[kind] = {
                "threshold_s": state.threshold,
                "target": state.target,
                "good": state.good,
                "bad": state.bad,
                "compliance": state.good / total if total else 1.0,
                "peak_fast_burn": state.peak_fast,
                "peak_slow_burn": state.peak_slow,
                "burn_seconds": state.burn_seconds,
                "burning": state.burning,
            }
        return {
            "fast_window_s": FAST_WINDOW_S,
            "slow_window_s": SLOW_WINDOW_S,
            "burn_threshold": BURN_THRESHOLD,
            "tenants": tenants,
            "events": [asdict(event) for event in self.events],
        }


# ----------------------------------------------------------------------
# The repro.slo/v1 report document
# ----------------------------------------------------------------------

def build_slo_report(
    report,
    tracker: Optional[SLOTracker] = None,
    sampler=None,
    label: str = "",
) -> dict:
    """A :data:`SLO_SCHEMA` document from one serve run.

    ``report`` is the :class:`~repro.serve.service.ServiceReport`;
    ``tracker`` the run's :class:`SLOTracker` (``None`` when no tenant
    declared objectives); ``sampler`` the run's armed
    :class:`~repro.obs.timeline.TimelineSampler` (``None`` = no
    timeline section).  Overload events ride along from
    ``report.overload`` so the burn-rate crossings can be read against
    the shed/brownout decisions they explain.
    """
    slo = tracker.summary() if tracker is not None else report.slo
    overload_events = []
    if report.overload is not None:
        overload_events = list(report.overload.get("events", []))
    return {
        "schema": SLO_SCHEMA,
        "label": label,
        "policy": report.policy,
        "duration_s": report.duration_s,
        "offered": report.offered,
        "completed": report.completed,
        "aborted": report.aborted,
        "shed": report.shed,
        "slo": slo,
        "overload_events": overload_events,
        "timeline": list(sampler.snapshots) if sampler is not None else [],
    }


def validate_slo_report(doc: dict) -> List[str]:
    """Schema + consistency checks; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    if doc.get("schema") != SLO_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {SLO_SCHEMA!r}"
        )
    for key in (
        "duration_s", "offered", "completed", "aborted", "shed",
        "slo", "overload_events", "timeline",
    ):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    slo = doc["slo"]
    if slo is not None:
        for key in ("fast_window_s", "slow_window_s", "tenants", "events"):
            if key not in slo:
                problems.append(f"slo section missing {key!r}")
                return problems
        last = float("-inf")
        for event in slo["events"]:
            for key in ("time", "tenant", "objective", "kind", "fast_burn", "slow_burn"):
                if key not in event:
                    problems.append(f"slo event missing {key!r}")
                    return problems
            if event["time"] < last:
                problems.append("slo events are not time-ordered")
                return problems
            last = event["time"]
        for name, objectives in slo["tenants"].items():
            for kind, row in objectives.items():
                for key in (
                    "target", "good", "bad", "compliance",
                    "peak_fast_burn", "peak_slow_burn", "burn_seconds",
                ):
                    if key not in row:
                        problems.append(f"{name}/{kind} missing {key!r}")
                        return problems
                if not 0.0 <= row["compliance"] <= 1.0:
                    problems.append(
                        f"{name}/{kind} compliance {row['compliance']!r} "
                        "outside [0, 1]"
                    )
    for row in doc["timeline"]:
        for key in (
            "window", "start_s", "end_s", "tenant", "completed",
            "throughput_qps", "latency_p50_s", "latency_p99_s",
            "queue_depth", "quota_occupancy", "brownout_state",
            "unhealthy_fraction",
        ):
            if key not in row:
                problems.append(f"timeline row missing {key!r}")
                return problems
    served = doc["completed"] + doc["aborted"] + doc["shed"]
    if served != doc["offered"]:
        problems.append(
            f"accounting broken: completed + aborted + shed = {served}, "
            f"offered = {doc['offered']}"
        )
    if doc["timeline"]:
        window_total = sum(row["completed"] for row in doc["timeline"])
        if window_total != doc["completed"]:
            problems.append(
                f"timeline windows sum to {window_total} completed "
                f"queries, the report says {doc['completed']}"
            )
    return problems


def format_slo_report(doc: dict) -> str:
    """A fixed-width text rendering of the burn-rate report."""
    lines = []
    label = doc.get("label") or "slo report"
    lines.append(
        f"{label}: {doc['completed']}/{doc['offered']} completed, "
        f"{doc['aborted']} aborted, {doc['shed']} shed over "
        f"{doc['duration_s'] * 1e3:.3f} simulated ms"
    )
    slo = doc.get("slo")
    if slo:
        lines.append(
            f"{'tenant':<12} {'objective':<13} {'target':>7} {'met':>6} "
            f"{'missed':>6} {'compliance':>10} {'peak fast':>10} "
            f"{'peak slow':>10} {'burn ms':>9}"
        )
        for name, objectives in sorted(slo["tenants"].items()):
            for kind in OBJECTIVE_KINDS:
                row = objectives.get(kind)
                if row is None:
                    continue
                lines.append(
                    f"{name:<12} {kind:<13} {row['target']:>7.3f} "
                    f"{row['good']:>6} {row['bad']:>6} "
                    f"{row['compliance']:>10.4f} {row['peak_fast_burn']:>10.2f} "
                    f"{row['peak_slow_burn']:>10.2f} "
                    f"{row['burn_seconds'] * 1e3:>9.3f}"
                )
        merged = [
            ("slo", e["time"], f"{e['tenant']}/{e['objective']} {e['kind']} "
             f"(fast {e['fast_burn']:.2f}, slow {e['slow_burn']:.2f})")
            for e in slo["events"]
        ] + [
            ("overload", e["time"], f"{e['kind']} {e.get('tenant') or '-'} "
             f"{e.get('detail', '')}".rstrip())
            for e in doc.get("overload_events", [])
        ]
        merged.sort(key=lambda row: (row[1], row[0]))
        if merged:
            lines.append(f"{len(merged)} events (burn-rate + overload, merged):")
            for source, time, text in merged:
                lines.append(f"  t={time * 1e3:9.3f}ms [{source:>8}] {text}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Validate an SLO report: ``python -m repro.obs.slo FILE``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.slo REPORT.json", file=sys.stderr)
        return 2
    try:
        doc = json.loads(open(argv[0]).read())
    except (OSError, ValueError) as exc:
        print(f"cannot read {argv[0]}: {exc}", file=sys.stderr)
        return 1
    problems = validate_slo_report(doc)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    events = len(doc["slo"]["events"]) if doc.get("slo") else 0
    print(
        f"{argv[0]}: valid {SLO_SCHEMA} report, "
        f"{len(doc['timeline'])} timeline rows, {events} burn events"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
