"""Overload control: bounded queues, shedding, deadlines, brownout.

Without it the service queues arrivals without bound and never gives up
on a job, so once the array loses bandwidth every tenant's tail latency
collapses together.  This module lets the service *degrade
deliberately* instead:

- **Bounded admission queues** — a per-tenant and a global cap on how
  many revealed arrivals may wait for admission.  A full queue sheds a
  query under a deterministic policy (:data:`SHED_POLICIES`); the shed
  decision is a pure function of the queue contents, so the same trace
  sheds the same queries byte for byte.
- **Deadline enforcement** — queued queries whose deadline already
  passed are dropped (running them can only waste array bandwidth), and
  *running* jobs are cancelled at an iteration barrier once a
  progress-based estimate says their deadline is unreachable
  (:meth:`OverloadController.deadline_unreachable`), returning partial
  results exactly like an I/O abort does.
- **An overload detector driving a brownout state machine** — a
  sliding window over *simulated* time tracks queue depth, queue-wait
  level and trend, and the fraction of unhealthy devices; the combined
  pressure signal drives ``healthy → overloaded → brownout →
  recovering`` with hysteresis (consecutive-sample counts, not
  instantaneous flips).  In brownout, admitted work is deterministically
  downgraded per tenant policy — PageRank's iteration cap is lowered
  and its tolerance coarsened — and recovery restores full fidelity.

Everything is driven by the service's DES clock and the deterministic
queue state: no wall clock, no RNG.  The controller keeps an ordered
:attr:`OverloadController.events` log (sheds, deadline drops/aborts,
state transitions); two runs of the same seed produce byte-identical
logs, which the determinism tests pin.
"""

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import registry as reg

#: Deterministic shed policies for a full admission queue.
#:
#: - ``reject-newest`` — drop the arriving query (the queue keeps its
#:   accumulated waiting investment);
#: - ``by-priority`` — drop the *worst-ranked* query under the
#:   service's own scheduling order (fair → highest share; deadline →
#:   latest deadline; fifo → newest), ties broken by trace index.
SHED_POLICIES = ("reject-newest", "by-priority")

#: Brownout state machine states, in escalation order.
STATE_HEALTHY = "healthy"
STATE_OVERLOADED = "overloaded"
STATE_BROWNOUT = "brownout"
STATE_RECOVERING = "recovering"
OVERLOAD_STATES = (
    STATE_HEALTHY,
    STATE_OVERLOADED,
    STATE_BROWNOUT,
    STATE_RECOVERING,
)

# The detector's fixed tuning (simulated seconds and pressure units).
#: Sliding signal window.
WINDOW_S = 0.02
#: Minimum simulated time between detector samples.
SAMPLE_PERIOD_S = 0.001
#: Pressure at or above which healthy/recovering escalates.
OVERLOAD_ENTER = 0.75
#: Pressure at or below which the service may start recovering.
OVERLOAD_EXIT = 0.35
#: Sustained pressure at which overloaded escalates to brownout.
BROWNOUT_ENTER = 1.25
#: Consecutive samples over a threshold before escalating.
ENTER_SAMPLES = 2
#: Consecutive samples under ``OVERLOAD_EXIT`` before de-escalating.
EXIT_SAMPLES = 4
#: Weight of the unhealthy-device fraction in the pressure signal.
HEALTH_WEIGHT = 1.0
#: Brownout: factor coarsening degraded PageRank tolerance.
BROWNOUT_TOLERANCE_FACTOR = 100.0


@dataclass(frozen=True)
class OverloadConfig:
    """The overload-control knobs (see ``docs/overload.md``).

    ``ServiceConfig.overload is None`` disables the whole subsystem.
    """

    #: Default waiting-queue cap per tenant (``TenantSpec.queue_cap``
    #: overrides per tenant); the count includes quota-blocked waiters.
    tenant_queue_cap: int = 8
    #: Cap on the total number of waiting queries across tenants.
    global_queue_cap: int = 24
    #: One of :data:`SHED_POLICIES`.
    shed_policy: str = "reject-newest"
    #: Drop queued queries whose deadline already expired, and cancel
    #: running jobs whose deadline the progress estimate says is
    #: unreachable.
    enforce_deadlines: bool = False
    #: Arm the overload detector + brownout state machine.
    brownout: bool = False
    #: Queue wait that counts as one full unit of pressure.
    wait_budget_s: float = 0.02
    #: Brownout: iteration cap applied to degraded ``pr``/``pr30``.
    brownout_pr_iterations: int = 2

    def __post_init__(self) -> None:
        if self.tenant_queue_cap < 1:
            raise ValueError("tenant_queue_cap must be at least 1")
        if self.global_queue_cap < 1:
            raise ValueError("global_queue_cap must be at least 1")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r} "
                f"(one of {', '.join(SHED_POLICIES)})"
            )
        if self.wait_budget_s <= 0.0:
            raise ValueError("wait_budget_s must be positive")
        if self.brownout_pr_iterations < 1:
            raise ValueError("brownout_pr_iterations must be at least 1")


@dataclass(frozen=True)
class OverloadEvent:
    """One overload-control decision, in decision order.

    ``kind`` is one of ``"shed"`` (queue-cap shed),
    ``"deadline-expired"`` (queued query dropped past its deadline),
    ``"deadline-abort"`` (running job cancelled at a barrier) or
    ``"state"`` (brownout state transition; ``detail`` holds
    ``old->new``).
    """

    time: float
    kind: str
    tenant: str
    app: str
    index: int
    detail: str = ""


@dataclass
class ShedRecord:
    """One query the service refused to run (never became a job)."""

    tenant: str
    app: str
    arrival_time: float
    shed_time: float
    #: ``"queue-cap"`` or ``"deadline-expired"``.
    reason: str
    index: int

    @property
    def age(self) -> float:
        """How long the query waited before being shed."""
        return self.shed_time - self.arrival_time


class OverloadController:
    """The service's overload detector and brownout state machine.

    One controller per :class:`~repro.serve.service.GraphService` run.
    The service's event loop calls :meth:`note_time` whenever its
    frontier crosses :attr:`next_boundary_s` (the clocked-subscriber
    shape it shares with the timeline sampler); a due
    sample reads ``signal(now)`` — ``(queue_depth, mean_wait,
    health_fraction)`` — into :meth:`observe`.  The service also
    consults the controller for shed victims, deadline verdicts and the
    current degradation level; the controller records every decision in
    :attr:`events`.
    """

    def __init__(
        self,
        config: OverloadConfig,
        tenants: Mapping[str, "object"],
        signal: Optional[Callable[[float], Tuple[int, float, float]]] = None,
    ) -> None:
        self.config = config
        self._specs = dict(tenants)
        self._signal = signal
        self.state = STATE_HEALTHY
        self.events: List[OverloadEvent] = []
        #: ``(time, pressure)`` samples inside the sliding window.
        self._samples: List[Tuple[float, float]] = []
        self._last_sample = -math.inf
        #: No detector sample falls due before this simulated time.
        self.next_boundary_s = -math.inf
        self._over_streak = 0
        self._brownout_streak = 0
        self._under_streak = 0
        self.transitions = 0
        #: Simulated seconds spent in brownout (state entry to exit).
        self.brownout_seconds = 0.0
        self._state_since = 0.0
        #: Peak waiting-queue depth ever seen, global and per tenant.
        self.peak_queue_depth = 0
        self.peak_tenant_depth: Dict[str, int] = {name: 0 for name in self._specs}
        self.sheds: Dict[str, int] = {name: 0 for name in self._specs}
        self.deadline_aborts: Dict[str, int] = {name: 0 for name in self._specs}
        self.degraded_jobs: Dict[str, int] = {name: 0 for name in self._specs}

    # -- queue caps -----------------------------------------------------

    def tenant_cap(self, tenant: str) -> int:
        spec = self._specs[tenant]
        cap = getattr(spec, "queue_cap", None)
        return cap if cap is not None else self.config.tenant_queue_cap

    def note_depth(self, total: int, per_tenant: Mapping[str, int]) -> None:
        """Track peak queue depth (global and per tenant)."""
        if total > self.peak_queue_depth:
            self.peak_queue_depth = total
        for name, depth in per_tenant.items():
            if depth > self.peak_tenant_depth.get(name, 0):
                self.peak_tenant_depth[name] = depth

    def choose_victim(self, candidates, order_key):
        """The queue entry to shed, per the configured policy.

        ``candidates`` are the waiting entries in the violated scope
        (one tenant's queue for a tenant-cap breach, the whole queue for
        a global breach) *plus* the arriving entry; ``order_key`` is the
        service's scheduling key (lower = served sooner).  Deterministic:
        ties always break on the arrival's trace index.
        """
        if self.config.shed_policy == "reject-newest":
            return max(candidates, key=lambda w: (w.arrival.time, w.arrival.index))
        # by-priority: shed the entry the scheduler would serve last.
        return max(candidates, key=lambda w: (order_key(w), w.arrival.index))

    def _log(self, time: float, kind: str, arrival, detail: str) -> None:
        self.events.append(
            OverloadEvent(
                time, kind, arrival.tenant, arrival.app, arrival.index, detail
            )
        )

    def record_shed(self, arrival, shed_time: float, reason: str) -> ShedRecord:
        queue_cap = reason == "queue-cap"
        kind = "shed" if queue_cap else "deadline-expired"
        self._log(shed_time, kind, arrival, reason)
        tally = self.sheds if queue_cap else self.deadline_aborts
        tally[arrival.tenant] = tally.get(arrival.tenant, 0) + 1
        return ShedRecord(
            tenant=arrival.tenant,
            app=arrival.app,
            arrival_time=arrival.time,
            shed_time=shed_time,
            reason=reason,
            index=arrival.index,
        )

    # -- deadline enforcement -------------------------------------------

    def deadline_unreachable(
        self,
        now: float,
        start: float,
        deadline: float,
        iterations: int,
        max_iterations: Optional[int],
        frontier_size: int,
    ) -> Optional[str]:
        """Why the running job cannot make its deadline (``None`` = it
        still can, as far as the progress trend shows).

        Three deterministic rules, in order:

        1. the deadline already passed — any further work is waste;
        2. the job has an iteration cap: extrapolating the observed
           per-iteration time over the remaining iterations overshoots;
        3. no cap, but the frontier is non-empty (at least one more
           iteration must run) and even one more average iteration
           overshoots.
        """
        if now >= deadline:
            return f"deadline passed at t={deadline:.6f}"
        if iterations < 1:
            return None  # no progress signal yet; never abort blind
        per_iteration = (now - start) / iterations
        if max_iterations is not None:
            remaining = max_iterations - iterations
            if remaining > 0 and now + per_iteration * remaining > deadline:
                return (
                    f"{remaining} iterations left at "
                    f"{per_iteration * 1e3:.3f}ms each overshoot "
                    f"t={deadline:.6f}"
                )
        elif frontier_size > 0 and now + per_iteration > deadline:
            return (
                f"frontier of {frontier_size} needs another "
                f"{per_iteration * 1e3:.3f}ms iteration past t={deadline:.6f}"
            )
        return None

    def record_deadline_abort(self, arrival, time: float, detail: str) -> None:
        self._log(time, "deadline-abort", arrival, detail)
        tally = self.deadline_aborts
        tally[arrival.tenant] = tally.get(arrival.tenant, 0) + 1

    # -- the detector and state machine ---------------------------------

    def note_time(self, now: float) -> None:
        """Take one detector sample at simulated ``now`` if one is due."""
        if now - self._last_sample >= SAMPLE_PERIOD_S:
            self.observe(now, *self._signal(now))

    def observe(
        self,
        now: float,
        queue_depth: int,
        mean_wait: float,
        health_fraction: float,
    ) -> None:
        """Feed one signal sample and run the state machine.

        ``queue_depth`` is the current waiting count, ``mean_wait`` the
        mean age of waiting queries at ``now``, ``health_fraction`` the
        fraction of devices dead/failed/quarantined.  Pressure combines
        the depth (relative to the global cap), the wait level and its
        trend across the window (relative to ``wait_budget_s``), and the
        weighted health fraction.
        """
        cfg = self.config
        self._last_sample = now
        # Half a period early: note_time makes the exact due test, so
        # rounding in this sum can never skip a sample that is due.
        self.next_boundary_s = now + SAMPLE_PERIOD_S / 2
        horizon = now - WINDOW_S
        self._samples = [(t, p) for t, p in self._samples if t >= horizon]
        depth_term = queue_depth / cfg.global_queue_cap
        wait_term = mean_wait / cfg.wait_budget_s
        pressure = depth_term + wait_term + HEALTH_WEIGHT * health_fraction
        if self._samples:
            # Positive wait/depth slope across the window adds pressure:
            # a *growing* backlog is worse than a static one.
            oldest = self._samples[0][1]
            pressure += max(0.0, (pressure - oldest) / 2.0)
        self._samples.append((now, pressure))
        self._advance_state(now, pressure)

    def _advance_state(self, now: float, pressure: float) -> None:
        self._over_streak = self._over_streak + 1 if pressure >= OVERLOAD_ENTER else 0
        self._brownout_streak = (
            self._brownout_streak + 1 if pressure >= BROWNOUT_ENTER else 0
        )
        self._under_streak = self._under_streak + 1 if pressure <= OVERLOAD_EXIT else 0
        state = self.state
        if state == STATE_HEALTHY:
            if self._over_streak >= ENTER_SAMPLES:
                self._transition(now, STATE_OVERLOADED)
        elif state == STATE_OVERLOADED:
            if self._brownout_streak >= ENTER_SAMPLES:
                self._transition(now, STATE_BROWNOUT)
            elif self._under_streak >= EXIT_SAMPLES:
                self._transition(now, STATE_RECOVERING)
        elif state == STATE_BROWNOUT:
            if self._under_streak >= EXIT_SAMPLES:
                self._transition(now, STATE_RECOVERING)
        elif state == STATE_RECOVERING:
            if self._over_streak >= ENTER_SAMPLES:
                self._transition(now, STATE_OVERLOADED)
            elif self._under_streak >= 2 * EXIT_SAMPLES:
                self._transition(now, STATE_HEALTHY)

    def _transition(self, now: float, new_state: str) -> None:
        if self.state == STATE_BROWNOUT:
            self.brownout_seconds += now - self._state_since
        detail = f"{self.state}->{new_state}"
        self.state = new_state
        self._state_since = now
        self.transitions += 1
        # Streaks reset on every transition so each state re-earns its
        # exit: that is the hysteresis.
        self._over_streak = 0
        self._brownout_streak = 0
        self._under_streak = 0
        self.events.append(
            OverloadEvent(
                time=now, kind="state", tenant="", app="", index=-1, detail=detail
            )
        )

    def finish(self, now: float) -> None:
        """Close time-in-state accounting at the end of the run."""
        if self.state == STATE_BROWNOUT:
            self.brownout_seconds += max(0.0, now - self._state_since)
            self._state_since = now

    # -- degradation ----------------------------------------------------

    def degrades(self, tenant: str) -> bool:
        """Whether work admitted for ``tenant`` right now is downgraded."""
        if self.state != STATE_BROWNOUT:
            return False
        spec = self._specs.get(tenant)
        return bool(getattr(spec, "degradable", True))

    def note_degraded(self, tenant: str) -> None:
        self.degraded_jobs[tenant] = self.degraded_jobs.get(tenant, 0) + 1

    # -- reporting ------------------------------------------------------

    def counters(self, tenants: List[str]) -> Dict[str, float]:
        """The overload ``serve.*`` counters, in flush order."""
        rows = {
            reg.SERVE_SHED_TOTAL: sum(self.sheds.values()),
            reg.SERVE_DEADLINE_ABORTS_TOTAL: sum(self.deadline_aborts.values()),
            reg.SERVE_BROWNOUT_TRANSITIONS: self.transitions,
            reg.SERVE_BROWNOUT_SECONDS: self.brownout_seconds,
            reg.SERVE_OVERLOAD_PEAK_QUEUE_DEPTH: self.peak_queue_depth,
        }
        for name in tenants:
            rows[f"{reg.SERVE_SHED}.{name}"] = self.sheds.get(name, 0)
            rows[f"{reg.SERVE_DEADLINE_ABORTS}.{name}"] = (
                self.deadline_aborts.get(name, 0)
            )
            rows[f"{reg.SERVE_BROWNOUT_DEGRADED}.{name}"] = (
                self.degraded_jobs.get(name, 0)
            )
        return rows

    def summary(self) -> dict:
        """JSON-ready controller outcome (the deterministic event log
        included — the byte-identity tests serialize this)."""
        return {
            "state": self.state,
            "transitions": self.transitions,
            "brownout_seconds": self.brownout_seconds,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_tenant_depth": dict(sorted(self.peak_tenant_depth.items())),
            "shed": dict(sorted(self.sheds.items())),
            "deadline_aborts": dict(sorted(self.deadline_aborts.items())),
            "degraded_jobs": dict(sorted(self.degraded_jobs.items())),
            "events": [asdict(event) for event in self.events],
        }
