"""Seeded, replayable open-loop traffic generation.

Arrivals are *open-loop*: the full trace is drawn up front from the
seed, so the load never adapts to how slowly the service runs — the
property that makes sustained-QPS-vs-p99 curves honest (an overloaded
service keeps receiving arrivals it cannot absorb).

Each tenant draws an independent Poisson process (its own
``default_rng([seed, tenant_index])`` stream), optionally modulated by
deterministic ON/OFF burst windows: within an ON window the rate is
``burst_factor`` times the base, and the OFF rate is scaled down so the
long-run mean stays ``rate_qps``.  Window crossings re-draw the
exponential gap, which is exact for a Poisson process (memorylessness).
App choice per arrival is an independent weighted draw; the default
weights are Zipf (``1/(rank+1)``), the classic skew of a shared query
service.  Same seed → byte-identical trace, always.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One query arrival in the merged trace."""

    #: Arrival time in simulated seconds.
    time: float
    #: Tenant the query belongs to.
    tenant: str
    #: Algorithm to run (one of :data:`repro.serve.queries.APPS`).
    app: str
    #: Global index in the merged trace (ties broken deterministically).
    index: int


@dataclass(frozen=True)
class TenantTraffic:
    """One tenant's arrival process."""

    tenant: str
    #: Long-run mean arrival rate in queries per simulated second.
    rate_qps: float
    #: Apps this tenant issues, most-popular first.
    apps: Tuple[str, ...] = ("pr", "bfs", "wcc")
    #: Per-app probabilities; ``None`` = Zipf over ``apps``.
    app_weights: Optional[Tuple[float, ...]] = None
    #: ON-window rate multiplier (1.0 = no bursts).
    burst_factor: float = 1.0
    #: Fraction of each period spent in the ON window.
    burst_fraction: float = 0.0
    #: Burst period in simulated seconds.
    burst_period_s: float = 0.05

    def __post_init__(self) -> None:
        if self.rate_qps <= 0.0:
            raise ValueError("rate_qps must be positive")
        if not self.apps:
            raise ValueError("a tenant must issue at least one app")
        if self.app_weights is not None and len(self.app_weights) != len(self.apps):
            raise ValueError("app_weights must match apps")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1.0")
        if not 0.0 <= self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must lie in [0, 1)")
        if self.burst_factor > 1.0 and self.burst_fraction > 0.0:
            # The OFF rate must stay non-negative for the mean to hold.
            if self.burst_factor * self.burst_fraction > 1.0:
                raise ValueError(
                    "burst_factor * burst_fraction must be <= 1 (the OFF "
                    "windows cannot have negative rate)"
                )
        if self.burst_period_s <= 0.0:
            raise ValueError("burst_period_s must be positive")

    @property
    def bursty(self) -> bool:
        return self.burst_factor > 1.0 and self.burst_fraction > 0.0

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        if not self.bursty:
            return self.rate_qps
        phase = t % self.burst_period_s
        if phase < self.burst_fraction * self.burst_period_s:
            return self.rate_qps * self.burst_factor
        off_share = 1.0 - self.burst_factor * self.burst_fraction
        return self.rate_qps * off_share / (1.0 - self.burst_fraction)

    def normalized_weights(self) -> np.ndarray:
        if self.app_weights is not None:
            weights = np.asarray(self.app_weights, dtype=np.float64)
        else:
            weights = 1.0 / (np.arange(len(self.apps)) + 1.0)
        total = weights.sum()
        if total <= 0.0 or np.any(weights < 0.0):
            raise ValueError("app weights must be non-negative with a positive sum")
        return weights / total


def _arrival_times(
    traffic: TenantTraffic, duration_s: float, rng: np.random.Generator
) -> List[float]:
    """One tenant's Poisson arrivals over ``[0, duration_s)``.

    The bursty walk tracks the current window with an integer period
    index and an ON/OFF flag rather than deriving them from ``t`` with
    ``%`` — the pointwise form misclassifies windows whenever a period
    edge rounds onto ``t`` (e.g. ``43 * 0.1 == 4.3``).
    """
    times: List[float] = []
    t = 0.0
    if not traffic.bursty:
        scale = 1.0 / traffic.rate_qps
        while True:
            t += rng.exponential(scale)
            if t >= duration_s:
                return times
            times.append(t)
    period = traffic.burst_period_s
    on_rate = traffic.rate_qps * traffic.burst_factor
    off_share = 1.0 - traffic.burst_factor * traffic.burst_fraction
    off_rate = traffic.rate_qps * off_share / (1.0 - traffic.burst_fraction)
    cycle = 0
    on = True
    while t < duration_s:
        if on:
            window_end = cycle * period + traffic.burst_fraction * period
            rate = on_rate
        else:
            window_end = (cycle + 1) * period
            rate = off_rate
        if rate <= 0.0 or window_end <= t:
            if not on:
                cycle += 1
            on = not on
            continue
        gap = rng.exponential(1.0 / rate)
        if t + gap >= window_end:
            # Crossed into the next window: the process is memoryless,
            # so restarting the draw at the window edge is exact.
            t = window_end
            if not on:
                cycle += 1
            on = not on
            continue
        t += gap
        if t < duration_s:
            times.append(t)
    return times


def generate_trace(
    traffics: Sequence[TenantTraffic], duration_s: float, seed: int
) -> List[Arrival]:
    """The merged, time-sorted arrival trace for all tenants.

    Every tenant gets an independent ``default_rng([seed, index])``
    stream, so adding or reordering *other* tenants never perturbs a
    tenant's own arrivals.  Ties sort by tenant position then per-tenant
    sequence, so the trace is a pure function of ``(traffics, duration,
    seed)``.
    """
    if duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    names = [tr.tenant for tr in traffics]
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    raw: List[Tuple[float, int, int, str, str]] = []
    for ti, traffic in enumerate(traffics):
        rng = np.random.default_rng([seed, ti])
        times = _arrival_times(traffic, duration_s, rng)
        if times:
            apps = rng.choice(
                len(traffic.apps), size=len(times), p=traffic.normalized_weights()
            )
        else:
            apps = []
        for seq, (t, app_i) in enumerate(zip(times, apps)):
            raw.append((t, ti, seq, traffic.tenant, traffic.apps[int(app_i)]))
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return [
        Arrival(time=t, tenant=tenant, app=app, index=i)
        for i, (t, _, _, tenant, app) in enumerate(raw)
    ]
