"""Device health monitoring with an error budget.

A 15-SSD array rarely fails cleanly: before a device dies it *flaps* —
bursts of transient errors and checksum failures that would otherwise
burn the I/O scheduler's whole retry budget on a drive that keeps
lying.  The health monitor watches per-device error arrivals and, once a
device exceeds its error budget within a sliding window, **quarantines**
it for a fixed interval: the scheduler routes around it (replica reads
or parity reconstruction) without charging the sick device's queue.  A
device that keeps tripping quarantine is **declared failed** — treated
exactly like a fault-plan death, including triggering a parity rebuild
onto a hot spare.

Everything here is deterministic: decisions depend only on the recorded
error timestamps (themselves deterministic under a seeded
:class:`~repro.sim.faults.FaultPlan`) and the policy constants, and the
full monitor state is exportable for checkpointing.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

import math


@dataclass(frozen=True)
class HealthPolicy:
    """When a flapping device gets benched.

    The defaults are tuned to the simulation's timescale (whole runs are
    tens of milliseconds of virtual time): three errors within 10ms trip
    a 50ms quarantine, and a third trip declares the device failed.
    """

    #: Errors within ``window`` that trip a quarantine.
    error_budget: int = 3
    #: Sliding-window length in simulated seconds.
    window: float = 0.010
    #: Quarantine duration in simulated seconds.
    quarantine: float = 0.050
    #: Quarantine trips after which the device is declared failed.
    max_quarantines: int = 3

    def __post_init__(self) -> None:
        if self.error_budget < 1:
            raise ValueError("the error budget must allow at least one error")
        if self.window <= 0.0:
            raise ValueError("the error window must be positive")
        if self.quarantine <= 0.0:
            raise ValueError("the quarantine interval must be positive")
        if self.max_quarantines < 1:
            raise ValueError("max_quarantines must be at least 1")


class HealthMonitor:
    """Per-device error budgets, quarantine windows and failure declaration."""

    def __init__(self, policy: HealthPolicy, num_devices: int) -> None:
        if num_devices <= 0:
            raise ValueError("a health monitor needs at least one device")
        self.policy = policy
        self.num_devices = num_devices
        self._errors: List[List[float]] = [[] for _ in range(num_devices)]
        self._quarantined_until: List[float] = [-math.inf] * num_devices
        self._trips: List[int] = [0] * num_devices
        self._failed: List[bool] = [False] * num_devices

    def record_error(self, device: int, time: float) -> Optional[str]:
        """Record one device error; returns the state change it caused.

        ``None`` when the budget still holds, ``"quarantined"`` when this
        error tripped a quarantine window, ``"failed"`` when the trip was
        one too many and the device is declared failed for good.
        """
        if not 0 <= device < self.num_devices:
            return None
        if self._failed[device]:
            return None
        errors = self._errors[device]
        horizon = time - self.policy.window
        errors[:] = [t for t in errors if t > horizon]
        errors.append(time)
        if len(errors) < self.policy.error_budget:
            return None
        errors.clear()
        self._trips[device] += 1
        if self._trips[device] >= self.policy.max_quarantines:
            self._failed[device] = True
            return "failed"
        self._quarantined_until[device] = time + self.policy.quarantine
        return "quarantined"

    def is_quarantined(self, device: int, time: float) -> bool:
        """Whether ``device`` sits in a quarantine window at ``time``."""
        if not 0 <= device < self.num_devices:
            return False
        return time < self._quarantined_until[device]

    def is_failed(self, device: int) -> bool:
        """Whether ``device`` has been declared failed (permanent)."""
        return 0 <= device < self.num_devices and self._failed[device]

    def avoid(self, device: int, time: float) -> bool:
        """Whether the scheduler should route around ``device`` at ``time``."""
        return self.is_failed(device) or self.is_quarantined(device, time)

    def quarantine_release(self, device: int) -> float:
        """End of the device's most recent quarantine window."""
        if not 0 <= device < self.num_devices:
            return -math.inf
        return self._quarantined_until[device]

    def trips(self, device: int) -> int:
        """Quarantine trips recorded against ``device`` so far."""
        if not 0 <= device < self.num_devices:
            return 0
        return self._trips[device]

    def reset(self) -> None:
        """Forget every recorded error, quarantine and failure."""
        for errors in self._errors:
            errors.clear()
        self._quarantined_until = [-math.inf] * self.num_devices
        self._trips = [0] * self.num_devices
        self._failed = [False] * self.num_devices

    def export_state(self) -> Dict:
        """Full monitor state for checkpointing (policy is rebuilt)."""
        return {
            "errors": [list(e) for e in self._errors],
            "quarantined_until": list(self._quarantined_until),
            "trips": list(self._trips),
            "failed": list(self._failed),
        }

    def restore_state(self, state: Dict) -> None:
        """Reinstate :meth:`export_state` output bit for bit."""
        errors = state["errors"]
        if len(errors) != self.num_devices:
            raise ValueError("health state does not match this array's width")
        self._errors = [list(map(float, e)) for e in errors]
        self._quarantined_until = [float(t) for t in state["quarantined_until"]]
        self._trips = [int(t) for t in state["trips"]]
        self._failed = [bool(f) for f in state["failed"]]

    def __repr__(self) -> str:
        benched = sum(self._failed)
        return (
            f"HealthMonitor(devices={self.num_devices}, failed={benched}, "
            f"trips={sum(self._trips)})"
        )
