"""Discrete-event simulation substrate.

FlashGraph's evaluation hardware (a 4-socket NUMA Xeon with 15 SSDs behind
three HBAs) cannot be reproduced under CPython, so every component in this
package models *time* while the rest of the library computes *results* for
real.  The engine executes genuine vertex programs over genuine bytes; only
the service times of CPU work and SSD reads come from the calibrated models
here.

Public surface:

- :class:`~repro.sim.cost_model.CostModel` — calibrated per-operation CPU
  costs and machine geometry (32 worker threads, as in the paper).
- :class:`~repro.sim.ssd.SSD` — a single device with an IOPS-limited service
  model whose random:sequential throughput ratio matches commodity SSDs.
- :class:`~repro.sim.ssd_array.SSDArray` — pages striped over many devices,
  one queue per device (SAFS's dedicated per-SSD I/O threads).
- :class:`~repro.sim.stats.StatsCollector` — counters shared by every layer.
- :class:`~repro.sim.faults.FaultPlan` and
  :class:`~repro.sim.faults.FaultPolicy` — deterministic, seeded fault
  injection for the devices and the recovery policy SAFS applies
  (see ``docs/fault_model.md``).
- :class:`~repro.sim.parity.ParityConfig` and
  :class:`~repro.sim.health.HealthMonitor` — rotating-parity striping
  with spare rebuild, and error-budget device quarantine
  (see ``docs/recovery.md``).
"""

from repro.sim.cost_model import CostModel
from repro.sim.faults import (
    DeviceCompletion,
    DeviceFailure,
    FaultPlan,
    FaultPolicy,
    LatencySpike,
    SilentCorruption,
    StuckQueue,
    TransientErrors,
    UnrecoverableIOError,
    default_chaos_plan,
    fault_coin,
)
from repro.sim.health import HealthMonitor, HealthPolicy
from repro.sim.parity import (
    ParityConfig,
    ParityLayout,
    RebuildState,
)
from repro.sim.ssd import SSD, SSDConfig
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.calibration import (
    ProfilePoint,
    expected_envelope,
    measured_envelope,
    profile_random_reads,
)
from repro.sim.stats import StatsCollector

__all__ = [
    "CostModel",
    "SSD",
    "SSDConfig",
    "SSDArray",
    "SSDArrayConfig",
    "StatsCollector",
    "ProfilePoint",
    "expected_envelope",
    "measured_envelope",
    "profile_random_reads",
    "DeviceCompletion",
    "DeviceFailure",
    "FaultPlan",
    "FaultPolicy",
    "LatencySpike",
    "SilentCorruption",
    "StuckQueue",
    "TransientErrors",
    "UnrecoverableIOError",
    "default_chaos_plan",
    "fault_coin",
    "HealthMonitor",
    "HealthPolicy",
    "ParityConfig",
    "ParityLayout",
    "RebuildState",
]
