"""Deterministic fault injection for the simulated SSD array.

FlashGraph's credibility rests on SAFS absorbing the messiness of a
15-SSD array: slow devices, stalled queues and failed reads must not
corrupt results or deadlock the engine.  This module is the single
source of truth for *when* and *how* the simulated devices misbehave.

A :class:`FaultPlan` is a seeded, immutable schedule of fault events.
Every decision it makes is a pure function of ``(seed, device,
attempt ordinal, simulated time)`` — there is no runtime RNG state — so
replaying a run with the same plan reproduces every fault, every retry
and every completion time bit for bit.  That determinism is what makes
the chaos tests CI-able.

The fault taxonomy (see ``docs/fault_model.md``):

- :class:`LatencySpike` — a device serves requests slower for a window
  of simulated time (thermal throttling, background GC).
- :class:`StuckQueue` — requests arriving in a window do not start
  service until the window ends (a wedged I/O thread or firmware stall).
- :class:`TransientErrors` — individual read attempts in a window fail
  after consuming their service time (ECC/checksum failures); the SAFS
  layer retries them with backoff.
- :class:`DeviceFailure` — the device rejects every request during
  ``[at, until)`` (whole-SSD death); SAFS re-routes reads to surviving
  devices in degraded mode.
- :class:`SilentCorruption` — flash pages on a device rot during a
  window (bit flips the device's own ECC misses); the data comes back
  flagged *good* and only the SAFS integrity layer's per-page checksums
  (``safs/integrity.py``) catch it.  Rot is persistent per page:
  re-reading a rotted page fails again, so recovery needs parity
  reconstruction (``sim/parity.py``), not a retry.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

_MASK64 = (1 << 64) - 1


def fault_coin(seed: int, device: int, ordinal: int, salt: int = 0) -> float:
    """A deterministic uniform draw in ``[0, 1)``.

    A splitmix64-style finalizer over ``(seed, device, ordinal, salt)``:
    the same attempt on the same device under the same seed always draws
    the same value, which is how transient errors stay reproducible
    without any runtime RNG state.
    """
    x = (
        seed * 0x9E3779B97F4A7C15
        + device * 0xBF58476D1CE4E5B9
        + ordinal * 0x94D049BB133111EB
        + salt * 0xD6E8FEB86659FD93
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0**64


@dataclass(frozen=True)
class LatencySpike:
    """Service on ``device`` is ``factor``x slower in ``[start, end)``."""

    device: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0.0:
            raise ValueError("a latency spike factor must be positive")
        if self.end <= self.start:
            raise ValueError("a latency spike window must have positive length")


@dataclass(frozen=True)
class StuckQueue:
    """Requests arriving at ``device`` in ``[start, end)`` stall to ``end``."""

    device: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("a stuck-queue window must have positive length")


@dataclass(frozen=True)
class TransientErrors:
    """Attempts served by ``device`` in ``[start, end)`` fail with
    ``probability`` (decided by the deterministic :func:`fault_coin`)."""

    device: int
    start: float
    end: float
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("an error probability must lie in [0, 1]")
        if self.end <= self.start:
            raise ValueError("a transient-error window must have positive length")


@dataclass(frozen=True)
class DeviceFailure:
    """``device`` rejects every request during ``[at, until)``."""

    device: int
    at: float
    until: float = math.inf

    def __post_init__(self) -> None:
        if self.until <= self.at:
            raise ValueError("a device failure must last a positive time")


@dataclass(frozen=True)
class SilentCorruption:
    """Flash pages on ``device`` rot with ``probability`` in ``[start, end)``.

    Whether a given page is rotted is a pure function of ``(seed, device,
    flash page number)`` — decided by :func:`fault_coin` with a dedicated
    salt — so corruption is *persistent*: the same page reads back bad on
    every attempt inside the window, exactly like real bit rot.  Negative
    page numbers address parity blocks (see :mod:`repro.sim.parity`), so
    parity itself can rot too.
    """

    device: int
    start: float
    end: float
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("a corruption probability must lie in [0, 1]")
        if self.end <= self.start:
            raise ValueError("a corruption window must have positive length")


FaultEvent = Union[
    LatencySpike, StuckQueue, TransientErrors, DeviceFailure, SilentCorruption
]

#: Salt separating the per-page corruption coin from the per-attempt
#: transient-error coin (both draw from :func:`fault_coin`).
_CORRUPTION_SALT = 0x5EED_0C0DE


class FaultPlan:
    """A seeded, immutable schedule of device faults.

    The plan answers point queries from the device model (`SSD`) and the
    array: *is this device dead now*, *how long does this arrival stall*,
    *how much slower is service now*, *does this attempt fail*.  All
    answers are pure functions of the constructor arguments, so a plan
    can be shared by any number of replays.
    """

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        self._spikes: Dict[int, List[LatencySpike]] = {}
        self._stalls: Dict[int, List[StuckQueue]] = {}
        self._errors: Dict[int, List[TransientErrors]] = {}
        self._failures: Dict[int, List[DeviceFailure]] = {}
        self._corruption: Dict[int, List[SilentCorruption]] = {}
        for event in self.events:
            if isinstance(event, LatencySpike):
                self._spikes.setdefault(event.device, []).append(event)
            elif isinstance(event, StuckQueue):
                self._stalls.setdefault(event.device, []).append(event)
            elif isinstance(event, TransientErrors):
                self._errors.setdefault(event.device, []).append(event)
            elif isinstance(event, DeviceFailure):
                self._failures.setdefault(event.device, []).append(event)
            elif isinstance(event, SilentCorruption):
                self._corruption.setdefault(event.device, []).append(event)
            else:
                raise TypeError(f"unknown fault event {event!r}")

    def is_dead(self, device: int, time: float) -> bool:
        """Whether ``device`` rejects requests at ``time``."""
        return any(
            f.at <= time < f.until for f in self._failures.get(device, ())
        )

    def dead_until(self, device: int, time: float) -> float:
        """End of the failure window covering ``time`` (``time`` if alive)."""
        until = time
        for f in self._failures.get(device, ()):
            if f.at <= time < f.until and f.until > until:
                until = f.until
        return until

    def stall_release(self, device: int, arrival: float) -> float:
        """When a request arriving at ``arrival`` may start queueing.

        Returns ``arrival`` itself when no stuck-queue window covers it,
        otherwise the latest covering window's end.
        """
        release = arrival
        for s in self._stalls.get(device, ()):
            if s.start <= arrival < s.end and s.end > release:
                release = s.end
        return release

    def service_factor(self, device: int, start: float) -> float:
        """Service-time multiplier for an attempt starting at ``start``."""
        factor = 1.0
        for s in self._spikes.get(device, ()):
            if s.start <= start < s.end:
                factor *= s.factor
        return factor

    def read_error(self, device: int, ordinal: int, start: float) -> bool:
        """Whether attempt ``ordinal`` starting at ``start`` fails.

        ``ordinal`` is the device's monotone attempt counter; the coin it
        seeds is independent of timing, so two runs that submit the same
        attempt sequence see the same failures even if clocks drift.
        """
        for window_index, e in enumerate(self._errors.get(device, ())):
            if e.start <= start < e.end and e.probability > 0.0:
                if fault_coin(self.seed, device, ordinal, window_index) < e.probability:
                    return True
        return False

    def corrupted(self, device: int, flash_page: int, time: float) -> bool:
        """Whether ``flash_page`` on ``device`` is rotted at ``time``.

        Persistent per page within a window: the decision depends only on
        ``(seed, device, flash_page, window)``, never on the attempt, so a
        retry of a rotted page fails exactly like the first read did.
        """
        for window_index, c in enumerate(self._corruption.get(device, ())):
            if c.start <= time < c.end and c.probability > 0.0:
                coin = fault_coin(
                    self.seed, device, flash_page, _CORRUPTION_SALT + window_index
                )
                if coin < c.probability:
                    return True
        return False

    def corrupted_in_run(
        self, device: int, first_page: int, num_pages: int, time: float
    ) -> int:
        """Rotted pages among ``[first_page, first_page + num_pages)``."""
        if not self._corruption.get(device):
            return 0
        return sum(
            1
            for page in range(first_page, first_page + num_pages)
            if self.corrupted(device, page, time)
        )

    def devices(self) -> Tuple[int, ...]:
        """Every device index named by at least one event, sorted."""
        touched = (
            set(self._spikes)
            | set(self._stalls)
            | set(self._errors)
            | set(self._failures)
            | set(self._corruption)
        )
        return tuple(sorted(touched))

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, events={len(self.events)})"


@dataclass(frozen=True)
class DeviceCompletion:
    """Outcome of one device attempt.

    ``service`` is the device-busy time this attempt charged — the
    no-double-charge invariant is that a device's ``busy_time`` always
    equals the sum of ``service`` over every attempt it accepted.
    """

    #: Virtual time the attempt completed or its failure was detected.
    time: float
    #: Whether the data is good.
    ok: bool
    #: ``None``, ``"transient"``, ``"dead"``, ``"corrupt"`` (checksum
    #: mismatch caught by the integrity layer) or ``"quarantined"`` (the
    #: health monitor is routing around the device).
    error: Optional[str]
    #: Device-busy seconds this attempt charged.
    service: float
    #: Device that served (or rejected) the attempt.
    device: int


@dataclass(frozen=True)
class FaultPolicy:
    """How the SAFS layer responds to device faults.

    The defaults are inert: an infinite timeout and reroute enabled
    change nothing on a fault-free array, so a stack without a
    :class:`FaultPlan` behaves bit-identically to one built before this
    module existed.
    """

    #: Retries (with exponential backoff) before a read is unrecoverable.
    max_retries: int = 4
    #: Base backoff in simulated seconds; doubles per retry.
    retry_backoff: float = 500e-6
    #: Per-attempt timeout in simulated seconds; an attempt that has not
    #: completed by then is declared lost and retried.
    request_timeout: float = math.inf
    #: Whether reads on a dead device re-route to surviving devices.
    reroute_on_dead: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.retry_backoff < 0.0:
            raise ValueError("retry_backoff cannot be negative")
        if self.request_timeout <= 0.0:
            raise ValueError("request_timeout must be positive")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.retry_backoff * (2.0 ** (attempt - 1))


#: The inert policy every SAFS instance uses unless told otherwise.
DEFAULT_FAULT_POLICY = FaultPolicy()


class UnrecoverableIOError(RuntimeError):
    """A read failed past every retry, reroute and timeout budget.

    Raised by the SAFS scheduler; the engine catches it and surfaces a
    clean ``IterationAborted`` with partial-progress stats instead of
    hanging or returning wrong values.
    """

    def __init__(self, device: int, time: float, reason: str) -> None:
        super().__init__(
            f"device {device}: unrecoverable read at t={time:.6f} ({reason})"
        )
        self.device = device
        self.time = time
        self.reason = reason


def default_chaos_plan(seed: int, num_devices: int = 15) -> FaultPlan:
    """The standard scriptable chaos profile (``repro.cli run --fault-seed``).

    One deterministic plan per seed, touching every fault class on a
    twitter-sim-scale timescale: a flaky device (transient errors), a
    latency-spiked device, a stuck queue, a whole-SSD death and a window
    of silent bit rot — all on devices derived from the seed, so two runs
    with the same seed replay the same chaos bit for bit.
    """
    if num_devices < 5:
        raise ValueError("the default chaos profile needs at least 5 devices")
    # Distinct devices per fault class, spread by successive coin draws.
    picks: List[int] = []
    ordinal = 0
    while len(picks) < 5:
        device = int(fault_coin(seed, 0, ordinal, salt=71) * num_devices)
        ordinal += 1
        if device not in picks:
            picks.append(device)
    flaky, spiked, stuck, dying, rotting = picks
    return FaultPlan(
        [
            TransientErrors(device=flaky, start=0.0, end=10.0, probability=0.1),
            LatencySpike(device=spiked, start=0.001, end=0.05, factor=4.0),
            StuckQueue(device=stuck, start=0.0005, end=0.004),
            DeviceFailure(device=dying, at=0.002),
            SilentCorruption(device=rotting, start=0.0, end=10.0, probability=0.02),
        ],
        seed=seed,
    )
