"""Counters shared by every layer of the stack.

A single :class:`StatsCollector` instance threads through the SSD array, the
SAFS page cache, the engine and the benchmark harness, so that a benchmark
can report exact byte counts, request counts and hit rates next to the
simulated runtime.

Besides plain counters the collector carries two observability-only
stores: fixed-bucket :class:`Histogram` distributions and time-series
gauges (sampled values).  Both live apart from the counter dict, so
:meth:`StatsCollector.snapshot` / :meth:`StatsCollector.diff` — the
bit-identical contract the golden tests pin — never see them; they are
fed only by the armed tracer in :mod:`repro.obs`.
"""

from bisect import bisect_left
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Version tag of the :meth:`StatsCollector.metrics_snapshot` schema,
#: shared with the bench harness's ``BENCH_metrics.json``.
METRICS_SCHEMA = "repro.metrics/v1"


class Histogram:
    """A fixed-bucket histogram over ascending upper bounds.

    ``bounds = (b0, b1, ...)`` defines buckets ``(-inf, b0]``,
    ``(b0, b1]``, … plus one overflow bucket past the last bound.  Bounds
    are fixed at construction so two runs always bucket identically.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated from the bucket counts.

        Interpolation semantics (shared by every quantile the stack
        reports, so two call sites can never disagree):

        - The target rank is ``q * count``; the containing bucket is the
          first whose cumulative count reaches it.
        - Mass is assumed uniform inside a bucket, so the result is a
          linear interpolation between the bucket's edges by the rank's
          position within the bucket.
        - The underflow bucket's lower edge is the observed ``min``; the
          overflow bucket's upper edge is the observed ``max`` — the
          histogram never extrapolates past what it actually saw.
        - The result is clamped to ``[min, max]``; an empty histogram
          returns ``0.0``; ``q <= 0`` returns ``min``, ``q >= 1`` ``max``.

        Deterministic: a pure function of the bucket counts and the
        observed extrema, so same-seed runs agree byte for byte.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = self.min if i == 0 else self.bounds[i - 1]
                hi = self.max if i == len(self.bounds) else self.bounds[i]
                fraction = (target - cumulative) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - float backstop

    def summary(self) -> Dict[str, object]:
        """A JSON-ready description (stable key order via sort on dump)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class StatsCollector:
    """A bag of named numeric counters.

    Counter names are free-form dotted strings; the conventional namespaces
    are ``ssd.*`` (device model), ``cache.*`` (SAFS page cache), ``io.*``
    (request scheduling), ``engine.*`` (vertex execution) and ``msg.*``
    (message passing).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        # Observability-only stores (fed by repro.obs when tracing is
        # armed): never part of snapshot()/diff(), so the counter stream
        # stays bit-identical whether or not they are populated.
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, List[Tuple[float, float]]] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self._counters[name] += value

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name`` (used for gauges such as peak memory)."""
        self._counters[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        """Read counter ``name``, returning ``default`` when never touched."""
        return self._counters.get(name, default)

    def max(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value`` if that is larger."""
        if value > self._counters.get(name, float("-inf")):
            self._counters[name] = value

    def names(self) -> Iterable[str]:
        """All counter names touched so far, sorted."""
        return sorted(self._counters)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of every counter."""
        return dict(self._counters)

    def merge(self, other: Mapping[str, float]) -> None:
        """Add every counter of ``other`` into this collector."""
        for name, value in other.items():
            self._counters[name] += value

    def diff(self, baseline: Mapping[str, float]) -> Dict[str, float]:
        """Counters accumulated since ``baseline`` (an earlier snapshot)."""
        out: Dict[str, float] = {}
        for name, value in self._counters.items():
            delta = value - baseline.get(name, 0.0)
            if delta:
                out[name] = delta
        return out

    # ------------------------------------------------------------------
    # Observability: histograms and time-series gauges
    # ------------------------------------------------------------------

    def observe(self, name: str, value: float, bounds: Sequence[float] = None) -> None:
        """Record ``value`` into histogram ``name``.

        ``bounds`` fixes the bucket layout on first observation and must
        be supplied then; later calls may omit it (a mismatch raises, so
        two call sites cannot silently disagree about the layout).
        """
        hist = self._histograms.get(name)
        if hist is None:
            if bounds is None:
                raise ValueError(
                    f"histogram {name!r} does not exist yet; pass its bounds"
                )
            hist = self._histograms[name] = Histogram(bounds)
        elif bounds is not None and tuple(float(b) for b in bounds) != hist.bounds:
            raise ValueError(f"histogram {name!r} already has different bounds")
        hist.observe(value)

    def sample(self, name: str, time: float, value: float) -> None:
        """Append one ``(time, value)`` point to gauge series ``name``."""
        self._series.setdefault(name, []).append((float(time), float(value)))

    def histogram(self, name: str):
        """The :class:`Histogram` named ``name``, or ``None``."""
        return self._histograms.get(name)

    def histograms(self) -> Dict[str, Histogram]:
        """Every histogram, by name."""
        return dict(self._histograms)

    def series(self, name: str) -> List[Tuple[float, float]]:
        """The gauge series named ``name`` (empty if never sampled)."""
        return list(self._series.get(name, ()))

    def metrics_snapshot(self) -> Dict[str, object]:
        """Counters + histogram summaries + gauge series, JSON-ready.

        The stable schema (:data:`METRICS_SCHEMA`) shared by the bench
        harness's ``BENCH_metrics.json`` and the CLI exporters.
        """
        return {
            "schema": METRICS_SCHEMA,
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
            "series": {
                name: [[t, v] for t, v in self._series[name]]
                for name in sorted(self._series)
            },
        }

    def reset(self) -> None:
        """Zero every counter, histogram and gauge series."""
        self._counters.clear()
        self._histograms.clear()
        self._series.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._counters
