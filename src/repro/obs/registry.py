"""Typed metrics: counters, gauges, histograms, and one quantile.

Replaces the bare ``dict[str, int]`` / ``dict[str, list]`` metric
stores that had grown ad-hoc across ``AnalysisStats``, the simulation
:class:`~repro.sim.metrics.MetricsCollector` and the replication
counters.  A :class:`MetricsRegistry` is a namespace of named
instruments; names follow the repo-wide ``dotted.namespace`` convention
(``client.retries``, ``store.antientropy.records_retransmitted``).

Instruments are deliberately tiny.  Hot paths hold the instrument
object and mutate ``value`` directly (``counter.value += 1`` costs the
same as the bare-dict increment it replaces); the registry exists for
naming, discovery and structured snapshots, not for mediating writes.

:func:`quantile` is the single shared percentile implementation -- the
simulation latency summaries, histogram snapshots and benchmark tables
all call it, so "p95" means the same thing in every report.  Empty
inputs yield ``None`` (never an exception): an empty measurement window
is a normal outcome for short or faulty runs.
"""

from __future__ import annotations

import math
from typing import Sequence


def quantile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank-with-rounding quantile over unsorted ``samples``.

    ``None`` for an empty input.  For sorted inputs use
    :func:`quantile_sorted` to skip the sort.
    """
    if not samples:
        return None
    return quantile_sorted(sorted(samples), q)


def quantile_sorted(ordered: Sequence[float], q: float) -> float | None:
    """Like :func:`quantile` for already-sorted samples."""
    if not ordered:
        return None
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class Counter:
    """A monotonically increasing count.

    ``value`` is public on purpose: hot paths do ``c.value += n``.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, by: int = 1) -> None:
        self.value += by


class Gauge:
    """A point-in-time value (buffer depth, backoff delay, ratio)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


#: Histograms keep every sample up to this many, then switch to
#: aggregate-only (count/sum/min/max stay exact; percentiles cover the
#: retained prefix).  Bounds memory on million-event runs.
HISTOGRAM_RESERVOIR = 8192


class Histogram:
    """Distribution summary: exact aggregates + a bounded reservoir."""

    __slots__ = ("name", "count", "total", "minimum", "maximum", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.samples: list[float] = []

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.samples) < HISTOGRAM_RESERVOIR:
            self.samples.append(value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        return quantile(self.samples, q)

    def snapshot(self) -> dict:
        if not self.count:
            return {
                "count": 0, "mean": None, "min": None, "max": None,
                "p50": None, "p95": None, "p99": None,
            }
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": quantile_sorted(ordered, 0.50),
            "p95": quantile_sorted(ordered, 0.95),
            "p99": quantile_sorted(ordered, 0.99),
        }


class MetricsRegistry:
    """A namespace of typed instruments, keyed by dotted name."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access (create on first use) -----------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- read side -----------------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def counters(self) -> dict[str, int]:
        return {
            name: c.value for name, c in sorted(self._counters.items())
        }

    def names(self) -> list[str]:
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """One nested, JSON-safe view of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: Process-global registry: long-lived, cross-run aggregates (cache
#: traffic, solver totals).  Per-run components (one simulation, one
#: ``run_ipa`` call) construct their own registries instead.
REGISTRY = MetricsRegistry()
