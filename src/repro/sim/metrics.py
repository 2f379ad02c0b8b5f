"""Latency and throughput metrics for simulated runs.

Collects per-operation latency samples inside a measurement window
(excluding warm-up), plus named counters (e.g. invariant violations for
Figure 7).  Summaries expose the statistics the paper plots: mean,
percentiles, standard deviation, and throughput over the window.

Percentiles come from the repo-wide shared quantile implementation
(:func:`repro.obs.quantile`); an empty sample set yields ``None``
statistics rather than fabricated zeros -- a short or faulty run with
no completed operations is a normal outcome, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs import quantile_sorted


@dataclass
class LatencyStats:
    """Summary statistics over a set of latency samples (ms).

    All fields except ``count`` are ``None`` when there are no samples.
    """

    count: int
    mean: float | None
    stddev: float | None
    p50: float | None
    p95: float | None
    p99: float | None
    minimum: float | None
    maximum: float | None

    @classmethod
    def of(cls, samples: list[float]) -> "LatencyStats":
        if not samples:
            return cls(0, None, None, None, None, None, None, None)
        ordered = sorted(samples)
        count = len(ordered)
        mean = sum(ordered) / count
        variance = sum((s - mean) ** 2 for s in ordered) / count
        return cls(
            count=count,
            mean=mean,
            stddev=math.sqrt(variance),
            p50=quantile_sorted(ordered, 0.50),
            p95=quantile_sorted(ordered, 0.95),
            p99=quantile_sorted(ordered, 0.99),
            minimum=ordered[0],
            maximum=ordered[-1],
        )


@dataclass
class StaleWindow:
    """Running stats over remote-visibility lag (commit -> apply, ms).

    On a lossy network a record can spend seconds in drops, backoff and
    retransmission before a remote replica applies it; this is the
    "staleness window" the chaos experiments report.  Kept as running
    aggregates (not samples) because every remote apply contributes.
    """

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    def record(self, lag_ms: float) -> None:
        self.count += 1
        self.total_ms += lag_ms
        self.max_ms = max(self.max_ms, lag_ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


class MetricsCollector:
    """Accumulates samples and counters during a run."""

    def __init__(
        self, warmup_ms: float = 0.0, window_ms: float | None = None
    ) -> None:
        self._warmup = warmup_ms
        # Precomputed window end: the per-event check is two float
        # comparisons against constants -- one shared, branch-predictable
        # helper instead of hand-inlined None checks at every call site.
        self._window_end = (
            warmup_ms + window_ms if window_ms is not None else math.inf
        )
        self._samples: dict[str, list[float]] = {}
        self._counters: dict[str, int] = {}

    def _in_window(self, now: float) -> bool:
        return self._warmup <= now <= self._window_end

    def record_latency(self, now: float, op: str, latency_ms: float) -> None:
        # Runs once per completed operation (the collector's hot path).
        if not (self._warmup <= now <= self._window_end):
            return
        samples = self._samples.get(op)
        if samples is None:
            samples = self._samples[op] = []
        samples.append(latency_ms)

    def increment(self, now: float, counter: str, by: int = 1) -> None:
        if not self._in_window(now):
            return
        self._counters[counter] = self._counters.get(counter, 0) + by

    # -- summaries --------------------------------------------------------------

    def operations(self) -> list[str]:
        return sorted(self._samples)

    def stats(self, op: str | None = None) -> LatencyStats:
        """Stats for one operation, or across all when ``op`` is None."""
        if op is not None:
            return LatencyStats.of(self._samples.get(op, []))
        merged: list[float] = []
        for samples in self._samples.values():
            merged.extend(samples)
        return LatencyStats.of(merged)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def total_operations(self) -> int:
        return sum(len(samples) for samples in self._samples.values())

    def throughput(self, window_ms: float) -> float:
        """Completed operations per second over the window."""
        if window_ms <= 0:
            return 0.0
        return self.total_operations() / (window_ms / 1000.0)
