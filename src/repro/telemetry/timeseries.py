"""Interval-grid primitives for streaming fleet monitoring.

The fleet simulator historically produced one :class:`ServingReport`
after the run: every latency was appended to a list, the list was
sorted once at report time, and a single p99 summarised the whole run.
That is a batch scorer, not a monitored service — tail latency is a
property of latency *over time under load*, and an autoscaling or
alerting policy needs a per-interval signal.  The monitor
(:mod:`repro.serving.monitor`) reads a finished run's columns onto a
fixed simulated-time grid with these primitives:

* :func:`percentile` — the exact nearest-rank estimator, moved here
  from ``serving/metrics.py`` so the end-of-run report and the
  streaming histogram share ONE implementation of the rank rule.
* :class:`StreamingHistogram` — fixed geometric-bin latency histogram.
  Observing is O(1), two histograms merge by adding bin counts, and a
  percentile query walks the (sparse) bins once — no per-interval
  re-sorting of raw samples. The bin growth factor bounds the relative
  error of any percentile at ``sqrt(growth) - 1``.  Its bin rule
  (``_bin``/``_representative``) is the one the monitor's windowed
  percentiles bin through.
* :class:`TimeSeries` — one named, typed column of samples aligned to
  the interval grid (``None`` = no data, distinct from ``0.0``).

Everything here is pure Python over plain floats: deterministic for a
fixed seed, picklable, and byte-identical between serial and
``--jobs N`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "StreamingHistogram",
    "TimeSeries",
    "nearest_rank",
    "percentile",
]


def nearest_rank(count: int, q: float) -> int:
    """0-based index of the nearest-rank ``q``-th percentile.

    For ``count`` samples in ascending order the nearest-rank estimator
    picks element ``ceil(q / 100 * count)`` (1-based), clamped to the
    valid range.  This is the single rank rule shared by the exact
    :func:`percentile` and :meth:`StreamingHistogram.percentile`.
    """
    if count <= 0:
        raise ValueError("nearest_rank needs at least one sample")
    rank = -(-q * count // 100)  # ceil(q * count / 100) without floats
    return int(min(count, max(1, rank))) - 1


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending-sorted sequence.

    Edge semantics (pinned by ``tests/test_serving.py``):

    * empty input returns ``0.0`` — callers that must distinguish
      "no samples" from "zero latency" (the :class:`ServingReport`
      table, empty monitor windows) check ``count`` themselves and
      render ``n/a``;
    * a single element is every percentile of itself
      (``percentile([5.0], 99) == 5.0``);
    * no interpolation ever happens — the result is always one of the
      observed values, which keeps p99 meaningful for multimodal
      latency distributions (retry humps, compile-miss spikes).
    """
    if not sorted_values:
        return 0.0
    return sorted_values[nearest_rank(len(sorted_values), q)]


class StreamingHistogram:
    """Mergeable fixed geometric-bin histogram with bounded-error percentiles.

    Values in ``[lo, hi)`` land in log-spaced bins whose edges grow by
    ``growth`` per bin; a value is reported back as the geometric mean
    of its bin's edges, so any percentile estimate is within a factor
    of ``sqrt(growth)`` of the exact nearest-rank answer
    (:attr:`max_relative_error`, ~2.5% at the default growth of 1.05).
    Values at or below ``lo`` clamp into an underflow bin reported as
    ``lo``; values at or above ``hi`` clamp into an overflow bin
    reported as ``hi``.

    Counts live in a sparse dict, so an interval that saw 3 distinct
    latencies costs 3 entries regardless of sample count, and merging
    two histograms is a dict-sum — counts add, which is what lets the
    monitor's sliding windows sum per-interval bin counts instead of
    re-sorting raw samples every interval.
    """

    __slots__ = ("lo", "hi", "growth", "_log_growth", "n_bins", "count",
                 "counts")

    def __init__(self, lo: float = 1e-3, hi: float = 1e7,
                 growth: float = 1.05) -> None:
        if not (lo > 0.0 and hi > lo):
            raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        # bin 0 = underflow, bins 1..n-2 = geometric, bin n-1 = overflow
        self.n_bins = 2 + int(math.ceil(
            math.log(self.hi / self.lo) / self._log_growth))
        self.count = 0
        self.counts: Dict[int, int] = {}

    @property
    def max_relative_error(self) -> float:
        """Worst-case relative error of any in-range percentile."""
        return math.sqrt(self.growth) - 1.0

    def _bin(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value >= self.hi:
            return self.n_bins - 1
        b = 1 + int(math.log(value / self.lo) / self._log_growth)
        return min(b, self.n_bins - 2)

    def _representative(self, b: int) -> float:
        if b <= 0:
            return self.lo
        if b >= self.n_bins - 1:
            return self.hi
        low = self.lo * self.growth ** (b - 1)
        return math.sqrt(low * (low * self.growth))

    def observe(self, value: float, n: int = 1) -> None:
        """Add ``n`` samples of ``value`` (O(1), no allocation when hot)."""
        b = self._bin(value)
        self.counts[b] = self.counts.get(b, 0) + n
        self.count += n

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram's counts into this one (same binning)."""
        if (other.lo, other.hi, other.growth) != (self.lo, self.hi,
                                                  self.growth):
            raise ValueError("cannot merge histograms with different bins")
        for b, n in other.counts.items():
            self.counts[b] = self.counts.get(b, 0) + n
        self.count += other.count

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank ``q``-th percentile, or ``None`` when empty.

        Unlike the exact :func:`percentile`, emptiness is reported as
        ``None`` rather than ``0.0``: an empty monitor window must not
        masquerade as a zero-latency window.
        """
        if self.count == 0:
            return None
        target = nearest_rank(self.count, q)
        running = 0
        for b in sorted(self.counts):
            running += self.counts[b]
            if running > target:
                return self._representative(b)
        raise AssertionError("unreachable: counts sum to count")

    def __len__(self) -> int:
        return self.count


@dataclass
class TimeSeries:
    """One named column of interval-aligned samples.

    ``kind`` is ``gauge``/``rate``/``percentile``/``burn_rate`` and
    tells the dashboard how to label the series; ``None`` samples mean
    "no data this interval" and are rendered as gaps, never as zero.
    """

    name: str
    kind: str
    unit: str
    samples: List[Optional[float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form for the ``repro-monitor-report-v1`` payload."""
        return {"kind": self.kind, "unit": self.unit,
                "samples": list(self.samples)}
