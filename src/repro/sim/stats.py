"""Latency and throughput bookkeeping.

The paper reports average throughput (txn/s) over a measured window and the
average client-observed latency.  These recorders mirror that methodology:
a warm-up window is excluded, and percentiles are available for deeper
analysis than the paper's averages.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    weight = rank - low
    value = sorted_values[low] * (1 - weight) + sorted_values[high] * weight
    # Clamp against the neighbouring samples so floating-point interpolation
    # can never step outside the observed range.
    return min(max(value, sorted_values[low]), sorted_values[high])


#: Samples :meth:`LatencyRecorder.summary` sorts as one run.  A summary
#: that sorts the whole buffer at once holds a float object and a list slot
#: per sample for a moment: ``pbft_replicated`` then grows 71 B per request
#: over a 60 s soak (``benchmarks/soak.py``), against 18 B in runs of 4 096.
_SORT_RUN = 4096


@dataclass
class LatencySummary:
    """Summary statistics of a latency distribution (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float


class LatencyRecorder:
    """Records per-transaction latency samples.

    Percentiles are exact but maintained *incrementally*: the recorder keeps
    a sorted prefix plus a buffer of samples recorded since the last
    ``summary()`` call, and each summary sorts only the new buffer and
    merges it into the sorted prefix.  Callers that poll ``summary()``
    during a run — progress reporting, adaptive experiments — therefore sort
    the new samples only, instead of re-sorting the full history every
    time.  Min/max are O(1) streaming aggregates.

    Both hold their samples as ``array('d')``: 8 bytes per sample, not a
    float object plus a list slot.  The same doubles are summed and indexed
    in the same order, so the summary is bit-identical to a list's.
    """

    def __init__(self, warmup: float = 0.0) -> None:
        self._warmup = warmup
        self._sorted = array("d")
        self._unsorted = array("d")
        self._min = math.inf
        self._max = -math.inf

    @property
    def warmup(self) -> float:
        return self._warmup

    def record(self, start_time: float, end_time: float) -> None:
        """Record a completed transaction if it started after the warm-up."""
        if start_time < self._warmup:
            return
        self.record_value(end_time - start_time)

    def record_value(self, latency: float) -> None:
        value = latency if latency > 0.0 else 0.0
        self._unsorted.append(value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def samples(self) -> List[float]:
        return self._sorted.tolist() + self._unsorted.tolist()

    def _merged(self) -> "array[float]":
        """Fold buffered samples into the sorted prefix and return it.

        The buffer is sorted ``_SORT_RUN`` samples at a time, so a summary
        never holds more than one run's worth of float objects.  A run that
        starts at or after the prefix's end is appended; otherwise the runs
        are merged straight into a new array.  Samples are never -0.0 or
        NaN, so equal doubles are interchangeable and this is exactly a
        full sort.
        """
        if self._unsorted:
            buffered, self._unsorted = self._unsorted, array("d")
            runs = [
                array("d", sorted(buffered[start : start + _SORT_RUN]))
                for start in range(0, len(buffered), _SORT_RUN)
            ]
            del buffered  # the runs hold every sample: free the buffer before the merge
            if self._sorted:
                runs.insert(0, self._sorted)
            if len(runs) == 2 and runs[1][0] >= runs[0][-1]:
                runs[0].extend(runs.pop())
            self._sorted = runs[0] if len(runs) == 1 else array("d", heapq.merge(*runs))
        return self._sorted

    def summary(self) -> LatencySummary:
        ordered = self._merged()
        if not ordered:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        count = len(ordered)
        return LatencySummary(
            count=count,
            # Summed over the sorted list (not the streaming accumulator) so
            # the mean is bit-identical to the pre-optimisation full re-sort.
            mean=sum(ordered) / count,
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
            minimum=self._min,
            maximum=self._max,
        )


class ThroughputRecorder:
    """Counts completed transactions inside the measurement window."""

    def __init__(self, warmup: float = 0.0) -> None:
        self._warmup = warmup
        self._completed = 0
        self._aborted = 0
        self._first_completion: Optional[float] = None
        self._last_completion: Optional[float] = None
        self._per_second: Dict[int, int] = {}
        self._commit_listener: Optional[Callable[[float, int], None]] = None

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def aborted(self) -> int:
        return self._aborted

    def set_commit_listener(self, listener: Optional[Callable[[float, int], None]]) -> None:
        """Observe every commit, *including* warm-up ones (liveness watchdog)."""
        self._commit_listener = listener

    def record_commit(self, time: float, count: int = 1) -> None:
        if self._commit_listener is not None:
            self._commit_listener(time, count)
        if time < self._warmup:
            return
        self._completed += count
        if self._first_completion is None:
            self._first_completion = time
        self._last_completion = time
        bucket = int(time)
        self._per_second[bucket] = self._per_second.get(bucket, 0) + count

    def record_abort(self, time: float, count: int = 1) -> None:
        if time < self._warmup:
            return
        self._aborted += count

    def throughput(self, duration: Optional[float] = None) -> float:
        """Average committed transactions per second over the window."""
        if self._completed == 0:
            return 0.0
        if duration is not None and duration > 0:
            return self._completed / duration
        if self._first_completion is None or self._last_completion is None:
            return 0.0
        window = self._last_completion - self._first_completion
        if window <= 0:
            return float(self._completed)
        return self._completed / window

    def per_second_series(self) -> Dict[int, int]:
        """Committed transactions bucketed by whole virtual seconds."""
        return dict(self._per_second)

    def abort_rate(self) -> float:
        total = self._completed + self._aborted
        if total == 0:
            return 0.0
        return self._aborted / total
