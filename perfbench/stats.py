"""Small statistics helpers shared by the workloads and the runner."""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Iterable, List, Sequence, Tuple

import numpy

#: Candidate tail percentiles, highest first.  The tail reported for a
#: sample is the highest of these with at least ``MIN_BEYOND`` samples
#: beyond it, so a fixed sample count always picks the same percentile.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:  # a refused request: the limit is missed
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with ``MIN_BEYOND`` samples past it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return 50.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(logs) / len(logs))


def digest(payload) -> str:
    """Stable short hash of a JSON-able decision record."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def report_decisions(report) -> list:
    """A RuntimeReport's records as JSON-able dicts, wall-clock zeroed.

    ``decision_latency`` is telemetry (non-zero only when instrumentation
    is on), so it is zeroed to make traced and untraced digests equal.
    """
    records = []
    for record in report.records:
        entry = record.to_dict()
        entry["decision_latency"] = 0.0
        records.append(entry)
    return records


#: Seconds one reference-kernel pass takes at the speed the end-to-end
#: timings are scaled to (a 2-vCPU Xeon VM in a quiet period).
REFERENCE_KERNEL_S = 0.0005
_REFERENCE_ROW = numpy.linspace(0.0, 1.0, 48)


def reference_kernel() -> float:
    """Fixed work that calls nothing in the program: dict churn and small
    numpy operations, the mix of the scheduler's bookkeeping and the
    kernel's sweeps."""
    table = {}
    for i in range(1500):
        table[i % 61] = table.get(i % 61, 0.0) + i * 0.5
    total = 0.0
    for _ in range(60):
        total += float((_REFERENCE_ROW * 1.5 + _REFERENCE_ROW[::-1]).max())
    return total + table[0]


class SpeedProbe:
    """How fast the machine runs :func:`reference_kernel`, over time.

    On a shared VM every timing swings with the machine, by up to 2×,
    in phases from a fraction of a second to minutes.  The workloads
    call :meth:`maybe_sample` between ops and :meth:`sample` around
    longer timed regions, never inside one.  :meth:`scaled` divides a
    region's seconds by the *local* speed factor: the mean kernel time
    of the samples taken during and just around the region, over
    :data:`REFERENCE_KERNEL_S`.  That removes the slowdown the region
    shared with the kernel but keeps every change in the program's own
    cost, since the kernel runs no program code.
    """

    #: Seconds between samples taken by :meth:`maybe_sample`.
    EVERY_S = 0.02
    #: Kernel passes per :meth:`sample` call (each is one sample).
    PASSES = 3
    #: A region's factor uses the samples from this long before its
    #: start to this long after its end ...
    WINDOW_S = 0.1
    #: ... or else the ``MIN_SAMPLES`` samples nearest to it.
    MIN_SAMPLES = 3

    def __init__(self) -> None:
        #: (start, seconds) of every kernel pass, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._times: List[float] = []
        self._last = -math.inf

    def sample(self, passes: int = PASSES) -> None:
        for _ in range(passes):
            start = perf_counter()
            reference_kernel()
            end = perf_counter()
            self.samples.append((start, end - start))
            self._times.append(start)
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= self.EVERY_S:
            self.sample(1)

    def factor_at(self, start: float, end: float) -> float:
        """Local speed factor of the region ``[start, end]``."""
        lo = bisect_left(self._times, start - self.WINDOW_S)
        hi = bisect_right(self._times, end + self.WINDOW_S)
        if hi - lo < self.MIN_SAMPLES:
            def distance(t):
                return max(start - t, t - end, 0.0)

            near = sorted(
                range(len(self.samples)), key=lambda i: distance(self._times[i])
            )
            chosen = [self.samples[i][1] for i in near[: self.MIN_SAMPLES]]
        else:
            chosen = [seconds for _t, seconds in self.samples[lo:hi]]
        # The mean, not the median: the machine flips between a fast and
        # a slow state, and a region spanning both is slowed by the share
        # of time spent in each.
        return sum(chosen) / len(chosen) / REFERENCE_KERNEL_S

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        return seconds / self.factor_at(start, start + seconds)

    @property
    def factor(self) -> float:
        """The mean factor over every sample (set-up is scaled by it)."""
        return sum(seconds for _t, seconds in self.samples) / (
            len(self.samples) * REFERENCE_KERNEL_S
        )


def as_measured(start: float, seconds: float) -> float:
    """Stand-in for :meth:`SpeedProbe.scaled` when no probe runs."""
    return seconds
