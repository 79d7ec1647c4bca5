"""Host-speed reference: a fixed loop timed between units of work.

On a shared 2-vCPU Xeon VM, raw speed drifts by tens of percent over
minutes and flips between a fast and a slow state within a second,
while the ratio of the program's work to a fixed piece of the same kind
of work holds within a few percent. Every timing the benchmark reports is therefore
divided by a *host factor*: the time of :func:`reference_work` next to
that timing, as a multiple of its time on a nominal host
(:data:`NOMINAL_S`). A factor of 1.3 means the host ran 30 % slower than
nominal, so raw seconds are divided by 1.3.

The reference is a Python loop of small-array NumPy calls shaped like
the enumeration kernel's combination scan, the program's most common
kind of work. Over 100-second probes alternating candidate references
with single-loop control decisions and capped engine hours, it left the
least drift after correction (4-5 % quartile spread of 5-second means,
against 16-36 % raw); a pure interpreter loop, small-object/JSON work,
or medium-size arrays tracked the program worse (6-27 %).

Calibration points are numbered in the order they are taken. A sample
of work done between points ``i`` and ``i + 1`` (its *slot* ``i``) is
corrected by the mean of those two points, so a run that straddles a
change of host state is corrected piece by piece. The reference is only
timed while none of the program's own work is in flight: between
months and engine hours, and in a shard worker at its hour barrier
before it reports.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one :func:`reference_work` call takes on the nominal host: a
#: shared 2-vCPU Xeon VM in its fast state, so corrected figures read
#: close to raw ones there.
NOMINAL_S = 0.6e-3

#: Three sites' worth of per-site choice values (fixed, seeded).
_CHOICES = [np.random.default_rng(i).random(8) for i in range(3)]


def reference_work() -> float:
    """About a millisecond of a combination scan over small arrays.

    A Python loop over small NumPy calls, shaped like the enumeration
    kernel's: an open grid of per-site choices, a feasibility mask, the
    cheapest feasible combination, a partial sort and a running sum.
    """
    acc = 0.0
    for j in range(24):
        grid = np.ix_(*_CHOICES)
        flat = (grid[0] + grid[1] + grid[2]).ravel()
        feasible = np.flatnonzero(flat < 1.5 + j * 0.01)
        if feasible.size:
            acc += float(flat[feasible].min()) + int(np.argmin(flat))
        order = np.argsort(flat[:64])
        acc += float(np.cumsum(flat[order])[-1])
    return acc


def time_reference(reps: int) -> list[float]:
    """Wall seconds of ``reps`` back-to-back reference loops."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - t0)
    return out


def factor_from(times: list[float]) -> float:
    """Host factor of one calibration point: median time over nominal."""
    return statistics.median(times) / NOMINAL_S


def mean_corrected(pairs) -> float:
    """Mean corrected seconds of ``(raw seconds, factor)`` pairs."""
    return sum(raw / f for raw, f in pairs) / len(pairs)


def effective_factor(pairs) -> float:
    """Raw over corrected total of ``(raw seconds, factor)`` pairs."""
    return sum(raw for raw, _f in pairs) / sum(raw / f for raw, f in pairs)


class HostClock:
    """The run's calibration points and the correction they imply."""

    def __init__(self, samples=()):
        self.samples: list[float] = list(samples)

    def calibrate(self, reps: int = 3) -> int:
        """Time the reference now; return the new point's index."""
        self.samples.append(factor_from(time_reference(reps)))
        return len(self.samples) - 1

    def add(self, factors) -> None:
        """Record points taken elsewhere (shard workers) for the report."""
        self.samples.extend(factors)

    def slot_factor(self, slot: int) -> float:
        """Factor for work done between points ``slot`` and ``slot + 1``."""
        if slot + 1 < len(self.samples):
            return 0.5 * (self.samples[slot] + self.samples[slot + 1])
        return self.samples[slot]

    def pairs(self, samples) -> list[tuple[float, float]]:
        """``(raw seconds, slot)`` samples as ``(raw seconds, factor)``."""
        return [(raw, self.slot_factor(slot)) for raw, slot in samples]

    @property
    def factor(self) -> float:
        """Median of the run's calibration points."""
        if not self.samples:
            raise RuntimeError("host clock was never calibrated")
        return statistics.median(self.samples)

    def describe(self) -> dict:
        return {
            "nominal_reference_s": NOMINAL_S,
            "factor_median": self.factor,
            "factor_series": [round(f, 4) for f in self.samples],
        }
