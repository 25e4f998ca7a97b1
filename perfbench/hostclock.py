"""Host-speed probe and the normalized clock the timed run reports in.

On a shared host the speed of identical work drifts by tens of percent over
seconds and minutes, because other tenants load the same cores and caches.
The timed run therefore measures a fixed probe (a sparse LU of a KKT-sized
banded matrix, as the IPM's KKT path does, and a pure-Python loop, as its
interpreter overhead does) between ops, at most every INTERVAL_S, and
reports op time in *normalized seconds*: wall seconds scaled by how much
slower than REFERENCE_S the probe ran next to the op. The probe never calls
ddopf, so a change to the package moves normalized time as it moves wall
time, while a change of the host's speed moves the probe too and cancels.

The time between two consecutive probes is weighted by the mean of their two
speeds; time before the first or after the last probe by that probe's.
Time spent inside a probe counts for nothing.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median probe time on the 2-vCPU Xeon host the benchmark was written on
REFERENCE_S = 0.007
INTERVAL_S = 0.25
_N = 900  # KKT dimension of the case-study MPC step


def _matrix() -> sp.csc_matrix:
    rng = np.random.default_rng(0)
    diags = [4.0 + rng.uniform(size=_N)]
    diags += [0.3 * rng.normal(size=_N - 1) for _ in range(2)]
    diags += [0.2 * rng.normal(size=_N - 7) for _ in range(2)]
    return sp.diags(diags, [0, 1, -1, 7, -7], format="csc")


class HostClock:
    """Probe samples and the normalized seconds they define.

    With `enabled` False, probe() and tick() do nothing and seconds() is wall
    time until a probe has been recorded.
    """

    REFERENCE_S = REFERENCE_S

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._matrix = _matrix()
        self._rhs = np.ones(_N)
        if enabled:  # first calls pay one-off costs
            self.probe()
            self.starts.clear()
            self.ends.clear()

    def probe(self) -> None:
        """Measure the probe once and record when it ran."""
        if not self.enabled:
            return
        t0 = time.perf_counter()
        for _ in range(3):
            spla.splu(self._matrix).solve(self._rhs)
        acc = 0
        for i in range(30_000):
            acc += i * i
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        """Probe if INTERVAL_S has passed since the last probe ended."""
        if self.enabled and (not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S):
            self.probe()

    def probe_s(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def seconds(self, a: float, b: float, normalized: bool = True) -> float:
        """Seconds in [a, b] outside the probes, scaled to the reference speed."""
        if not self.starts:
            return b - a
        durations = self.probe_s()
        # pieces alternate: probe 0, gap 0-1, probe 1, ..., probe k; plus the
        # open ends before probe 0 and after probe k
        total = 0.0
        first = max(0, bisect.bisect_right(self.ends, a) - 1)
        for i in range(first, len(self.starts)):
            if self.starts[i] >= b:
                gap_end = b
            else:
                gap_end = self.starts[i]
            gap_start = self.ends[i - 1] if i > 0 else float("-inf")
            lo, hi = max(a, gap_start), min(b, gap_end)
            if hi > lo:
                d = durations[i] if i == 0 else 0.5 * (durations[i - 1] + durations[i])
                total += (hi - lo) * (REFERENCE_S / d if normalized else 1.0)
            if self.starts[i] >= b:
                return total
        lo = max(a, self.ends[-1])
        if b > lo:
            total += (b - lo) * (REFERENCE_S / durations[-1] if normalized else 1.0)
        return total
