"""The speed of the host, for times that do not drift with it.

On the 2-core virtual machine this benchmark was written on, other
tenants changed the speed of every process by a fifth or more for tens
of seconds at a time.  The benchmark therefore times a fixed calibration
workload before and after each piece of work and scales the work's times
by REFERENCE_S over the mean of the two calibration times (Scaler): wall
times by the calibration's wall time, CPU times by its CPU time, since
the host also takes the CPU away for a while, which adds wall time but
no CPU time.  Times are thus in seconds of a host on which the
calibration takes REFERENCE_S.  Over 200 s of `expect --d 19` and
`verify --d 8 --q 3` jobs in turn on that machine, the medians of 8-job
blocks of each ranged over 0.43 and 0.37 of their median raw, 0.09 and
0.13 scaled.  A change to splitstat does not touch the calibration, so
it moves scaled and raw times alike.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter, process_time

REFERENCE_S = 0.030


def calibration() -> tuple[float, float]:
    """Fastest wall and CPU time over three runs of a fixed workload of the
    kind splitstat does: Fraction sums, integer dictionary updates and
    products of polynomials over F_7 held as lists."""
    walls, cpus = [], []
    for _ in range(3):
        start, start_cpu = perf_counter(), process_time()
        total = Fraction(0)
        for k in range(1, 1500):
            total += Fraction(k, k * k + 1)
        counts: dict[int, int] = {}
        for i in range(60000):
            counts[i % 977] = counts.get(i % 977, 0) + i * i
        f = [(3 * i + 1) % 7 for i in range(24)]
        for r in range(40):
            g = [(i * r + 2) % 7 for i in range(24)]
            product = [0] * 47
            for i, a in enumerate(f):
                if a:
                    for j, b in enumerate(g):
                        product[i + j] = (product[i + j] + a * b) % 7
        walls.append(perf_counter() - start)
        cpus.append(process_time() - start_cpu)
    return min(walls), min(cpus)


class Scaler:
    """Factors from this host's seconds to reference seconds for pieces of
    work done one after another, each between the calibration before it
    and the one after it."""

    def __init__(self, last: tuple[float, float] | None = None) -> None:
        self.last = last  # the latest calibration's wall and CPU time

    def start(self) -> tuple[float, float]:
        """Calibrate before the next piece of work, unless the calibration
        after the previous piece stands for it."""
        if self.last is None:
            self.last = calibration()
        return self.last

    def scale(self) -> tuple[float, float]:
        """Calibrate; the factors for the wall and the CPU time of the work
        since the previous calibration."""
        before, self.last = self.start(), calibration()
        wall, cpu = ((b + a) / 2 for b, a in zip(before, self.last))
        return REFERENCE_S / wall, REFERENCE_S / cpu
