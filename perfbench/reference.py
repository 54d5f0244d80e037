"""A fixed reference kernel that tracks the speed of a shared machine.

On a shared host the library's jobs slow down by up to 60% in spells lasting
from seconds to minutes, when other tenants contend for the caches and
memory; the median of many runs of a job does not escape a spell that
covers the whole run.  This kernel does the kind of work the library does
(sparse products of polynomials with rational coefficients and tuple
exponents, and building tables of small tuples and lists), so it slows in
the same spells.  The benchmark runs it between jobs throughout a run and
reports each time t as t * NOMINAL_S / m, where m is the kernel's median time
in the run: seconds at the speed where the kernel takes NOMINAL_S.  The
kernel does not use mdgkit, so a change to the library moves the normalised
times exactly as much as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's median time in a quiet spell of the 2-vCPU Intel Xeon VM
# (Python 3.11) the benchmark was defined on.
NOMINAL_S = 0.015
EVERY_S = 0.5           # run the kernel once per this much measured time
BURST = 4               # but at most this many times in a row

POLY = {(i % 5, (i // 5) % 5, (i // 25) % 4): Fraction(i + 1, i % 7 + 2)
        for i in range(50)}
TABLE_ROWS = 20_000


def kernel() -> int:
    product = {}
    for ea, ca in POLY.items():
        for eb, cb in POLY.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            product[e] = product.get(e, 0) + ca * cb
    table = {}
    for i in range(TABLE_ROWS):
        table[(i, i & 7)] = [i, (i, i)]
    return len(product) + len(table)


def time_kernel() -> float:
    t = perf_counter()
    kernel()
    return perf_counter() - t


class Reference:
    """Kernel times taken between jobs, one per EVERY_S of time since the
    last ones, so that long jobs and short ones are tracked alike."""

    def __init__(self):
        self.samples = [time_kernel()]
        self.last = perf_counter()

    def keep_up(self) -> None:
        due = int((perf_counter() - self.last) / EVERY_S)
        if due:
            self.samples += [time_kernel() for _ in range(min(due, BURST))]
            self.last = perf_counter()

    def median(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Raw seconds times this factor is seconds at NOMINAL_S."""
        return NOMINAL_S / self.median()
