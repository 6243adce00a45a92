"""Machine-speed reference: fixed pure-Python kernels timed next to the work.

The benchmark runs on shared 2-core machines whose speed changes under the
load of other tenants: a fixed computation alternates between two speeds,
1.6x to 1.8x apart, in stretches from a few seconds to a minute, and
process CPU time slows with wall time (the slowdown is not steal time).
Timing a kernel right before and after each item, and scaling the item's
latency by `nominal_s(workload) / kernel time`, expresses every latency at
one reference machine speed.

Contention slows small-Fraction code and big-integer arithmetic by
different factors, so there are two kernels, and each workload is scaled
by the ones that match where its time goes.  Over 90 s of alternating
kernel and item runs, the spread (IQR over median) of single-item
latencies was, unscaled / scaled by the small kernel / by both:
a symbolic closed form 0.15 / 0.14 / 0.08, a p-adic certification
0.30 / 0.08 / 0.11, a boundary series 0.24 / 0.08 / 0.06, a command line
0.24 / 0.11 / 0.10.  Over five 20 s runs, the symbolic p90 spread by 0.09
scaled by the small kernel and 0.07 by both, the p-adic p90 by 0.006 and
0.04.  The kernels do not use `qgen`, so no change to the program moves
them.
"""

from fractions import Fraction
from time import perf_counter

_BIG_A = 3 ** 4000 + 12345
_BIG_B = 7 ** 3000 + 999


def small_kernel():
    """Small Fractions, lists and calls, as in the series and p-adic sums."""
    acc = Fraction(0)
    x = Fraction(3, 7)
    row = [Fraction(1)] * 8
    for i in range(1, 32):
        acc += x ** (i % 11) / i
        row = [a + b * x for a, b in zip(row, row[1:] + [acc])]
    n = 1
    for i in range(100):
        n = (n * 1000003 + i) % (1 << 256)
    return acc, row, n


def big_kernel():
    """Products and reductions of integers of thousands of bits, as in the
    coefficient swell of the symbolic GCDs."""
    big = 0
    for i in range(4):
        big += (_BIG_A * _BIG_B) % (_BIG_B + i)
    return big, Fraction(_BIG_A % (1 << 2000), _BIG_B % (1 << 1500) + 1) * Fraction(3, 7)


# About each kernel's time on an uncontended 2-core 2.1 GHz virtual
# machine (5th percentile of runs over 15 to 40 s: 0.89 ms and 0.56 ms).
# Fixed constants: they set the unit of the scaled times and must not
# change.
NOMINAL_S = {small_kernel: 0.0009, big_kernel: 0.0006}
# symbolic spends its time on multi-thousand-bit coefficients
# (`qcore.max_coeff_bits` is about 14000); the others on smaller Fractions.
KERNELS = {
    "symbolic": (small_kernel, big_kernel),
    "padic": (small_kernel,),
    "series": (small_kernel,),
    "cli": (small_kernel,),
}


def nominal_s(workload: str) -> float:
    return sum(NOMINAL_S[k] for k in KERNELS[workload])


def time_reference(workload: str) -> float:
    """Seconds the workload's reference kernels take now."""
    t0 = perf_counter()
    for kernel in KERNELS[workload]:
        kernel()
    return perf_counter() - t0
