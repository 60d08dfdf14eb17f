"""Machine-speed calibration.

On a shared two-vCPU virtual machine (Python 3.11.7) the same pure-Python
loop ran up to 1.8 times slower for stretches of several seconds, and its
means over 20-second windows differed by 13.5% between their quartiles.
Every op is therefore bracketed by a fixed calibration loop
of the same kind of work (Fraction arithmetic and dict updates, as in the
exact kernel), and its wall time is scaled to the reference speed at
which that loop takes REFERENCE_S:

    time at reference speed = wall time * REFERENCE_S / calibration time

Raw wall times are printed next to the scaled ones.
"""

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1e-3


def _loop():
    x, acc = Fraction(1, 3), {}
    for i in range(150):
        x = (x * Fraction(i + 2, i + 1) + 1) / 3
        acc[i % 17] = acc.get(i % 17, 0) + i
    return x, acc


def calibrate(repeats: int = 3) -> float:
    """Seconds the calibration loop takes now; the best of a few repeats."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """Wall time at reference speed, the speed being the geometric mean of
    the calibrations taken just before and just after."""
    return seconds * REFERENCE_S / (before * after) ** 0.5
