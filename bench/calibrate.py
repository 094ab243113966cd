"""A fixed pure-Python workload that measures how fast the machine runs now.

The host's speed drifts during a run (other tenants share its cores), by up
to about 1.6x within seconds.  Each timed command is paired with the mean
of the calibration times taken just before and just after it, and the
benchmark reports times scaled to a calibration time of REFERENCE_S.  The
calibration uses only the standard library, so no change to the package
can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# a typical calibration time on the reference machine (shared 2-vCPU Xeon
# VM, Python 3.11); scaled times are seconds on that machine at that speed
REFERENCE_S = 0.026


def calibrate() -> float:
    """Seconds taken by a fixed run of exact rational Horner evaluation: a
    degree-8 integer polynomial at 200-bit rational points, the kind of work
    the package's sign tests do."""
    t = time.perf_counter()
    coeffs = (7, -31, 4, 18, -44, 9, 27, -13, 5)
    x = Fraction((1 << 200) // 3 + 1, 1 << 199)
    for k in range(400):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        x += Fraction(1, 1 << (100 + k % 90))
    return time.perf_counter() - t


def scale(raw: float, cal_before: float, cal_after: float) -> float:
    """raw seconds expressed at reference speed."""
    return raw * REFERENCE_S * 2 / (cal_before + cal_after)
