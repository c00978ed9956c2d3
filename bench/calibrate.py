"""Machine-speed calibration of the timings.

The shared 2-vCPU machines this benchmark runs on change speed by up to a
third, for seconds to minutes at a time, with the load of other tenants;
every timing of a run moves with it.  The harness therefore times a fixed
slice of pure-Python exact arithmetic between ops.  The slice is written here
and does not touch goodcones, so no change to the library can move it.  The
median slice time of a run divided by ``REFERENCE_SLICE_S`` is the run's
speed factor, and the time metrics are divided by it.  They are reported in
seconds (or ms) at the reference speed: the speed at which one slice takes
``REFERENCE_SLICE_S``, about the median speed of a shared 2-vCPU x86-64
Linux machine under Python 3.11.  The raw timings and the factor go into
the run's record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from .checks import example_normals, good_cone_failure, qmul

# Never change this constant: it fixes the unit of every reported time.
REFERENCE_SLICE_S = 0.0035
_CONE = example_normals(12)


def _slice():
    acc = (Fraction(0), Fraction(0))
    for _ in range(2):
        good_cone_failure(_CONE)
        for i in range(1, 60):
            a = (acc[0] + Fraction(1, i), acc[1] + Fraction(i, 7))
            acc = qmul(a, (Fraction(3, 5), Fraction(1, i + 1)), 2)
    return acc


def time_slice() -> float:
    """Wall time of one calibration slice."""
    start = perf_counter()
    _slice()
    return perf_counter() - start
