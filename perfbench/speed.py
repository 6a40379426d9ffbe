"""Machine-speed reference for the end-to-end timings.

The shared 2-core hosts this benchmark runs on change speed by up to 1.7x
within a minute, for the same work, while the process is never descheduled
(CPU time equals wall time).  Every timing is therefore taken next to a fixed
pure-Python kernel and reported in reference seconds:

    reference seconds = measured seconds * REF_S / kernel seconds

i.e. seconds on a machine where the kernel takes REF_S.  The kernel uses
none of the package's code, so a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Kernel time on the reference machine (seconds): its time on an idle
#: core of the 2-vCPU Xeon host the baseline was measured on.
REF_S = 0.008

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(10)}


def kernel_s() -> float:
    """Seconds of one sparse product of two bivariate polynomials with
    Fraction coefficients: the operation mix of the polynomial layer."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for (a0, a1), ca in _TERMS.items():
            for (b0, b1), cb in _TERMS.items():
                e = (a0 + b0, a1 + b1)
                out[e] = out.get(e, 0) + ca * cb
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds for a stretch of time
    bracketed or interleaved by kernel ``samples``: the mean of the
    per-sample factors, which integrates a speed that changes during the
    stretch (a median would pick one speed when the host switches between
    two).  A sample slowed by an interruption only lowers its own factor."""
    return statistics.fmean(REF_S / k for k in samples)


def probe(count: int = 5) -> list[float]:
    return [kernel_s() for _ in range(count)]
