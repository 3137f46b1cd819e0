"""Bisection root finding.

Bisection is used throughout instead of a faster bracketing method because
the solved conditions are monotone along the searched axis and the sign-only
iteration makes solver output independent of the residual's scale (the
equilibrium xi1 is bit-identical across claim-size rescalings).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NoRootError

_SCAN_POINTS = 64


def bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-12,
           f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Root of f on [lo, hi] to interval width ``xtol``; endpoints must bracket."""
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoRootError("bisect", lo, hi, f_lo, f_hi)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval at float resolution
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def scan_bisect(f: Callable[[float], float], lo: float, hi: float,
                xtol: float = 1e-12) -> float:
    """Bisect after locating the first sign change on a 64-point scan grid.

    Robust against brackets whose far end has decayed to (numerical) zero,
    e.g. bounded-support claim laws where both FOC terms vanish beyond the
    support.
    """
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    prev_x, prev_f = xs[0], f(xs[0])
    if prev_f == 0.0:
        return float(prev_x)
    for x in xs[1:]:
        val = f(x)
        if val == 0.0:
            return float(x)
        if (val > 0) != (prev_f > 0):
            return bisect(f, float(prev_x), float(x), xtol, prev_f, val)
        prev_x, prev_f = x, val
    raise NoRootError("scan_bisect", lo, hi, f(lo), f(hi))
