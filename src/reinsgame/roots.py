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


def bisect_array(f: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Elementwise ``bisect(f_i, lo_i, hi_i, xtol=0.0)`` for arrays of brackets.

    ``f`` maps an array of abscissae to the array of residuals, element i
    belonging to bracket i.  Each element follows the scalar rule exactly:
    the same end checks, the same sign-only steps, and a stop once the
    midpoint reaches float resolution or hits a zero.  Converged elements are
    held while the others continue.  Raises NoRootError for the first bracket
    without a sign change.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo, f_hi = f(lo), f(hi)
    no_change = ((f_lo > 0) == (f_hi > 0)) & (f_lo != 0.0) & (f_hi != 0.0)
    if np.any(no_change):
        i = np.flatnonzero(no_change)[0]
        raise NoRootError("bisect", lo.flat[i], hi.flat[i], f_lo.flat[i], f_hi.flat[i])
    # a zero at an end is the root: collapse that bracket onto it
    hi = np.where(f_lo == 0.0, lo, hi)
    lo = np.where(f_hi == 0.0, hi, lo)
    lo_positive = f_lo > 0
    while True:
        mid = 0.5 * (lo + hi)
        active = (mid != lo) & (mid != hi)  # also false once lo == hi
        if not active.any():
            return 0.5 * (lo + hi)
        f_mid = f(mid)
        hit = f_mid == 0.0
        to_lo = (f_mid > 0) == lo_positive
        lo = np.where(active & (to_lo | hit), mid, lo)
        hi = np.where(active & (~to_lo | hit), mid, hi)

