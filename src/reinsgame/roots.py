"""Bisection root finding.

Bisection is used throughout instead of a faster bracketing method because
the solved conditions are monotone along the searched axis and the sign-only
iteration makes solver output independent of the residual's scale (the
equilibrium xi1 is bit-identical across claim-size rescalings).
``bisect_array`` runs the same rule elementwise over arrays of brackets, so
one call solves a whole time grid; like ``bisect`` it takes the end values
where their signs are known.
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


def bisect_array(f: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo=None,
                 f_hi=None) -> np.ndarray:
    """Elementwise ``bisect(f_i, lo_i, hi_i, 0.0, f_lo_i, f_hi_i)`` for arrays of brackets.

    ``f`` maps an array of abscissae to the array of residuals, element i
    belonging to bracket i.  Each element follows the scalar rule exactly:
    the same end checks, the same sign-only steps, and a stop once the
    midpoint reaches float resolution or hits a zero.  ``f_lo`` and ``f_hi``
    (scalars or arrays) stand for end values of known sign, where ``f`` is not
    called: a computed one can be rounding noise of the wrong sign.  Raises
    NoRootError for the first bracket without a sign change.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo = f(lo) if f_lo is None else np.full(lo.shape, f_lo, dtype=float)
    f_hi = f(hi) if f_hi is None else np.full(hi.shape, f_hi, dtype=float)
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
        if not ((mid != lo) & (mid != hi)).any():  # every bracket at float resolution
            return mid
        # A bracket already at float resolution has mid == lo or hi: its update
        # is a no-op or collapses it onto mid, its result either way.
        f_mid = f(mid)
        hit = f_mid == 0.0
        to_lo = (f_mid > 0) == lo_positive
        lo = np.where(to_lo | hit, mid, lo)
        hi = np.where(to_lo & ~hit, hi, mid)

