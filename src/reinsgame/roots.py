"""Bracketed root finding.

``bisect`` serves the scalar solves; ``chandrupatla`` the array solves of
:mod:`reinsgame.reaction`, one bracket per time of a grid, by Chandrupatla's
hybrid of inverse quadratic interpolation and bisection (Adv. Eng. Software
28, 1997): on the reference grid 8 to 14 residual evaluations where bisection
takes about 54.  Both take end values of known sign, where computed ones can
be rounding noise.  The equilibrium xi1's invariance under claim-size
rescaling (acceptance criterion 5) rests on the scalar closed form solving in
u = beta*d - 1 - C_R2, whose residual and root are free of beta.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NoRootError

_XRTOL, _XATOL = 4.0 * np.finfo(float).eps, 4.0 * np.finfo(float).tiny


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


def chandrupatla(f: Callable[[np.ndarray], np.ndarray], lo, hi, f_lo=None,
                 f_hi=None) -> np.ndarray:
    """Elementwise roots of f on the brackets [lo_i, hi_i] by Chandrupatla's method.

    ``f`` maps an array of abscissae to the residuals, element i on bracket i.
    An element stops at an exact zero or once its bracket is narrower than
    4 eps |x| + 4 tiny (x its larger end), and returns the end with the
    smaller residual; a zero at an end returns that end.  A stopped element
    stays frozen (``f`` sees its last abscissa again), so each element gets
    what a call on its bracket alone gives.  ``f_lo`` and ``f_hi`` are end
    signs known without calling ``f`` (a computed value can be rounding noise
    of the wrong sign); as infinities they steer the bracket but are never
    returned or interpolated through: such a step bisects, as does one after
    two steps in a row that failed to halve the bracket.  Raises NoRootError
    for the first bracket without a sign change.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f_lo = f(lo) if f_lo is None else np.copysign(np.full(lo.shape, np.inf), f_lo)
    f_hi = f(hi) if f_hi is None else np.copysign(np.full(hi.shape, np.inf), f_hi)
    no_change = ((f_lo > 0) == (f_hi > 0)) & (f_lo != 0.0) & (f_hi != 0.0)
    if np.any(no_change):
        i = np.flatnonzero(no_change)[0]
        raise NoRootError("chandrupatla", lo.flat[i], hi.flat[i], f_lo.flat[i],
                          f_hi.flat[i])
    at_end = (f_lo == 0.0) | (f_hi == 0.0)
    # x1 is the newest point, [x1, x2] the bracket, x3 the point dropped last
    x1, f1, x2, f2 = hi, f_hi, lo, f_lo
    dx = np.abs(x2 - x1)
    done, fails, t = at_end, 0, 0.5
    x = x1 + t * (x2 - x1)
    while True:
        fx, width = f(x), dx
        kept = (fx > 0) == (f1 > 0)  # x replaces x1, else x1 becomes x2
        x3, f3 = np.where(kept, x1, x2), np.where(kept, f1, f2)
        x2, f2 = np.where(kept, x2, x1), np.where(kept, f2, f1)
        x1, f1 = x, fx
        step = x2 - x1
        dx = np.abs(step)
        tol = _XRTOL * np.maximum(np.abs(x1), np.abs(x2)) + _XATOL
        done = done | (fx == 0.0) | (dx < tol)
        if done.all():
            root = np.where(np.abs(f2) < np.abs(f1), x2, x1)
            return np.where(at_end, np.where(f_lo == 0.0, lo, hi), root)
        fails = np.where((t == 0.5) | (dx <= 0.5 * width), 0, fails + 1)
        # Inverse quadratic interpolation where Chandrupatla's test on (xi, phi)
        # passes, else bisection; the weights divide by differences that can be
        # 0 or infinite.
        with np.errstate(all="ignore"):
            f12, f32 = f1 - f2, f3 - f2
            xi, phi = step / (x2 - x3), f12 / f32
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & (fails < 2)
            t = np.where(iqi, f1 / f32 * (f3 / f12 + (x3 - x1) / step * f2 / (f3 - f1)), 0.5)
            t_min = 0.5 * tol / dx  # keeps x at least tol/2 inside the bracket
        t = np.minimum(np.maximum(t, t_min), 1.0 - t_min)
        x = np.where(done, x1, x1 + t * step)
