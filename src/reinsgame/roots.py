"""Bracketed root finding.

Every solve runs Chandrupatla's hybrid of inverse quadratic interpolation and
bisection (Adv. Eng. Software 28, 1997) on a root in the deductible of
:mod:`reinsgame.reaction`: ``chandrupatla`` for an array of times, one bracket
each, and ``chandrupatla_scalar``, the same rule in pure Python, for a float
time.  The reference grid's fixed point, one float solve for every time as C
is constant there, takes 5 residual evaluations, the Erlang-2 path's replies at
most 11 per time, and the benchmark's sweep_box draw 2591 scalar solves (3380
while R2's 789 replies, closed-form for exponential claims, each took a solve of
1), a median of 6 and at most 12, where bisection takes about 48-56.  Both solve a
residual known to be >= 0 at the bracket's lower end and <= 0 at its upper end,
and never evaluate it there, where a computed value can be rounding noise; both
return the root and the final bracket's other end, each with its residual.
``bisect`` stays as a plain reference for the tests; no solve calls it.  The
equilibrium xi1's invariance under claim-size rescaling (acceptance criterion 5)
holds to rounding: the fixed point in d scales as 1/beta, and e(d) = e_fun(beta
d), R1's reply rho(d) and xi1 = a_I/(2 rho) at the root do not.
"""
from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError, NoRootError

# Python floats, so the scalar solver's arithmetic stays out of numpy
_XRTOL, _XATOL = 4.0 * sys.float_info.epsilon, 4.0 * sys.float_info.min


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


def chandrupatla(f: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Elementwise roots of f on the brackets [lo_i, hi_i] by Chandrupatla's method.

    ``f`` maps an array of abscissae to the residuals, element i on bracket i,
    and is >= 0 at lo_i and <= 0 at hi_i; it is never evaluated at an end (a
    computed end value can be rounding noise of the wrong sign).  The ends'
    residuals are taken as +inf and -inf: they steer the bracket but are never
    interpolated through, so a step that would use one bisects, as does one
    after two steps in a row that failed to halve the bracket; one after 3 steps
    in a row that kept an end probes half the stopping width inside it, so a
    root at an end is not bisected all the way to.  An element stops at an
    exact zero or once its bracket is narrower than 4 eps |x| + 4 tiny (x its
    larger end), and then stays frozen (``f`` sees its last abscissa again), so
    each element gets what a call on its bracket alone gives.  Returns arrays
    (x, f(x), y, f(y)): the root, the final bracket's end with the smaller
    residual, and its other end, each with its residual (an infinity at an end
    of [lo, hi]).
    Raises DomainError for a bracket end that is not finite (it never closes)
    or a root whose residual is NaN; a NaN at an iterate steers as not
    positive, and the bracket still closes.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    bad = ~(np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        raise DomainError(f"chandrupatla: bracket [{lo[bad][0]:g}, {hi[bad][0]:g}] not finite")
    # x1 is the newest point, [x1, x2] the bracket, x3 the point dropped last
    x1, f1, x2, f2 = hi, np.full(hi.shape, -np.inf), lo, np.full(lo.shape, np.inf)
    dx = np.abs(x2 - x1)
    done, fails, held, t = False, 0, 0, 0.5
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
            pick = np.abs(f2) < np.abs(f1)
            x1, f1, x2, f2 = (np.where(pick, x2, x1), np.where(pick, f2, f1),
                              np.where(pick, x1, x2), np.where(pick, f1, f2))
            nan = np.isnan(f1)
            if nan.any():
                raise DomainError(f"chandrupatla: residual is NaN at the root {x1[nan][0]:g}")
            return x1, f1, x2, f2
        fails = np.where((t == 0.5) | (dx <= 0.5 * width), 0, fails + 1)
        held = np.where(np.isinf(f2), held + 1, 0)  # steps x2 has kept an end of [lo, hi]
        # Inverse quadratic interpolation where Chandrupatla's test on (xi, phi)
        # passes, else bisection; the weights divide by differences that can be
        # 0 or infinite.
        with np.errstate(all="ignore"):
            f12, f32 = f1 - f2, f3 - f2
            xi, phi = step / (x2 - x3), f12 / f32
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & (fails < 2)
            t = np.where(iqi, f1 / f32 * (f3 / f12 + (x3 - x1) / step * f2 / (f3 - f1)), 0.5)
            t_min = 0.5 * tol / dx  # keeps x at least tol/2 inside the bracket
        t = np.where(held >= 3, 1.0 - t_min, np.minimum(np.maximum(t, t_min), 1.0 - t_min))
        x = np.where(done, x1, x1 + t * step)


def chandrupatla_scalar(f: Callable[[float], float], lo: float, hi: float):
    """Root of f on [lo, hi] by ``chandrupatla``'s rule, in pure Python.

    Takes the steps of ``chandrupatla`` on a one-element bracket, with f >= 0 at
    ``lo`` and <= 0 at ``hi``, and returns what it returns, bit for bit, with the
    same evaluations of ``f`` and the same errors, without numpy's cost per step.
    """
    lo, hi = float(lo), float(hi)  # numpy scalars would be slower and warn
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"chandrupatla: bracket [{lo:g}, {hi:g}] not finite")
    # x1 is the newest point, [x1, x2] the bracket, x3 the point dropped last
    x1, f1, x2, f2 = hi, -math.inf, lo, math.inf
    dx = abs(x2 - x1)
    fails = held = 0
    t = 0.5
    x = x1 + t * (x2 - x1)
    while True:
        fx, width = float(f(x)), dx
        if (fx > 0) == (f1 > 0):  # x replaces x1, else x1 becomes x2
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        step = x2 - x1
        dx = abs(step)
        # comparisons in place of max, min and isinf calls cut this loop's own cost by 40%
        a1, a2 = abs(x1), abs(x2)
        tol = _XRTOL * (a2 if a2 > a1 else a1) + _XATOL
        if fx == 0.0 or dx < tol:
            if abs(f2) < abs(f1):
                x1, f1, x2, f2 = x2, f2, x1, f1
            if f1 != f1:
                raise DomainError(f"chandrupatla: residual is NaN at the root {x1:g}")
            return x1, f1, x2, f2
        fails = 0 if t == 0.5 or dx <= 0.5 * width else fails + 1
        held = held + 1 if f2 == math.inf or f2 == -math.inf else 0
        # Chandrupatla's test on (xi, phi) without a division by 0: where
        # f3 = f2, phi is infinite or NaN and the test fails; where it passes,
        # f1 - f2 and f3 - f1 are not 0 (x2 - x3 is the last bracket's width).
        t = 0.5
        f12, f32 = f1 - f2, f3 - f2
        if fails < 2 and f32 != 0.0:
            xi, phi = step / (x2 - x3), f12 / f32
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = f1 / f32 * (f3 / f12 + (x3 - x1) / step * f2 / (f3 - f1))
        # t_min keeps x at least tol/2 inside the bracket, and is at most 1/2 there, so
        # this is min(max(t, t_min), 1 - t_min), NaN kept, where held < 3
        t_min = 0.5 * tol / dx
        t = 1.0 - t_min if held >= 3 or t > 1.0 - t_min else t_min if t < t_min else t
        x = x1 + t * step
