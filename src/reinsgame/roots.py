"""Bracketed root finding.

Every solve runs Chandrupatla's hybrid of inverse quadratic interpolation and
bisection (Adv. Eng. Software 28, 1997): ``chandrupatla`` for the array solves
of :mod:`reinsgame.reaction`, one bracket per time of a grid, and
``chandrupatla_scalar``, the same rule in pure Python, for the scalar solves
of :mod:`reinsgame.expo`.  The reference grid's fixed point takes 5 residual
evaluations per time, the Erlang-2 path's at most 11, and a scalar solve of
the benchmark's sweep_box draw a median of 6 and at most 13, where bisection
takes about 48-56.  Both take end values of known sign, where computed ones
can be rounding noise.  ``bisect`` stays as a plain reference; no solve calls
it.  The equilibrium xi1's invariance under claim-size rescaling (acceptance
criterion 5) rests on the scalar fixed point solving x = a + b G(x) in
x = beta*d, whose a, b and root are free of beta.
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
    two steps in a row that failed to halve the bracket; one after 3 steps in a
    row that kept a sign-only end probes half the stopping width inside it, so a
    root at such an end is not bisected all the way to.  Raises NoRootError for
    the first bracket without a sign change, and DomainError for a bracket end
    that is not finite (it never closes) or a root whose residual is NaN; a NaN
    at an iterate steers as not positive, and the bracket still closes.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    bad = ~(np.isfinite(lo) & np.isfinite(hi))
    if bad.any():
        raise DomainError(f"chandrupatla: bracket [{lo[bad][0]:g}, {hi[bad][0]:g}] not finite")
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
    done, fails, held, t = at_end, 0, 0, 0.5
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
            root = np.where(pick, x2, x1)
            nan = np.isnan(np.where(pick, f2, f1)) & ~at_end
            if nan.any():
                raise DomainError(f"chandrupatla: residual is NaN at the root {root[nan][0]:g}")
            return np.where(at_end, np.where(f_lo == 0.0, lo, hi), root)
        fails = np.where((t == 0.5) | (dx <= 0.5 * width), 0, fails + 1)
        held = np.where(np.isinf(f2), held + 1, 0)  # steps x2 has kept a sign-only end
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


def chandrupatla_scalar(f: Callable[[float], float], lo: float, hi: float,
                        f_lo: float | None = None, f_hi: float | None = None):
    """Root of f on [lo, hi] by ``chandrupatla``'s rule, in pure Python.

    Takes the steps of ``chandrupatla`` on a one-element bracket and returns
    its root bit for bit, with the same evaluations of ``f`` (none at a known
    end sign) and the same errors, without numpy's cost per step.  Returns
    (x, f(x), y, f(y)): the root and the final bracket's other end, each with
    its residual; a residual given as a sign is an infinity.
    """
    lo, hi = float(lo), float(hi)  # numpy scalars would be slower and warn
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"chandrupatla: bracket [{lo:g}, {hi:g}] not finite")
    f_lo = float(f(lo)) if f_lo is None else math.copysign(math.inf, f_lo)
    f_hi = float(f(hi)) if f_hi is None else math.copysign(math.inf, f_hi)
    if f_lo == 0.0:
        return lo, f_lo, hi, f_hi
    if f_hi == 0.0:
        return hi, f_hi, lo, f_lo
    if (f_lo > 0) == (f_hi > 0):
        raise NoRootError("chandrupatla", lo, hi, f_lo, f_hi)
    # x1 is the newest point, [x1, x2] the bracket, x3 the point dropped last
    x1, f1, x2, f2 = hi, f_hi, lo, f_lo
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
        tol = _XRTOL * max(abs(x1), abs(x2)) + _XATOL
        if fx == 0.0 or dx < tol:
            if abs(f2) < abs(f1):
                x1, f1, x2, f2 = x2, f2, x1, f1
            if math.isnan(f1):
                raise DomainError(f"chandrupatla: residual is NaN at the root {x1:g}")
            return x1, f1, x2, f2
        fails = 0 if t == 0.5 or dx <= 0.5 * width else fails + 1
        held = held + 1 if math.isinf(f2) else 0
        # Chandrupatla's test on (xi, phi) without a division by 0: where
        # f3 = f2, phi is infinite or NaN and the test fails; where it passes,
        # f1 - f2 and f3 - f1 are not 0 (x2 - x3 is the last bracket's width).
        t = 0.5
        f12, f32 = f1 - f2, f3 - f2
        if fails < 2 and f32 != 0.0:
            xi, phi = step / (x2 - x3), f12 / f32
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = f1 / f32 * (f3 / f12 + (x3 - x1) / step * f2 / (f3 - f1))
        t_min = 0.5 * tol / dx  # keeps x at least tol/2 inside the bracket
        t = 1.0 - t_min if held >= 3 else min(max(t, t_min), 1.0 - t_min)
        x = x1 + t * step
