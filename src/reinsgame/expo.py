"""Closed-form equilibrium machinery for exponential claims.

Reinsurer 1's first-order condition reduces to a quadratic whose positive
root is ``G_fun``; composing with the deductible gives the two reaction
curves ``h1`` (reinsurer 1's, via the inverse of G) and ``h2`` (reinsurer
2's, fully explicit).  The solvers bisect R1's FOC in x = beta*d instead,
where R2's FOC gives xi1 in closed form.  The curves' unique crossing is the
unconstrained premium equilibrium; clamping it to the admissibility box
follows the published three-case construction, with the regime tagged.

``constrained_equilibrium`` takes a scalar time or an array of times.  An
array is solved in one pass: both bisections run elementwise on numpy arrays
with the scalar rule, so a time grid costs one call.  A scalar keeps the
pure-Python path, which is the faster one for a single cold point.

Note: contrary to a side remark in the source analysis, h1 is strictly
*increasing* on its domain (it runs from 0 to +inf between the bracket
endpoints), which the property tests assert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DomainError, RangeError
from .market import (_SERIES_CUTOFF, SECTION4, Exponential, MarketParams, PremiumPoint,
                     accum_profile, admissible_box, e_series, gamma_accumulations)
from .response import ResponseStrategy, layered_response, response
from .roots import bisect, bisect_array

_EXP_OVERFLOW = 709.0  # math.exp overflows just above 709.78
_ENDPOINT_SHRINK = 1e-12


class Regime(str, Enum):
    """Which admissibility-box constraints bind at the clamped equilibrium.

    The tag pairs the branch of the published three-case split (the
    unconstrained xi1 below, inside or above the xi1 box: floor, middle,
    cap) with where xi2* landed (its floor, inside, its cap).  Five pairs
    have published names.  OTHER_BOUNDARY covers the four further pairs
    that occur; on 2000 box points drawn as the benchmark's sweep_box draws
    them (seed 1, batches 0-7), 269 were tagged so:

    - cap branch, xi2 inside (156): R2's reply to the capped xi1 is
      interior, and xi1* sat on its cap at every one of them;
    - middle branch, xi2 at its floor (105): the mirror of XI2_CAP_ONLY,
      xi1* inside its box (at its cap once);
    - floor branch, xi2 at its cap (6): the upper-left corner, xi1* on its
      floor;
    - cap branch, xi2 at its floor (2): the lower-right corner, xi1* on its
      cap.

    In every regime xi1* is reinsurer 1's boxed best response to xi2*.
    """

    INTERIOR = "Interior"
    UPPER_RIGHT = "UpperRight"
    XI2_CAP_ONLY = "Xi2CapOnly"
    XI1_FLOOR_ONLY = "Xi1FloorOnly"
    LOWER_LEFT = "LowerLeft"
    OTHER_BOUNDARY = "OtherBoundary"


@dataclass(frozen=True)
class EquilibriumResult:
    """Clamped premium equilibrium with its regime and unconstrained anchor.

    Solved on an array of times, every numeric field is an array over the
    times and ``regime`` is a tuple of one Regime per time.
    """

    xi1_star: float
    xi2_star: float
    response: ResponseStrategy
    regime: Regime
    unconstrained: tuple[float, float]
    t: float = 0.0

    def point(self) -> PremiumPoint:
        return PremiumPoint(self.xi1_star, self.xi2_star, self.t)


def e_fun(x: float) -> float:
    """(2/x^2)e^x - (1 + 2/x + 2/x^2), the scaled truncated second moment.

    Equals sum_{n>=1} 2 x^n/(n+2)!, the form used below 0.5, where the
    closed form cancels to under 14 digits.  Beyond x ~ 709.78, where e^x
    overflows, e(x) = 2 exp(x - 2 ln x) to rounding; it is inf from x ~ 722,
    where e(x) itself exceeds the largest float.
    """
    if x <= 0:
        raise DomainError("e_fun requires x > 0")
    if x < _SERIES_CUTOFF:
        return e_series(x)
    try:
        return (2.0 / (x * x)) * math.exp(x) - (1.0 + 2.0 / x + 2.0 / (x * x))
    except OverflowError:
        try:
            return 2.0 * math.exp(x - 2.0 * math.log(x))
        except OverflowError:
            return math.inf


def g_fun(x: float, c_r1: float) -> float:
    """Positive root of the reduced quadratic in the FOC ratio, at e-value x.

    Strictly decreasing from g(0) = 1 to 2*c_r1/(2*c_r1+1) as x -> inf.
    """
    if x < 0 or c_r1 <= 0:
        raise DomainError("g_fun requires x >= 0 and c_r1 > 0")
    b = 2.0 * c_r1 - 1.0 + x * (2.0 * c_r1 + 1.0)
    root = math.hypot(b, math.sqrt(8.0 * c_r1 * (x + 1.0)))
    if b > 0:  # rationalized form avoids cancellation for large x
        return 4.0 * c_r1 * (x + 1.0) / (b + root)
    return 0.5 * (-b + root)


def g_range(c_r1: float) -> tuple[float, float]:
    """Open range (lim_{x->inf} g, g(0)) = (2C/(2C+1), 1) of g_fun(., c_r1);
    g(0) = (1 - 2C + sqrt((2C-1)^2 + 8C))/2 = 1 as (2C-1)^2 + 8C = (2C+1)^2."""
    return 2.0 * c_r1 / (2.0 * c_r1 + 1.0), 1.0


def G_fun(x: float, c_r1: float) -> float:
    """g_fun composed with e_fun; continuously decreasing on (0, inf).

    Computed as G(inf) + delta(x), which stays accurate where e(x) is huge
    (the composed form overflows there) and is G(inf) once e(x) overflows.
    """
    if not c_r1 > 0:
        raise DomainError("G_fun requires c_r1 > 0")
    return g_range(c_r1)[0] + _delta(x, c_r1)


def G_inv(y: float, c_r1: float) -> float:
    """Inverse of G_fun by bisection on [1e-300, 709] to 1e-12 interval width.

    Raises RangeError when y is not strictly inside G's open range; the
    endpoints are shrunk by 1e-12 relative so boundary values are rejected
    rather than evaluated; that keeps the root below x = 40, and the end
    signs are known (G falls from 1 towards G(inf) < y).
    """
    lim_inf, g0 = g_range(c_r1)
    if not (lim_inf * (1.0 + _ENDPOINT_SHRINK) <= y <= g0 * (1.0 - _ENDPOINT_SHRINK)):
        raise RangeError(f"G_inv argument {y!r} outside open range ({lim_inf}, {g0})")
    return bisect(lambda x: G_fun(x, c_r1) - y, 1e-300, _EXP_OVERFLOW, xtol=1e-12,
                  f_lo=1.0, f_hi=-1.0)


def _coeffs(params: MarketParams, t: float):
    a_i, a_r1, a_r2 = gamma_accumulations(params, t)
    return a_i, a_r1, a_r2, a_r1 / a_i, a_r2 / a_i


def _beta(params: MarketParams) -> float:
    if not isinstance(params.claims, Exponential):
        raise DomainError("closed-form equilibrium requires exponential claims")
    return params.claims.beta


def h1_domain(params: MarketParams, t: float) -> tuple[float, float]:
    """Open xi1 interval (a_R1, a_R1 + a_I/2), a = gamma*A, of R1's reaction curve.

    R1's exact bracket for every claim law: its FOC is int_0^d y^2 dF/(2C+1)
    >= 0 at the lower end and -d^2 S(d)/(2C+1) <= 0 at the upper end.
    """
    a_i, a_r1, _ = gamma_accumulations(params, t)
    return a_r1, a_r1 + 0.5 * a_i


def h1(xi1: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 1's reaction curve: the xi2 solving its FOC at this xi1."""
    beta = _beta(params)
    a_i, a_r1, _, c1, _ = _coeffs(params, t)
    x = G_inv(a_r1 / xi1, c1)
    return a_i * x / (beta * (a_i / (2.0 * xi1) + 1.0))


def h2(xi1: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 2's reaction curve: the xi2 solving its FOC at this xi1."""
    beta = _beta(params)
    a_i, _, _, _, c2 = _coeffs(params, t)
    return _h2(xi1, a_i, c2, beta)


def _h2(xi1, a_i, c2, beta):
    # h2 from its coefficients; elementwise for arrays
    # 1 - a_i/(a_i + 2 xi1) written as 2 xi1/(a_i + 2 xi1): no cancellation
    # when a_i >> xi1
    return (a_i / beta) * (c2 + 2.0 * xi1 / (a_i + 2.0 * xi1))


def _delta(x: float, c: float) -> float:
    """G(x) - G(inf) without cancellation (0 once e(x) overflows): the positive
    root of D^2 + s D - K, K = 4C(C+1)/(2C+1)^2, s = 2G(inf) + 2C - 1 + e(x)(2C+1)."""
    if x >= _EXP_OVERFLOW:
        return 0.0
    k = 4.0 * c * (c + 1.0) / (2.0 * c + 1.0) ** 2
    s = 4.0 * c / (2.0 * c + 1.0) + 2.0 * c - 1.0 + e_fun(x) * (2.0 * c + 1.0)
    root = math.hypot(s, 2.0 * math.sqrt(k))
    return 2.0 * k / (s + root) if s > 0 else 0.5 * (root - s)


def _e_array(x: np.ndarray) -> np.ndarray:
    # e_fun elementwise for 0 < x <= 709; the series runs only where it is
    # needed, since the bisections call this about 100 times per solve
    small = x < _SERIES_CUTOFF
    xc = np.where(small, 1.0, x)
    two_over_sq = 2.0 / (xc * xc)
    e = two_over_sq * np.exp(xc) - (1.0 + 2.0 / xc + two_over_sq)
    if small.any():
        e[small] = e_series(x[small])
    return e


def _delta_array(c: np.ndarray):
    """``_delta(., c)`` elementwise, as a function of an array x of c's shape.

    The terms that depend on c alone are computed once, in the scalar
    formula's order; numpy's exp and hypot may differ from math's in the
    last bit.
    """
    w = 2.0 * c + 1.0
    k = 4.0 * c * (c + 1.0) / w ** 2
    two_k, hyp_c = 2.0 * k, 2.0 * np.sqrt(k)
    s_c = 4.0 * c / w + 2.0 * c - 1.0

    def delta(x: np.ndarray) -> np.ndarray:
        overflow = x >= _EXP_OVERFLOW
        s = s_c + _e_array(np.where(overflow, 1.0, x)) * w
        # |s| + root is s + root for s > 0 and root - s otherwise, never 0
        wide = np.abs(s) + np.hypot(s, hyp_c)
        return np.where(overflow, 0.0, np.where(s > 0, two_k / wide, 0.5 * wide))
    return delta


def h1_inv(xi2: float, params: MarketParams, t: float = 0.0) -> float:
    """R1's best response, h1(xi1) = xi2: bisects its FOC delta(beta d) - G(inf)
    (hi/xi1 - 1) on h1's domain [lo, hi], negative at lo and >= 0 at hi."""
    if not xi2 > 0:
        raise RangeError("h1 only takes positive values")
    beta = _beta(params)
    a_i, _, _, c1, _ = _coeffs(params, t)
    lo, hi = h1_domain(params, t)
    return bisect(lambda x: _delta(beta * xi2 * (1.0 / a_i + 0.5 / x), c1)
                  - g_range(c1)[0] * (hi / x - 1.0), lo, hi, xtol=0.0)


def unconstrained_fixed_point(params: MarketParams, t: float = 0.0) -> tuple[float, float]:
    """Unique positive crossing of the two reaction curves (no box).

    R2's FOC gives beta d = 1 + C_R2 + u, u = a_R2/(2 xi1); R1's FOC then reads
    delta(beta d) = 2C_R1 (u - u_lo)/C_R2 with one root on [u_lo, u_hi], free of beta.
    """
    _, _, a_r2, c1, c2 = _coeffs(params, t)
    u_lo, u_hi = c2 / (2.0 * c1 + 1.0), c2 / (2.0 * c1)
    u = bisect(lambda u: _delta(1.0 + c2 + u, c1) - 2.0 * c1 * (u - u_lo) / c2,
               u_lo, u_hi, xtol=0.0)
    xi1_bar = a_r2 / (2.0 * u)
    return xi1_bar, h2(xi1_bar, params, t)


def _clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(x, hi))


def _regime(branch: str, floor2: bool, cap2: bool) -> Regime:
    # regime per the published case analysis: the branch that fired plus
    # where xi2* landed (this reproduces the published regime thresholds;
    # inside the "cap" branch xi1* itself may come off the corner, see notes)
    if branch == "middle" and not (floor2 or cap2):
        return Regime.INTERIOR
    if branch == "cap" and cap2:
        return Regime.UPPER_RIGHT
    if branch == "middle" and cap2:
        return Regime.XI2_CAP_ONLY
    if branch == "floor" and not (floor2 or cap2):
        return Regime.XI1_FLOOR_ONLY
    if branch == "floor" and floor2:
        return Regime.LOWER_LEFT
    return Regime.OTHER_BOUNDARY


def constrained_equilibrium(params: MarketParams, t=0.0) -> EquilibriumResult:
    """Premium equilibrium clamped to the admissibility box.

    Follows the published construction verbatim: xi2* is set by a three-way
    split on where the unconstrained xi1 falls against [theta*beta,
    eta*beta] (clamping to [theta, eta]); reinsurer 1 then best-responds
    once, clamped to its own box.  The regime tag records which clamps bound.

    ``t`` may be a one-dimensional array of times in [0, T]: the result's
    numeric fields (and the response's) are then arrays over t, and
    ``regime`` is a tuple with one Regime per time.
    """
    if params.bound_convention != SECTION4:
        raise ConfigError("the closed-form box construction assumes the "
                          f"'{SECTION4}' admissibility convention")
    if not isinstance(t, float) and np.ndim(t) > 0:  # np.ndim costs ~1 us on a float
        return _equilibrium_on_grid(params, np.asarray(t, dtype=float))
    (xi1_lo, xi1_hi), (xi2_lo, xi2_hi) = admissible_box(params)
    xi1_bar, xi2_bar = unconstrained_fixed_point(params, t)

    # branch of the published three-case split on the unconstrained xi1
    if xi1_bar < xi1_lo:
        branch = "floor"
        xi2_star = _clamp(h2(xi1_lo, params, t), xi2_lo, xi2_hi)
    elif xi1_bar <= xi1_hi:
        branch = "middle"
        xi2_star = _clamp(xi2_bar, xi2_lo, xi2_hi)
    else:
        branch = "cap"
        xi2_star = _clamp(h2(xi1_hi, params, t), xi2_lo, xi2_hi)

    xi1_star = _clamp(h1_inv(xi2_star, params, t), xi1_lo, xi1_hi)
    regime = _regime(branch, xi2_star == xi2_lo, xi2_star == xi2_hi)
    point = PremiumPoint(xi1_star, xi2_star, t)
    return EquilibriumResult(xi1_star, xi2_star, response(point, params), regime,
                             (xi1_bar, xi2_bar), t)


def _equilibrium_on_grid(params: MarketParams, t: np.ndarray) -> EquilibriumResult:
    # constrained_equilibrium elementwise over times t: the same brackets,
    # residuals, three-case split and clamps as the scalar path
    if t.ndim != 1 or not np.all((t >= 0.0) & (t <= params.T)):
        raise DomainError("equilibrium times must be a scalar or a one-dimensional "
                          f"array in [0, T = {params.T:g}]")
    beta = _beta(params)
    (xi1_lo, xi1_hi), (xi2_lo, xi2_hi) = admissible_box(params)
    a_i, a_r1, a_r2 = (params.gamma(p) * accum_profile(params, p, t)
                       for p in ("I", "R1", "R2"))
    c1, c2 = a_r1 / a_i, a_r2 / a_i

    # unconstrained_fixed_point
    delta = _delta_array(c1)
    u_lo, u_hi = c2 / (2.0 * c1 + 1.0), c2 / (2.0 * c1)
    u = bisect_array(lambda u: delta(1.0 + c2 + u) - 2.0 * c1 * (u - u_lo) / c2,
                     u_lo, u_hi)
    xi1_bar = a_r2 / (2.0 * u)
    xi2_bar = _h2(xi1_bar, a_i, c2, beta)

    split = [xi1_bar < xi1_lo, xi1_bar <= xi1_hi]
    branch = np.select(split, ["floor", "middle"], "cap")
    xi2_star = np.clip(np.select(split, [_h2(xi1_lo, a_i, c2, beta), xi2_bar],
                                 _h2(xi1_hi, a_i, c2, beta)), xi2_lo, xi2_hi)

    # h1_inv on h1_domain
    hi = a_r1 + 0.5 * a_i
    g_inf = 2.0 * c1 / (2.0 * c1 + 1.0)
    xi1_br = bisect_array(lambda x: delta(beta * xi2_star * (1.0 / a_i + 0.5 / x))
                          - g_inf * (hi / x - 1.0), a_r1, hi)
    xi1_star = np.clip(xi1_br, xi1_lo, xi1_hi)

    regime = tuple(_regime(b, x2 == xi2_lo, x2 == xi2_hi)
                   for b, x2 in zip(branch.tolist(), xi2_star.tolist()))
    resp = layered_response(xi1_star, xi2_star, a_i, t)
    return EquilibriumResult(xi1_star, xi2_star, resp, regime, (xi1_bar, xi2_bar), t)
