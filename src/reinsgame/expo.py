"""Closed-form equilibrium machinery for exponential claims.

Reinsurer 1's first-order condition reduces to a quadratic whose positive
root is ``G_fun``; composing with the deductible gives the two reaction
curves ``h1`` (reinsurer 1's, via the inverse of G) and ``h2`` (reinsurer
2's, fully explicit).  R1's reply to xi2 and the curves' unique crossing, the
unconstrained premium equilibrium, are each one root of x = a + b G(x) in
x = beta*d by ``chandrupatla_scalar`` (``_g_at_x_root``), then
xi1 = a_R1/G(x), with G(x) read as (x - a)/b where G is steep at the root.
Clamping the crossing to the admissibility box follows the published
three-case construction, with the regime tagged.

``constrained_equilibrium`` takes a scalar time or an array of times.  An
array, for any claim law, runs the same three-case split on the array fixed
point of :mod:`reinsgame.reaction`, one root in the deductible per time, so a
time grid costs one call.  R2's reply runs only at times on the floor or cap
branch, and R1's only at times where a clamp binds: elsewhere the fixed point
already solves R1's FOC.  On the reference grid that is 5 residual evaluations
per time in all.  A scalar needs exponential claims and keeps the closed-form
pure-Python path, the faster one for a single cold point.

Note: contrary to a side remark in the source analysis, h1 is strictly
*increasing* on its domain (it runs from 0 to +inf between the bracket
endpoints), which the property tests assert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, RangeError
from .market import (_SERIES_CUTOFF, Exponential, MarketParams, PremiumPoint,
                     accum_profile, admissible_box, coefficients, e_series,
                     gamma_accumulations)
from .reaction import _fixed_point, _r1_reply, _r2_reply, h1_domain
from .response import ResponseStrategy, layered_response, response
from .roots import chandrupatla_scalar

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
    """Inverse of G_fun by ``chandrupatla_scalar`` on [1e-300, 709].

    Raises RangeError when y is not strictly inside G's open range; the
    endpoints are shrunk by 1e-12 relative so boundary values are rejected
    rather than evaluated; that keeps the root below x = 40, and the end
    signs are known (G falls from 1 towards G(inf) < y).
    """
    lim_inf, g0 = g_range(c_r1)
    if not (lim_inf * (1.0 + _ENDPOINT_SHRINK) <= y <= g0 * (1.0 - _ENDPOINT_SHRINK)):
        raise RangeError(f"G_inv argument {y!r} outside open range ({lim_inf}, {g0})")
    return chandrupatla_scalar(lambda x: G_fun(x, c_r1) - y, 1e-300, _EXP_OVERFLOW,
                               f_lo=1.0, f_hi=-1.0)[0]


def _coeffs(params: MarketParams, t: float):
    return coefficients(*gamma_accumulations(params, t), t)


def _beta(params: MarketParams) -> float:
    if not isinstance(params.claims, Exponential):
        raise DomainError("closed-form equilibrium requires exponential claims")
    return params.claims.beta


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


def _g_at_x_root(a: float, b: float, c_r1: float) -> float:
    """G(x) at the root of a + b G(x) - x, which is >= 0 at a + b G(inf) and <= 0 at a + b.

    At the root G(x) = (x - a)/b as well, the better conditioned of the two
    where b |G'(x)| > 1, that is where the residual falls by more than 2 per
    unit of x across the solver's final bracket.  Where a + b overflows, the
    root's limit x -> inf gives G(inf).
    """
    g_inf = g_range(c_r1)[0]
    lo, hi = a + b * g_inf, a + b
    if hi == math.inf:
        return g_inf
    x, f_x, y, f_y = chandrupatla_scalar(lambda x: lo + b * _delta(x, c_r1) - x, lo, hi,
                                         f_lo=1.0, f_hi=-1.0)
    if math.isfinite(f_y) and x != y and (f_x - f_y) / (x - y) < -2.0:
        return (x - a) / b
    return g_inf + _delta(x, c_r1)


def h1_inv(xi2: float, params: MarketParams, t: float = 0.0) -> float:
    """R1's best response, h1(xi1) = xi2: xi1 = a_R1/G(x) at the root of
    x = beta d = beta xi2/a_I + (beta xi2/(2 a_R1)) G(x) (``_g_at_x_root``)."""
    if not xi2 > 0:
        raise RangeError("h1 only takes positive values")
    beta = _beta(params)
    a_i, a_r1, _, c1, _ = _coeffs(params, t)
    return a_r1 / _g_at_x_root(beta * xi2 / a_i, beta * xi2 / (2.0 * a_r1), c1)


def unconstrained_fixed_point(params: MarketParams, t: float = 0.0) -> tuple[float, float]:
    """Unique positive crossing of the two reaction curves (no box).

    R2's FOC gives x = beta d = 1 + C_R2 + a_R2/(2 xi1) and R1's xi1 = a_R1/G(x), so
    x = 1 + C_R2 + (C_R2/(2C_R1)) G(x) (``_g_at_x_root``): its root and xi1 are free of beta.
    """
    _, a_r1, _, c1, c2 = _coeffs(params, t)
    xi1_bar = a_r1 / _g_at_x_root(1.0 + c2, c2 / (2.0 * c1), c1)
    return xi1_bar, h2(xi1_bar, params, t)


# Regime per the published case analysis, at index 3 * branch + landed: the
# branch of the three-case split that fired (0 floor, 1 middle, 2 cap) and
# where xi2* landed (0 inside its box, 1 its floor, 2 its cap).  This
# reproduces the published regime thresholds; inside the cap branch xi1*
# itself may come off the corner (see Regime).
_REGIMES = (Regime.XI1_FLOOR_ONLY, Regime.LOWER_LEFT, Regime.OTHER_BOUNDARY,
            Regime.INTERIOR, Regime.OTHER_BOUNDARY, Regime.XI2_CAP_ONLY,
            Regime.OTHER_BOUNDARY, Regime.OTHER_BOUNDARY, Regime.UPPER_RIGHT)


def _clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(x, hi))


def constrained_equilibrium(params: MarketParams, t=0.0) -> EquilibriumResult:
    """Premium equilibrium clamped to the admissibility box.

    Follows the published construction verbatim: xi2* is set by a three-way
    split on where the unconstrained xi1 falls against [theta*beta,
    eta*beta] (clamping to [theta, eta]); reinsurer 1 then best-responds
    once, clamped to its own box.  The regime tag records which clamps bound.

    ``t`` may be a one-dimensional array of times in [0, T], for any claim law
    (the xi1 box is then theta and eta times 2 a_Y/sigma2): the numeric fields
    are arrays over t, and ``regime`` is a tuple with one Regime per time.
    """
    if not isinstance(t, float) and np.ndim(t) > 0:  # np.ndim costs ~1 us on a float
        return _equilibrium_on_grid(params, np.asarray(t, dtype=float))
    (xi1_lo, xi1_hi), (xi2_lo, xi2_hi) = admissible_box(params)
    xi1_bar, xi2_bar = unconstrained_fixed_point(params, t)

    # branch of the published three-case split on the unconstrained xi1
    if xi1_bar < xi1_lo:
        branch, xi2_star = 0, _clamp(h2(xi1_lo, params, t), xi2_lo, xi2_hi)
    elif xi1_bar <= xi1_hi:
        branch, xi2_star = 1, _clamp(xi2_bar, xi2_lo, xi2_hi)
    else:
        branch, xi2_star = 2, _clamp(h2(xi1_hi, params, t), xi2_lo, xi2_hi)

    xi1_star = _clamp(h1_inv(xi2_star, params, t), xi1_lo, xi1_hi)
    landed = 1 if xi2_star == xi2_lo else 2 if xi2_star == xi2_hi else 0
    regime = _REGIMES[3 * branch + landed]
    point = PremiumPoint(xi1_star, xi2_star, t)
    return EquilibriumResult(xi1_star, xi2_star, response(point, params), regime,
                             (xi1_bar, xi2_bar), t)


def _equilibrium_on_grid(params: MarketParams, t: np.ndarray) -> EquilibriumResult:
    # constrained_equilibrium elementwise over times t, for every claim law: the
    # scalar path's three-case split and clamps on the reinsurers' array solves.
    # Where the middle branch fires and xi2 is not clamped (xi2* == xi2_bar), the
    # fixed point's pair solves R1's FOC exactly, so xi1* = xi1_bar there and R1's
    # reply runs only at the clamped times.
    if t.ndim != 1:  # the reinsurers' solves check the range
        raise DomainError("equilibrium times must be a scalar or a one-dimensional array")
    (xi1_lo, xi1_hi), (xi2_lo, xi2_hi) = admissible_box(params)
    xi1_bar, xi2_bar = _fixed_point(params, t)

    split = [xi1_bar < xi1_lo, xi1_bar <= xi1_hi]
    branch = np.select(split, [0, 1], 2)
    xi2_star = xi2_bar.copy()
    edge = branch != 1  # R2 replies to the xi1 box edge the branch names
    if edge.any():
        xi2_star[edge] = _r2_reply(np.where(split[0], xi1_lo, xi1_hi)[edge], params, t[edge])
    xi2_star = np.clip(xi2_star, xi2_lo, xi2_hi)
    xi1_star = xi1_bar.copy()
    reply = edge | (xi2_star != xi2_bar)
    if reply.any():
        xi1_star[reply] = _r1_reply(xi2_star[reply], params, t[reply])
    xi1_star = np.clip(xi1_star, xi1_lo, xi1_hi)

    landed = np.select([xi2_star == xi2_lo, xi2_star == xi2_hi], [1, 2], 0)
    regime = tuple(map(_REGIMES.__getitem__, (3 * branch + landed).tolist()))
    resp = layered_response(xi1_star, xi2_star, params.gamma_I * accum_profile(params, "I", t), t)
    return EquilibriumResult(xi1_star, xi2_star, resp, regime, (xi1_bar, xi2_bar), t)
