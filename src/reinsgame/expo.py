"""Closed-form equilibrium machinery for exponential claims.

Reinsurer 1's first-order condition reduces to a quadratic whose positive
root is ``G_fun``; composing with the deductible gives the two reaction
curves ``h1`` (reinsurer 1's, via the inverse of G) and ``h2`` (reinsurer
2's, fully explicit).  The solvers bisect R1's FOC in x = beta*d instead,
where R2's FOC gives xi1 in closed form.  The curves' unique crossing is the
unconstrained premium equilibrium; clamping it to the admissibility box
follows the published three-case construction, with the regime tagged.

Note: contrary to a side remark in the source analysis, h1 is strictly
*increasing* on its domain (it runs from 0 to +inf between the bracket
endpoints), which the property tests assert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, DomainError, RangeError
from .market import (SECTION4, Exponential, MarketParams, PremiumPoint,
                     admissible_box, gamma_accumulations)
from .response import ResponseStrategy, response
from .roots import bisect

_SERIES_CUTOFF = 1e-3
_EXP_OVERFLOW = 709.0  # math.exp overflows just above 709.78
_ENDPOINT_SHRINK = 1e-12


class Regime(str, Enum):
    """Which admissibility-box constraints bind at the clamped equilibrium."""

    INTERIOR = "Interior"
    UPPER_RIGHT = "UpperRight"
    XI2_CAP_ONLY = "Xi2CapOnly"
    XI1_FLOOR_ONLY = "Xi1FloorOnly"
    LOWER_LEFT = "LowerLeft"
    OTHER_BOUNDARY = "OtherBoundary"


@dataclass(frozen=True)
class EquilibriumResult:
    """Clamped premium equilibrium with its regime and unconstrained anchor."""

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

    Equals sum_{n>=1} 2 x^n/(n+2)!; the series form is used below 1e-3 where
    the closed form loses ~10 digits to cancellation.
    """
    if x <= 0:
        raise DomainError("e_fun requires x > 0")
    if x < _SERIES_CUTOFF:
        term, total = x / 3.0, 0.0  # 2*x/3! = x/3
        for n in range(1, 12):
            total += term
            term *= x / (n + 3)
        return total
    return (2.0 / (x * x)) * math.exp(x) - (1.0 + 2.0 / x + 2.0 / (x * x))


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
    """g_fun composed with e_fun; continuously decreasing on (0, inf)."""
    return g_fun(e_fun(x), c_r1)


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
    return (a_i / beta) * (1.0 + c2 - a_i / (a_i + 2.0 * xi1))


def _delta(x: float, c: float) -> float:
    """G(x) - G(inf) without cancellation (0 once e(x) overflows): the positive
    root of D^2 + s D - K, K = 4C(C+1)/(2C+1)^2, s = 2G(inf) + 2C - 1 + e(x)(2C+1)."""
    if x >= _EXP_OVERFLOW:
        return 0.0
    k = 4.0 * c * (c + 1.0) / (2.0 * c + 1.0) ** 2
    s = 4.0 * c / (2.0 * c + 1.0) + 2.0 * c - 1.0 + e_fun(x) * (2.0 * c + 1.0)
    root = math.hypot(s, 2.0 * math.sqrt(k))
    return 2.0 * k / (s + root) if s > 0 else 0.5 * (root - s)


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


def constrained_equilibrium(params: MarketParams, t: float = 0.0) -> EquilibriumResult:
    """Premium equilibrium clamped to the admissibility box.

    Follows the published construction verbatim: xi2* is set by a three-way
    split on where the unconstrained xi1 falls against [theta*beta,
    eta*beta] (clamping to [theta, eta]); reinsurer 1 then best-responds
    once, clamped to its own box.  The regime tag records which clamps bound.
    """
    if params.bound_convention != SECTION4:
        raise ConfigError("the closed-form box construction assumes the "
                          f"'{SECTION4}' admissibility convention")
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

    # regime per the published case analysis: the branch that fired plus
    # where xi2* landed (this reproduces the published regime thresholds;
    # inside the "cap" branch xi1* itself may come off the corner, see notes)
    floor2, cap2 = xi2_star == xi2_lo, xi2_star == xi2_hi
    if branch == "middle" and not (floor2 or cap2):
        regime = Regime.INTERIOR
    elif branch == "cap" and cap2:
        regime = Regime.UPPER_RIGHT
    elif branch == "middle" and cap2:
        regime = Regime.XI2_CAP_ONLY
    elif branch == "floor" and not (floor2 or cap2):
        regime = Regime.XI1_FLOOR_ONLY
    elif branch == "floor" and floor2:
        regime = Regime.LOWER_LEFT
    else:
        regime = Regime.OTHER_BOUNDARY

    point = PremiumPoint(xi1_star, xi2_star, t)
    return EquilibriumResult(xi1_star, xi2_star, response(point, params), regime,
                             (xi1_bar, xi2_bar), t)
