"""Reinsurers' first-order conditions and best responses for arbitrary claims.

Both reduced FOCs are one-dimensional in the probed loading once the
insurer's response is substituted, and both are free of the claim intensity
(lambda cancels).  Reinsurer 1's best response bisects on the exact bracket
``expo.h1_domain``; only R2's and the fixed point, a root in the deductible,
scan for a sign change first.  For exponential claims the results must (and
do, see tests) coincide with the closed forms in :mod:`reinsgame.expo`; for
other laws the fixed point is a candidate equilibrium only, since no
uniqueness theory is available.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DegeneratePremiumError, DomainError
from .expo import h1_domain
from .market import (MarketParams, PremiumPoint, TruncatedMoments, admissible_box,
                     gamma_accumulations, layer_moments)
from .response import response
from .roots import bisect, scan_bisect

_XTOL = 1e-12
_FOC_TOL = 1e-8


@dataclass(frozen=True)
class FocRatios:
    """Dimensionless coefficient ratios entering the first-order conditions."""

    c_r1: float
    c_r2: float
    b_r1_ratio: float  # gamma_R1*A_R1 / xi1; distinct from the value intercept B_R1(t)


def foc_ratios(point: PremiumPoint, params: MarketParams) -> FocRatios:
    a_i, a_r1, a_r2 = gamma_accumulations(params, point.t)
    if point.xi1 == 0.0:
        raise DegeneratePremiumError("xi1 = 0 in FOC ratios")
    return FocRatios(a_r1 / a_i, a_r2 / a_i, a_r1 / point.xi1)


def _r1_foc(q: float, d: float, ratio: float, c_r1: float, tm: TruncatedMoments) -> float:
    return ((2.0 * q * (c_r1 + 1.0) - 1.0) * tm.m2_below
            + d ** 2 * (ratio - 1.0) * tm.survival)


def foc_residual_r1(point: PremiumPoint, params: MarketParams) -> float:
    """Reinsurer 1's FOC residual at the insurer's response to ``point``.

    [2q(C_R1+1) - 1] * int_0^d y^2 dF + d^2 [gamma_R1 A_R1/xi1 - 1] S(d).
    """
    ratios = foc_ratios(point, params)
    resp = response(point, params)
    return _r1_foc(resp.q, resp.d, ratios.b_r1_ratio, ratios.c_r1,
                   params.claims.truncated(resp.d))


def foc_residual_r2(point: PremiumPoint, params: MarketParams) -> float:
    """Reinsurer 2's FOC residual at the insurer's response to ``point``.

    [1 + C_R2 + gamma_R2 A_R2/(2 xi1)] * int_d^inf (y-d) dF - d S(d).
    """
    _, _, a_r2 = gamma_accumulations(params, point.t)
    ratios = foc_ratios(point, params)
    resp = response(point, params)
    tm = params.claims.truncated(resp.d)
    return ((1.0 + ratios.c_r2 + a_r2 / (2.0 * point.xi1)) * tm.excess_mean
            - resp.d * tm.survival)


def instantaneous_reward(point: PremiumPoint, params: MarketParams, which: str) -> float:
    """Integrand of the reinsurer's HJB supremum at the insurer's response.

    R1: lam * (xi1 - gamma_R1 A_R1 / 2) * E[l1^2];
    R2: lam * (xi2 * E[l2] - (gamma_R2/2) A_R2 * E[l2^2]).
    Used as a grid-search oracle confirming FOC roots as maximizers.
    """
    _, a_r1, a_r2 = gamma_accumulations(params, point.t)
    lm = layer_moments(response(point, params), params.claims)
    if which == "R1":
        return params.lam * (point.xi1 - 0.5 * a_r1) * lm.l1_sq
    if which == "R2":
        return params.lam * (point.xi2 * lm.l2 - 0.5 * a_r2 * lm.l2_sq)
    raise DomainError(f"which must be 'R1' or 'R2', got {which!r}")


def xi2_search_bracket(params: MarketParams, t: float) -> tuple[float, float]:
    """Default xi2 bracket [1e-8, 10 * gamma_I A_I (1 + C_R2) / beta_eff].

    beta_eff = 2 a_Y / sigma_Y^2, which is beta for exponential claims, where
    h2's horizontal asymptote gamma_I A_I (1 + C_R2) / beta bounds the root.
    """
    a_i, _, a_r2 = gamma_accumulations(params, t)
    beta_eff = 2.0 * params.claims.mean / params.claims.second_moment
    return 1e-8, 10.0 * a_i * (1.0 + a_r2 / a_i) / beta_eff


def _clip_to_box(x: float, box: tuple[float, float]) -> float:
    return max(box[0], min(x, box[1]))


def reaction_xi1(xi2: float, params: MarketParams, t: float = 0.0,
                 clamp: bool = False) -> float:
    """Reinsurer 1's best-response loading: the root of its FOC in xi1, bisected on
    ``h1_domain`` with its known end signs (computed ones can be rounding noise)."""
    if not xi2 > 0:
        raise DomainError("reaction_xi1 requires xi2 > 0")
    lo, hi = h1_domain(params, t)
    root = bisect(lambda x: foc_residual_r1(PremiumPoint(x, xi2, t), params),
                  lo, hi, xtol=_XTOL, f_lo=1.0, f_hi=-1.0)
    return _clip_to_box(root, admissible_box(params)[0]) if clamp else root


def reaction_xi2(xi1: float, params: MarketParams, t: float = 0.0,
                 clamp: bool = False) -> float:
    """Reinsurer 2's best-response loading: the root of its FOC in xi2."""
    if not xi1 > 0:
        raise DegeneratePremiumError("reaction_xi2 requires xi1 > 0")
    lo, hi = xi2_search_bracket(params, t)
    root = scan_bisect(lambda x: foc_residual_r2(PremiumPoint(xi1, x, t), params),
                       lo, hi, xtol=_XTOL)
    return _clip_to_box(root, admissible_box(params)[1]) if clamp else root


def general_equilibrium(params: MarketParams, t: float = 0.0) -> PremiumPoint:
    """Candidate premium equilibrium: one scan-and-bisect root in the deductible d.

    R2's FOC is linear in 1/xi1: 1/(2 xi1) = (d S(d)/EM(d) - 1)/a_R2 - 1/a_I,
    and xi2 = d/(1/a_I + 1/(2 xi1)); R1's FOC at that point is the residual in d.
    Raises ConvergenceError if either FOC residual at the result exceeds 1e-8.
    """
    a_i, a_r1, a_r2 = gamma_accumulations(params, t)

    def half_inv_xi1(d: float) -> tuple[float, TruncatedMoments]:
        # 1/(2 xi1) solving R2's FOC at d: <= 0 where no positive xi1 does,
        # +inf beyond the support
        tm = params.claims.truncated(d)
        if tm.excess_mean == 0.0:
            return math.inf, tm
        return (d * tm.survival / tm.excess_mean - 1.0 - a_r2 / a_i) / a_r2, tm

    def residual(d: float) -> float:
        v, tm = half_inv_xi1(d)
        if v == math.inf:
            return 1.0
        if v <= 0.0:
            return -1.0
        return _r1_foc(a_i * v / (1.0 + a_i * v), d, 2.0 * a_r1 * v, a_r1 / a_i, tm)

    d = scan_bisect(residual, 0.0, params.claims.tail_cut(), xtol=_XTOL)
    v = float(half_inv_xi1(d)[0])
    point = PremiumPoint(0.5 / v, d / (1.0 / a_i + v), t)
    r1, r2 = foc_residual_r1(point, params), foc_residual_r2(point, params)
    if abs(r1) > _FOC_TOL or abs(r2) > _FOC_TOL:
        raise ConvergenceError(f"fixed point residuals too large: ({r1:g}, {r2:g})")
    return point
