"""Reinsurers' first-order conditions and best responses for arbitrary claims.

Both reduced FOCs are free of the claim intensity.  Each solve is one
bisection on an exact bracket: reinsurer 1's best response on
``expo.h1_domain``; reinsurer 2's and the fixed point in the deductible d,
via the mean excess m(d), raising IntegrationError where a table law's tail
cut leaves m(d) unresolved.  For exponential claims they equal the closed
forms of :mod:`reinsgame.expo`; for other laws the fixed point is a
candidate, one of several if the residual in d changes sign more than once.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError, DegeneratePremiumError, DomainError, IntegrationError
from .expo import h1_domain
from .market import (MarketParams, PremiumPoint, TruncatedMoments, admissible_box,
                     gamma_accumulations, layer_moments)
from .response import response
from .roots import bisect

_XTOL = 1e-12
_FOC_TOL = 1e-8
# A table law's m(d) misses the excess beyond its tail cut, a relative error
# of about S(tail_cut)/S(d) where m varies slowly: roots in d must keep it
# below 1e-6.
_CUT_RESOLUTION = 1e6


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


def _deductible_root(f, k, params: MarketParams, **kw) -> tuple[float, TruncatedMoments]:
    """Root of f in d on [0, max(k mean, tail_cut)], with a resolved m(d), and its moments."""
    claims = params.claims
    d = bisect(f, 0.0, max(k * claims.mean, claims.tail_cut()), **kw)
    tm, cut = claims.truncated(d), claims.cut_survival
    if not (tm.mean_excess > 0.0 and tm.survival >= _CUT_RESOLUTION * cut):
        raise IntegrationError(
            f"root d = {d:g} has S(d) = {tm.survival:g} below {_CUT_RESOLUTION:g} "
            f"S(tail_cut = {claims.tail_cut():g}) = {cut:g}: m(d) is unresolved")
    return d, tm


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
    """Reinsurer 2's best-response loading xi2 = d/(1/a_I + 1/(2 xi1)): its FOC
    k EM(d) - d S(d), k = 1 + C_R2 + a_R2/(2 xi1), over S(d) is k m(d) - d, which is
    k mean > 0 at d = 0 and <= 0 at max(k mean, tail_cut), where m = 1/beta or 0."""
    if not xi1 > 0:
        raise DegeneratePremiumError("reaction_xi2 requires xi1 > 0")
    a_i, _, a_r2 = gamma_accumulations(params, t)
    k = 1.0 + a_r2 / a_i + a_r2 / (2.0 * xi1)
    d, _ = _deductible_root(lambda d: k * params.claims.truncated(d).mean_excess - d,
                            k, params, xtol=0.0)
    root = d / (1.0 / a_i + 0.5 / xi1)
    return _clip_to_box(root, admissible_box(params)[1]) if clamp else root


def general_equilibrium(params: MarketParams, t: float = 0.0) -> PremiumPoint:
    """Candidate premium equilibrium: one bisection in the deductible d.

    R2's FOC gives 1/(2 xi1) = (d/m(d) - 1 - C_R2)/a_R2, xi2 = d/(1/a_I + 1/(2 xi1)),
    and R1's FOC there is the residual: < 0 at d = 0 and > 0 where d >= k_hi m(d),
    k_hi = 1 + C_R2 + C_R2/(2 C_R1), as xi1 <= a_R1 there (h1_domain's lower end).
    Raises ConvergenceError unless both FOCs hold at the result (``_check_fixed_point``).
    """
    a_i, a_r1, a_r2 = gamma_accumulations(params, t)
    c2 = a_r2 / a_i
    k_hi = 1.0 + c2 + a_r2 / (2.0 * a_r1)

    def residual(d: float) -> float:
        tm = params.claims.truncated(d)
        if d >= k_hi * tm.mean_excess:  # xi1 <= a_R1, m = 0 included
            return 1.0
        v = (d / tm.mean_excess - 1.0 - c2) / a_r2  # 1/(2 xi1)
        if v <= 0.0:  # no positive xi1 solves R2's FOC
            return -1.0
        return _r1_foc(a_i * v / (1.0 + a_i * v), d, 2.0 * a_r1 * v, a_r1 / a_i, tm)

    d, tm = _deductible_root(residual, k_hi, params, xtol=_XTOL, f_lo=-1.0, f_hi=1.0)
    v = (d / tm.mean_excess - 1.0 - c2) / a_r2
    point = PremiumPoint(0.5 / v, d / (1.0 / a_i + v), t)
    _check_fixed_point(point, params)
    return point


def _check_fixed_point(point: PremiumPoint, params: MarketParams) -> None:
    """Raise ConvergenceError naming each FOC that fails at ``point`` beyond 1e-8:
    R1's residual, and R2's in deductible space, (k m(d) - d)/max(d, mean) at the
    response's d, which does not read 0 where S(d) underflows as k EM - d S does."""
    _, _, a_r2 = gamma_accumulations(params, point.t)
    d = response(point, params).d
    k = 1.0 + foc_ratios(point, params).c_r2 + a_r2 / (2.0 * point.xi1)
    r2 = (k * params.claims.truncated(d).mean_excess - d) / max(d, params.claims.mean)
    failed = [f"{name} {r:g}" for name, r in (("R1", foc_residual_r1(point, params)),
                                               ("R2 in d", r2)) if not abs(r) <= _FOC_TOL]
    if failed:
        raise ConvergenceError(f"fixed point FOC residuals too large: {', '.join(failed)}")
