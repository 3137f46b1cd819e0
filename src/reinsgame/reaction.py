"""Reinsurers' first-order conditions and best responses for arbitrary claims.

Both reduced FOCs are free of the claim intensity.  Each solve is one root on
an exact bracket: reinsurer 1's best response on ``h1_domain``; reinsurer 2's
and the fixed point in the deductible d, via the mean excess m(d), raising
IntegrationError where a table law's tail cut leaves m(d) unresolved.  Each is
written once, as an array solve over times by Chandrupatla's method
(``_r1_reply``, ``_r2_reply``, ``_fixed_point``) for every claim law; the scalar
reaction maps are one-element calls of them, and only ``general_equilibrium``
keeps a scalar bisection, faster for one cold point.
For exponential claims they equal the closed forms of :mod:`reinsgame.expo`;
for other laws the fixed point is a candidate, one of several if the
residual in d changes sign more than once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegeneratePremiumError, DomainError, IntegrationError
from .market import (ClaimDistribution, MarketParams, PremiumPoint, TruncatedMoments,
                     accum_profile, admissible_box, gamma_accumulations, layer_moments)
from .response import response
from .roots import bisect, chandrupatla

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


def h1_domain(params: MarketParams, t: float) -> tuple[float, float]:
    """Open xi1 interval (a_R1, a_R1 + a_I/2), a = gamma*A, of R1's reaction curve: its
    exact bracket for every claim law, where its FOC is int_0^d y^2 dF/(2C+1) >= 0 at
    the lower end and -d^2 S(d)/(2C+1) <= 0 at the upper end."""
    a_i, a_r1, _ = gamma_accumulations(params, t)
    return a_r1, a_r1 + 0.5 * a_i


def _gamma_profiles(params: MarketParams, t):
    # (gamma_I*A_I, gamma_R1*A_R1, gamma_R2*A_R2) at a scalar or an array of times
    return tuple(params.gamma(p) * accum_profile(params, p, t) for p in ("I", "R1", "R2"))


def _resolved_moments(d, claims: ClaimDistribution) -> TruncatedMoments:
    """Moments at roots d; IntegrationError at the first with S(d) < 1e6 S(tail_cut)."""
    tm, cut = claims.truncated(d), claims.cut_survival
    ok = (tm.mean_excess > 0.0) & (tm.survival >= _CUT_RESOLUTION * cut)
    if not np.all(ok):
        d_bad, s_bad = (np.ravel(v)[np.argmin(ok)] for v in (d, tm.survival))
        raise IntegrationError(
            f"root d = {d_bad:g} has S(d) = {s_bad:g} below {_CUT_RESOLUTION:g} "
            f"S(tail_cut = {claims.tail_cut():g}) = {cut:g}: m(d) is unresolved")
    return tm


def _deductible_roots(f, k, claims: ClaimDistribution, **kw):
    """Roots of f in d on [0, max(k mean, tail_cut)], elementwise, and their moments."""
    with np.errstate(divide="ignore", invalid="ignore"):  # m(d) = 0 past a table's cut
        d = chandrupatla(f, 0.0 * k, np.maximum(k * claims.mean, claims.tail_cut()), **kw)
    return d, _resolved_moments(d, claims)


def _r1_reply(xi2, params: MarketParams, t):
    """R1's best-response xi1 to xi2 at time(s) t: its FOC's root on ``h1_domain``
    with the known end signs (computed ones can be rounding noise)."""
    a_i, a_r1, _ = _gamma_profiles(params, t)
    retention, c1 = xi2 / a_i, a_r1 / a_i

    def foc(x):  # at the insurer's response to (x, xi2), as in ``response``
        two_x = 2.0 * x
        d = retention + xi2 / two_x
        return _r1_foc(a_i / (two_x + a_i), d, a_r1 / x, c1, params.claims.truncated(d))
    return chandrupatla(foc, a_r1, a_r1 + 0.5 * a_i, f_lo=1.0, f_hi=-1.0)


def _r2_reply(xi1, params: MarketParams, t):
    """R2's best-response xi2 = d/(1/a_I + 1/(2 xi1)) to xi1 at time(s) t: its FOC
    over S(d) is k m(d) - d, k = 1 + C_R2 + a_R2/(2 xi1), which is k mean > 0 at
    d = 0 and <= 0 at max(k mean, tail_cut), where m = 1/beta or 0."""
    a_i, _, a_r2 = _gamma_profiles(params, t)
    k = 1.0 + a_r2 / a_i + a_r2 / (2.0 * xi1)
    d, _ = _deductible_roots(lambda d: k * params.claims.truncated(d).mean_excess - d,
                             k, params.claims)
    return d / (1.0 / a_i + 0.5 / xi1)


def _fixed_point(params: MarketParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained (xi1, xi2) at each time of an array: ``general_equilibrium``'s
    residual solved in d, without its closing check."""
    a_i, a_r1, a_r2 = _gamma_profiles(params, t)
    c1, c2 = a_r1 / a_i, a_r2 / a_i
    k_hi = 1.0 + c2 + a_r2 / (2.0 * a_r1)

    def residual(d):
        tm = params.claims.truncated(d)
        v = (d / tm.mean_excess - 1.0 - c2) / a_r2  # 1/(2 xi1)
        a_i_v = a_i * v
        r1 = _r1_foc(a_i_v / (1.0 + a_i_v), d, 2.0 * a_r1 * v, c1, tm)
        return np.where(d >= k_hi * tm.mean_excess, 1.0, np.where(v <= 0.0, -1.0, r1))

    d, tm = _deductible_roots(residual, k_hi, params.claims, f_lo=-1.0, f_hi=1.0)
    v = (d / tm.mean_excess - 1.0 - c2) / a_r2
    return 0.5 / v, d / (1.0 / a_i + v)


def _clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(x, hi))


def reaction_xi1(xi2: float, params: MarketParams, t: float = 0.0,
                 clamp: bool = False) -> float:
    """Reinsurer 1's best-response loading (``_r1_reply``)."""
    if not xi2 > 0:
        raise DomainError("reaction_xi1 requires xi2 > 0")
    root = float(_r1_reply(xi2, params, t))
    return _clamp(root, *admissible_box(params)[0]) if clamp else root


def reaction_xi2(xi1: float, params: MarketParams, t: float = 0.0,
                 clamp: bool = False) -> float:
    """Reinsurer 2's best-response loading (``_r2_reply``)."""
    if not xi1 > 0:
        raise DegeneratePremiumError("reaction_xi2 requires xi1 > 0")
    root = float(_r2_reply(xi1, params, t))
    return _clamp(root, *admissible_box(params)[1]) if clamp else root


def general_equilibrium(params: MarketParams, t: float = 0.0) -> PremiumPoint:
    """Candidate premium equilibrium: one bisection in the deductible d.

    R2's FOC gives 1/(2 xi1) = (d/m(d) - 1 - C_R2)/a_R2, xi2 = d/(1/a_I + 1/(2 xi1)),
    and R1's FOC there is the residual: < 0 at d = 0 and > 0 where d >= k_hi m(d),
    k_hi = 1 + C_R2 + C_R2/(2 C_R1), as xi1 <= a_R1 there (h1_domain's lower end).
    The bracket is [0, max(k_hi mean, tail_cut)], as in ``_deductible_roots``.
    Raises ConvergenceError unless both FOCs hold at the result (``_check_fixed_point``).
    """
    claims = params.claims
    a_i, a_r1, a_r2 = gamma_accumulations(params, t)
    c2 = a_r2 / a_i
    k_hi = 1.0 + c2 + a_r2 / (2.0 * a_r1)

    def residual(d: float) -> float:
        tm = claims.truncated(d)
        if d >= k_hi * tm.mean_excess:  # xi1 <= a_R1, m = 0 included
            return 1.0
        v = (d / tm.mean_excess - 1.0 - c2) / a_r2  # 1/(2 xi1)
        if v <= 0.0:  # no positive xi1 solves R2's FOC
            return -1.0
        return _r1_foc(a_i * v / (1.0 + a_i * v), d, 2.0 * a_r1 * v, a_r1 / a_i, tm)

    d = bisect(residual, 0.0, max(k_hi * claims.mean, claims.tail_cut()), xtol=_XTOL,
               f_lo=-1.0, f_hi=1.0)
    v = (d / _resolved_moments(d, claims).mean_excess - 1.0 - c2) / a_r2
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
