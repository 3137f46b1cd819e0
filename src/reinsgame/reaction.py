"""Reinsurers' first-order conditions and best responses for arbitrary claims.

Both reduced FOCs are free of the claim intensity and close in the insurer's
deductible d: at a fixed d, R1's FOC has one root r(d) = a_R1/xi1
(``_r1_ratio``) and R2's reads k m(d) = d, m the mean excess.  So every solve
is one root of d = f(d) on [f_lo, f_hi], f's bounds, with end signs known for
every claim law (``_deductible_root``): R1's reply, f = ret + c r(d); R2's,
f = k m(d); the fixed point, f = k(d) m(d) with k(d) read from r(d).  The two
that read m(d) raise IntegrationError where a table law's tail cut leaves it
unresolved at the root.  Each is one array solve over times (``_r1_reply``,
``_r2_reply``, ``_fixed_point``) for every claim law; the reaction maps and
``general_equilibrium`` are one-element calls.  Times outside [0, T] raise
DomainError.  For exponential claims they equal the closed forms of
:mod:`reinsgame.expo`; for other laws the fixed point is a candidate, one of
several if the residual in d changes sign more than once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegeneratePremiumError, DomainError, IntegrationError
from .market import (_CUT_RESOLUTION, PARTIES, ClaimDistribution, MarketParams, PremiumPoint,
                     TruncatedMoments, accum_profile, coefficients, gamma_accumulations, ledger,
                     running_reward)
from .response import layered_response, response
from .roots import chandrupatla

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
    s = tm.survival
    d = d if s > 0.0 else 0.0  # the second term is 0 where S(d) = 0, and d^2 may overflow there
    return (2.0 * q * (c_r1 + 1.0) - 1.0) * tm.m2_below + d ** 2 * (ratio - 1.0) * s


def _at_response(point: PremiumPoint, params: MarketParams):
    """(a_I, a_R1, a_R2), a = gamma*A at ``point.t``, the insurer's response to ``point``
    and the claim law's layer moments at its deductible: the inputs of both FOCs."""
    a = gamma_accumulations(params, point.t)
    resp = layered_response(point.xi1, point.xi2, a[0], point.t)
    return a, resp, params.claims.truncated(resp.d)


def foc_residual_r1(point: PremiumPoint, params: MarketParams) -> float:
    """Reinsurer 1's FOC residual at the insurer's response to ``point``.

    [2q(C_R1+1) - 1] * int_0^d y^2 dF + d^2 [gamma_R1 A_R1/xi1 - 1] S(d).
    """
    (a_i, a_r1, _), resp, tm = _at_response(point, params)
    return _r1_foc(resp.q, resp.d, a_r1 / point.xi1, a_r1 / a_i, tm)


def foc_residual_r2(point: PremiumPoint, params: MarketParams) -> float:
    """Reinsurer 2's FOC residual at the insurer's response to ``point``.

    [1 + C_R2 + gamma_R2 A_R2/(2 xi1)] * int_d^inf (y-d) dF - d S(d).
    """
    (a_i, _, a_r2), resp, tm = _at_response(point, params)
    return (1.0 + a_r2 / a_i + a_r2 / (2.0 * point.xi1)) * tm.excess_mean - resp.d * tm.survival


def instantaneous_reward(point: PremiumPoint, params: MarketParams, which: str) -> float:
    """Integrand of the reinsurer's HJB supremum at the insurer's response, ``running_reward``:

    R1: lam * (xi1 - gamma_R1 A_R1 / 2) * E[l1^2];
    R2: lam * (xi2 * E[l2] - (gamma_R2/2) A_R2 * E[l2^2]).
    Used as a grid-search oracle confirming FOC roots as maximizers.
    """
    if which not in PARTIES[1:]:
        raise DomainError(f"which must be 'R1' or 'R2', got {which!r}")
    return running_reward(ledger(response(point, params), point.xi1, point.xi2, params),
                          params, which, params.accum(which, point.t))


def h1_domain(params: MarketParams, t: float) -> tuple[float, float]:
    """Open xi1 interval (a_R1, a_R1 + a_I/2), a = gamma*A, of R1's reaction curve for
    every claim law, where its FOC is int_0^d y^2 dF/(2C+1) >= 0 at the lower end and
    -d^2 S(d)/(2C+1) <= 0 at the upper end.  In r = a_R1/xi1 it is (2C/(2C+1), 1), whose
    closure is the range of R1's reply to a deductible (``_r1_ratio``)."""
    a_i, a_r1, _ = gamma_accumulations(params, t)
    return a_r1, a_r1 + 0.5 * a_i


def _gamma_profiles(params: MarketParams, t):
    # (a_I, a_R1, a_R2, C_R1, C_R2), a_k = gamma_k*A_k, at a scalar or an array of
    # times in [0, T], the checks every solve passes through (np.interp clamps a time)
    inside = (t >= 0.0) & (t <= params.T)  # False for NaN
    if not np.all(inside):
        bad = np.ravel(t)[np.argmin(np.ravel(inside))]
        raise DomainError(f"t = {bad:g} outside [0, T = {params.T:g}]")
    with np.errstate(over="ignore"):  # coefficients names an overflowed ratio
        return coefficients(*(params.gamma(p) * accum_profile(params, p, t) for p in PARTIES), t)


def _check_resolved(d, tm: TruncatedMoments, claims: ClaimDistribution) -> None:
    """IntegrationError at the first root d with S(d) < 1e6 S(tail_cut): m(d) unresolved."""
    ok = (tm.mean_excess > 0.0) & (tm.survival >= _CUT_RESOLUTION * claims.cut_survival)
    if not np.all(ok):
        d_bad, s_bad = (np.ravel(v)[np.argmin(ok)] for v in (d, tm.survival))
        raise IntegrationError(
            f"root d = {d_bad:g} has S(d) = {s_bad:g} below {_CUT_RESOLUTION:g} "
            f"S(tail_cut = {claims.tail_cut():g}) = {claims.cut_survival:g}: m(d) is unresolved")


def _r1_ratio(d, tm: TruncatedMoments, c_r1):
    """R1's reply r = a_R1/xi1 to deductible d: the positive root of its FOC over
    d^2 S + M2, w r^2 + (2C_R1 + 1 - 2w) r - 2C_R1, w = d^2 S/(d^2 S + M2) (``expo.g_fun``
    at e = (1 - w)/w); from 1 at w = 1 to 2C_R1/(2C_R1+1) at w = 0, where S(d) = 0."""
    d2s = d * (d * tm.survival)  # 0 where S(d) = 0, where d^2 may overflow
    # a table law's M2 can round below 0 at small d, where it cancels; 0/0 where
    # d^2 S and M2 both underflow, as d -> 0, is NaN, and fmin takes its limit w = 1
    with np.errstate(divide="ignore", invalid="ignore"):  # np.where computes both forms
        w = np.fmin(d2s / (d2s + np.maximum(tm.m2_below, 0.0)), 1.0)
        b = 2.0 * c_r1 + 1.0 - 2.0 * w
        root = np.sqrt(b * b + 8.0 * c_r1 * w)
        return np.where(b > 0.0, 4.0 * c_r1 / (b + root), (root - b) / (2.0 * w))


def _deductible_root(f, f_lo, f_hi, claims: ClaimDistribution):
    """Roots of f(d, moments) - d, elementwise, where f lies in [f_lo, f_hi] (the
    bracket), the moments there, and where |f'| > 1, read from the final bracket:
    there the caller reads r from d = f(d), not r(d), as ``expo._g_at_x_root`` does."""
    d, f_d, e, f_e = chandrupatla(lambda d: f(d, claims.truncated(d)) - d, f_lo, f_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        steep = np.isfinite(f_e) & (d != e) & ((f_d - f_e) / (d - e) < -2.0)
    return d, claims.truncated(d), steep


def _r1_reply(xi2, params: MarketParams, t):
    """R1's best-response xi1 = a_R1/r(d) to xi2 at time(s) t, where the insurer's
    deductible d = ret + c r, ret = xi2/a_I and c = xi2/(2 a_R1), meets r = r(d)."""
    a_i, a_r1, _, c1, _ = _gamma_profiles(params, t)
    ret, c = xi2 / a_i, xi2 / (2.0 * a_r1)
    d, tm, steep = _deductible_root(lambda d, tm: ret + c * _r1_ratio(d, tm, c1),
                                    ret + c * (2.0 * c1 / (2.0 * c1 + 1.0)), ret + c,
                                    params.claims)
    return a_r1 / np.where(steep, (d - ret) / c, _r1_ratio(d, tm, c1))


def _r2_reply(xi1, params: MarketParams, t):
    """R2's best-response xi2 = d/(1/a_I + 1/(2 xi1)) to xi1 at time(s) t: its FOC
    over S(d) is k m(d) - d with the constant k = 1 + C_R2 + a_R2/(2 xi1)."""
    a_i, _, a_r2, _, c2 = _gamma_profiles(params, t)
    k = 1.0 + c2 + a_r2 / (2.0 * xi1)
    m_lo, m_hi = params.claims.mean_excess_bounds
    d, tm, _ = _deductible_root(lambda d, tm: k * tm.mean_excess, k * m_lo, k * m_hi,
                                params.claims)
    _check_resolved(d, tm, params.claims)
    return d / (1.0 / a_i + 0.5 / xi1)


def _fixed_point(params: MarketParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained (xi1, xi2) at each time of an array: the root in d that
    ``general_equilibrium`` describes, solved elementwise, without its closing check."""
    a_i, a_r1, a_r2, c1, c2 = _gamma_profiles(params, t)
    with np.errstate(over="ignore"):  # overflows where C_R2/C_R1 exceeds the largest float
        u_hi = a_r2 / (2.0 * a_r1)  # C_R2/(2C_R1)
    k0, (m_lo, m_hi) = 1.0 + c2, params.claims.mean_excess_bounds  # k(d) = k0 + u_hi r(d)
    hi = (k0 + u_hi) * m_hi
    if not np.all(np.isfinite(hi)):
        c1, c2, t = (np.broadcast_to(v, hi.shape)[~np.isfinite(hi)][0] for v in (c1, c2, t))
        raise DomainError(f"fixed point bracket not finite: C_R2/(2 C_R1) overflows at "
                          f"C_R1 = {c1:g}, C_R2 = {c2:g}, t = {t:g}")
    d, tm, steep = _deductible_root(
        lambda d, tm: (k0 + u_hi * _r1_ratio(d, tm, c1)) * tm.mean_excess,
        (k0 + a_r2 / (2.0 * a_r1 + a_i)) * m_lo, hi, params.claims)
    _check_resolved(d, tm, params.claims)
    with np.errstate(divide="ignore", invalid="ignore"):  # np.where computes both forms
        r = np.where(steep, (d / tm.mean_excess - k0) / u_hi, _r1_ratio(d, tm, c1))
    return a_r1 / r, d / (1.0 / a_i + r / (2.0 * a_r1))


def reaction_xi1(xi2: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 1's best-response loading (``_r1_reply``)."""
    if not xi2 > 0:
        raise DomainError("reaction_xi1 requires xi2 > 0")
    return float(_r1_reply(xi2, params, t))


def reaction_xi2(xi1: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 2's best-response loading (``_r2_reply``)."""
    if not xi1 > 0:
        raise DegeneratePremiumError("reaction_xi2 requires xi1 > 0")
    return float(_r2_reply(xi1, params, t))


def general_equilibrium(params: MarketParams, t: float = 0.0) -> PremiumPoint:
    """Candidate premium equilibrium: one root in the deductible d (``_fixed_point``).

    At a fixed d, R1's FOC is a quadratic in r = a_R1/xi1 with one root r(d) in
    [2C_R1/(2C_R1+1), 1] (``_r1_ratio``), and R2's is k(d) m(d) = d with k(d) = 1 + C_R2 +
    (C_R2/(2C_R1)) r(d), between k_lo = 1 + C_R2 + C_R2/(2C_R1+1) and k_hi = 1 + C_R2 +
    C_R2/(2C_R1): the bracket is [k_lo m_lo, k_hi m_hi] (``_deductible_root``), of zero
    width for exponential claims where C_R2 is below rounding.  Then xi1 = a_R1/r and
    xi2 = d/(1/a_I + r/(2 a_R1)), neither divided by a_R2.
    Raises ConvergenceError unless both FOCs hold at the result (``_check_fixed_point``).
    """
    xi1, xi2 = _fixed_point(params, np.array([t], dtype=float))
    point = PremiumPoint(float(xi1[0]), float(xi2[0]), t)
    _check_fixed_point(point, params)
    return point


def _check_fixed_point(point: PremiumPoint, params: MarketParams) -> None:
    """Raise ConvergenceError naming each FOC that fails at ``point`` beyond 1e-8:
    R1's residual, and R2's in deductible space, (k m(d) - d)/max(d, mean) at the
    response's d, which does not read 0 where S(d) underflows as k EM - d S does."""
    (a_i, a_r1, a_r2), resp, tm = _at_response(point, params)
    r1 = _r1_foc(resp.q, resp.d, a_r1 / point.xi1, a_r1 / a_i, tm)
    k = 1.0 + a_r2 / a_i + a_r2 / (2.0 * point.xi1)
    r2 = (k * tm.mean_excess - resp.d) / max(resp.d, params.claims.mean)
    failed = [f"{name} {r:g}" for name, r in (("R1", r1), ("R2 in d", r2))
              if not abs(r) <= _FOC_TOL]
    if failed:
        raise ConvergenceError(f"fixed point FOC residuals too large: {', '.join(failed)}")
