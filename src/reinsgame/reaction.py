"""Reinsurers' first-order conditions and best responses for arbitrary claims.

Both reduced FOCs are free of the claim intensity and close in the insurer's
deductible d, through the law's ``foc_terms``: at a fixed d, R1's FOC has one
root r(d) = a_R1/xi1 (``_r1_ratio``) and R2's reads k m(d) = d, m the mean
excess.  So every solve is one root of d = f(d) on [f_lo, f_hi], f's bounds,
with end signs known for every claim law (``_deductible_root``): R1's reply,
f = ret + c r(d); R2's, f = k m(d); the fixed point, f = k(d) m(d) with k(d)
read from r(d).  Each is written once, for a float time (``chandrupatla_scalar``,
with no numpy call per evaluation) or an array of times (``chandrupatla``).  The two that read m(d) raise
IntegrationError where a table law's tail cut leaves it unresolved at the
root.  Times outside [0, T] raise DomainError.  For exponential claims they
equal the closed forms of :mod:`reinsgame.expo`; for other laws the fixed
point is a candidate, one of several if the residual in d changes sign more
than once.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConvergenceError, DegeneratePremiumError, DomainError, IntegrationError
from .market import (_CUT_RESOLUTION, PARTIES, MarketParams, PremiumPoint, TruncatedMoments,
                     coefficients, gamma_accumulations, ledger, running_reward)
from .response import layered_response, response
from .roots import chandrupatla, chandrupatla_scalar

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


# numpy's sqrt, isfinite, where, clip and errstate for the Python floats of a scalar
# solve, which make no numpy call: float arithmetic gives inf on overflow and raises
# only on a division by zero, and this where evaluates both its branches, as numpy's does
_FLOATS = SimpleNamespace(sqrt=math.sqrt, isfinite=math.isfinite,
                          where=lambda cond, a, b: a if cond else b,
                          clip=lambda x, lo, hi: max(lo, min(x, hi)),
                          errstate=lambda _none=contextlib.nullcontext(), **_: _none)


def _kind(t):  # the arithmetic of a solve at time(s) t
    return np if isinstance(t, np.ndarray) else _FLOATS


def _gamma_profiles(params: MarketParams, t):
    # (a_I, a_R1, a_R2, C_R1, C_R2), a_k = gamma_k*A_k, at a float time or an array of
    # times in [0, T], the checks every solve passes through
    inside = (t >= 0.0) & (t <= params.T)  # False for NaN
    if inside is not True and not np.all(inside):
        bad = np.ravel(t)[np.argmin(np.ravel(inside))]
        raise DomainError(f"t = {bad:g} outside [0, T = {params.T:g}]")
    with _kind(t).errstate(over="ignore"):  # coefficients names an overflowed ratio
        return coefficients(*gamma_accumulations(params, t), t)


def _check_resolved(d, m, s, claims) -> None:
    """IntegrationError at the first root d with S(d) < 1e6 S(tail_cut): m(d) unresolved."""
    ok = (m > 0.0) & (s >= _CUT_RESOLUTION * claims.cut_survival)
    if ok is not True and not np.all(ok):  # a Python bool skips np.all
        d_bad, s_bad = (np.ravel(v)[np.argmin(np.ravel(ok))] for v in (d, s))
        raise IntegrationError(
            f"root d = {d_bad:g} has S(d) = {s_bad:g} below {_CUT_RESOLUTION:g} "
            f"S(tail_cut = {claims.tail_cut():g}) = {claims.cut_survival:g}: m(d) is unresolved")


def _r1_ratio(c_r1, xp=_FLOATS):
    """(G(inf), delta): R1's reply r = a_R1/xi1 to d is ``expo.g_fun`` at e(d), G(inf) + delta(e),
    from 1 at e = 0 to G(inf) = 2C/(2C+1) at e = inf; delta, the positive root of D^2 + s D - K,
    s = 2G(inf) + 2C - 1 + e(2C+1), K = 4C(C+1)/(2C+1)^2, does not cancel near G(inf)."""
    g_inf = 2.0 * c_r1 / (2.0 * c_r1 + 1.0)
    k4 = 16.0 * c_r1 * (c_r1 + 1.0) / (2.0 * c_r1 + 1.0) ** 2  # 4K
    s0, slope, sqrt, where = 2.0 * g_inf + 2.0 * c_r1 - 1.0, 2.0 * c_r1 + 1.0, xp.sqrt, xp.where

    def delta(e):
        s = s0 + e * slope
        q = abs(s) + sqrt(s * s + k4)  # the larger of |s| +- sqrt(s^2 + 4K), > 0
        return where(s > 0.0, 0.5 * k4 / q, 0.5 * q)
    return g_inf, delta


def _deductible_root(residual, lo, hi, claims, ratio=None, identity=None, reads_m=True):
    """m(d) at the root d of residual(d) = f(d) - d on [lo, hi], f's bounds (``_check_resolved``
    where f ``reads_m``), and given R1's ``ratio`` r(e), r: ratio(e(d)), or identity(d, m(d))
    where the residual falls by over 2 per unit of d across the final bracket, where r(d) is
    steep; where hi overflows, the root sits where S(d) = 0: d = inf, r = G(inf)."""
    xp = _kind(hi)
    over = hi == math.inf
    with xp.errstate(all="ignore"):  # np.where computes both forms
        # an overflowed bracket is solved on [0, 0], in one evaluation, and read at inf
        lo, hi = xp.where(over, 0.0, lo), xp.where(over, 0.0, hi)
        d, f_d, y, f_y = (chandrupatla(residual, lo, hi) if xp is np
                          else chandrupatla_scalar(residual, lo, hi))
        # the secant (f_d - f_y)/(d - y) below -2, with no division by d - y = 0
        steep = xp.isfinite(f_y) & ((f_d - f_y + 2.0 * (d - y)) * (d - y) < 0.0)
        d = xp.where(over, math.inf, d)
        e, m, s = claims.foc_terms(d)
        if reads_m:
            _check_resolved(d, m, s, claims)
        if ratio is None or xp is not np:  # a float's identity may divide by 0 unless steep
            return m, ratio and (identity(d, m) if steep else ratio(e))
        return m, np.where(steep, identity(d, m), ratio(e))


def _r1_reply(xi2, params: MarketParams, t, coefs=None):
    """R1's best-response xi1 = a_R1/r to xi2 at time(s) t (``coefs``: their ``_gamma_profiles``,
    if read): the root of d = ret + c r(d) = lo + c delta(e(d)) on [lo, ret + c], ret = xi2/a_I,
    c = xi2/(2 a_R1), lo = ret + c G(inf), where the insurer's d = ret + c r meets r = r(d)."""
    xp, read = _kind(t), params.claims.foc_terms
    a_i, a_r1, _, c1, _ = coefs or _gamma_profiles(params, t)
    g_inf, delta = _r1_ratio(c1, xp)
    with xp.errstate(over="ignore"):  # c overflows where a_R1 is subnormal
        ret, c = xi2 / a_i, xi2 / (2.0 * a_r1)
        lo = ret + c * g_inf
        _, r = _deductible_root(lambda d: lo + c * delta(read(d)[0]) - d, lo, ret + c,
                                params.claims, lambda e: g_inf + delta(e),
                                lambda d, m: (d - ret) / c, reads_m=False)
    return a_r1 / r


def _r2_reply(xi1, params: MarketParams, t, coefs=None):
    """R2's best-response xi2 = d/(1/a_I + 1/(2 xi1)) to xi1 at time(s) t (``coefs`` as for
    ``_r1_reply``), at the root d on [k m_lo, k m_hi], of zero width for exponential claims,
    of its FOC over S(d), k m(d) - d, k = 1 + C_R2 + a_R2/(2 xi1); d is read as k m(d)."""
    a_i, _, a_r2, _, c2 = coefs or _gamma_profiles(params, t)
    k = 1.0 + c2 + a_r2 / (2.0 * xi1)
    read, (m_lo, m_hi) = params.claims.foc_terms, params.claims.mean_excess_bounds
    m, _ = _deductible_root(lambda d: k * read(d)[1] - d, k * m_lo, k * m_hi, params.claims)
    return k * m / (1.0 / a_i + 0.5 / xi1)


def _fixed_point(params: MarketParams, t, coefs=None):
    """Unconstrained (xi1, xi2) at time(s) t (``coefs`` as for ``_r1_reply``): the root in
    d that ``general_equilibrium`` describes, without its closing check."""
    xp = _kind(t)
    a_i, a_r1, a_r2, c1, c2 = coefs or _gamma_profiles(params, t)
    g_inf, delta = _r1_ratio(c1, xp)
    read, (m_lo, m_hi) = params.claims.foc_terms, params.claims.mean_excess_bounds

    def residual(d):  # k(d) m(d) - d, k(d) = k_lo + u delta(e(d))
        e, m, _ = read(d)
        return (k_lo + u * delta(e)) * m - d
    # u = C_R2/(2C_R1) overflows where C_R2/C_R1 exceeds the largest float, and
    # k_lo m_lo with it where m_lo = 0: the bracket's end is then inf
    with xp.errstate(over="ignore", invalid="ignore"):
        k0, u = 1.0 + c2, a_r2 / (2.0 * a_r1)
        k_lo = k0 + u * g_inf
        m, r = _deductible_root(residual, k_lo * m_lo, (k0 + u) * m_hi, params.claims,
                                lambda e: g_inf + delta(e), lambda d, m: (d / m - k0) / u)
    xi1 = a_r1 / r  # xi2 is R2's reply to xi1, whose k stays finite where u overflows
    return xi1, (k0 + a_r2 / (2.0 * xi1)) * m / (1.0 / a_i + 0.5 / xi1)


def reaction_xi1(xi2: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 1's best-response loading (``_r1_reply``)."""
    if not xi2 > 0:
        raise DomainError("reaction_xi1 requires xi2 > 0")
    return _r1_reply(float(xi2), params, float(t))


def reaction_xi2(xi1: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 2's best-response loading (``_r2_reply``)."""
    if not xi1 > 0:
        raise DegeneratePremiumError("reaction_xi2 requires xi1 > 0")
    return _r2_reply(float(xi1), params, float(t))


def general_equilibrium(params: MarketParams, t: float = 0.0) -> PremiumPoint:
    """Candidate premium equilibrium: one root in the deductible d (``_fixed_point``).

    At a fixed d, R1's FOC is a quadratic in r = a_R1/xi1 with one root r(d) in
    [2C_R1/(2C_R1+1), 1] (``_r1_ratio``), and R2's is k(d) m(d) = d with k(d) = 1 + C_R2 +
    (C_R2/(2C_R1)) r(d), between k_lo = 1 + C_R2 + C_R2/(2C_R1+1) and k_hi = 1 + C_R2 +
    C_R2/(2C_R1): the bracket is [k_lo m_lo, k_hi m_hi] (``_deductible_root``), of zero
    width for exponential claims where C_R2 is below rounding.  Then xi1 = a_R1/r and
    xi2 = k m(d)/(1/a_I + 1/(2 xi1)), R2's reply, neither divided by a_R2.
    Raises ConvergenceError unless both FOCs hold at the result (``_check_fixed_point``).
    """
    point = PremiumPoint(*_fixed_point(params, float(t)), t)
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
