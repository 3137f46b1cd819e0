"""Reinsurers' first-order conditions and best responses for arbitrary claims.

Both reduced FOCs are free of the claim intensity and close in the insurer's
deductible d = w(1 + rho), w = xi2/a_I, rho = a_I/(2 xi1), a_k = gamma_k A_k(t),
through the law's ``foc_terms``: at a fixed d, R1's FOC has one root rho(d)
(``_r1_ratio``) and R2's reads k m(d) = d, k = 1 + C_R2(1 + rho), m the mean
excess.  So every solve reads (a_I, C_R1, C_R2) and is one root of d = f(d)
(``_deductible_root``): R1's reply, f = w(1 + rho(d)); R2's, f = k m(d); the
fixed point, f = k(d) m(d).  Each is written once, for a float time
(``chandrupatla_scalar``, no numpy call per evaluation) or an array of times
(``chandrupatla``).  The two that read m(d) raise IntegrationError where a table
law's tail cut leaves it unresolved at the root.  Times outside [0, T] raise
DomainError.  For exponential claims they
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
                     gamma_accumulations, ledger, running_reward)
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
    -d^2 S(d)/(2C+1) <= 0 at the upper end.  In rho = a_I/(2 xi1) it is (1/(2C+1), 1/(2C)),
    whose closure is the range of R1's reply to a deductible (``_r1_ratio``)."""
    a_i, a_r1, _ = gamma_accumulations(params, t)
    return a_r1, a_r1 + 0.5 * a_i


# numpy's sqrt, isfinite, where, minimum, clip and errstate for the Python floats of a
# scalar solve, which make no numpy call: float arithmetic gives inf on overflow and raises
# only on a division by zero, and this where evaluates both its branches, as numpy's does
_FLOATS = SimpleNamespace(sqrt=math.sqrt, isfinite=math.isfinite,
                          where=lambda cond, a, b: a if cond else b, minimum=min,
                          clip=lambda x, lo, hi: max(lo, min(x, hi)),
                          errstate=lambda _none=contextlib.nullcontext(), **_: _none)
_BIG = float(np.finfo(float).max)


def _kind(t):  # the arithmetic of a solve at time(s) t
    return np if isinstance(t, np.ndarray) else _FLOATS


def _gamma_profiles(params: MarketParams, t):
    # (a_I, C_R1, C_R2), a_k = gamma_k*A_k and C_Rk = a_Rk/a_I, at a float time or an
    # array of times in [0, T], the checks every solve passes through: DomainError where
    # a time is outside [0, T] (from RateCurve.integral), where a C is not positive and
    # finite, or where R1's reply interval (a_R1, a_R1 + a_I/2) is empty
    a_i, a_r1, a_r2 = gamma_accumulations(params, t)
    with _kind(t).errstate(over="ignore"):  # an overflowed ratio is named below
        c1, c2 = a_r1 / a_i, a_r2 / a_i
    ok = (0.0 < c1) & (c1 < math.inf) & (0.0 < c2) & (c2 < math.inf) & (a_r1 + 0.5 * a_i > a_r1)
    if ok is True or np.all(ok):  # a Python bool skips np.all, about 4 us
        return a_i, c1, c2
    c1, c2, t = (np.ravel(v)[np.argmin(np.ravel(ok))] for v in np.broadcast_arrays(c1, c2, t))
    raise DomainError(f"C_R1 = {c1:g} and C_R2 = {c2:g} at t = {t:g}: both must be "
                      f"positive and finite, C_R1 below about 1e16")


def _check_resolved(d, m, s, claims) -> None:
    """IntegrationError at the first root d with S(d) < 1e6 S(tail_cut): m(d) unresolved."""
    ok = (m > 0.0) & (s >= _CUT_RESOLUTION * claims.cut_survival)
    if ok is not True and not np.all(ok):  # a Python bool skips np.all
        d_bad, s_bad = (np.ravel(v)[np.argmin(np.ravel(ok))] for v in (d, s))
        raise IntegrationError(
            f"root d = {d_bad:g} has S(d) = {s_bad:g} below {_CUT_RESOLUTION:g} "
            f"S(tail_cut = {claims.tail_cut():g}) = {claims.cut_survival:g}: m(d) is unresolved")


def _r1_ratio(c_r1, xp=_FLOATS):
    """(rho_lo, delta): R1's reply rho = a_I/(2 xi1) to d is ``expo.g_fun`` at e(d) over 2C,
    rho_lo + delta(e), from 1/(2C) at e = 0 to rho_lo = 1/(2C+1) at e = inf; 2C delta, the
    positive root of D^2 + s D - K, s = 4C/(2C+1) + 2C - 1 + e(2C+1), K = 4C(C+1)/(2C+1)^2,
    does not cancel near rho_lo, and delta is inf only where 1/(4C) overflows."""
    p, c4 = 2.0 * c_r1 + 1.0, 4.0 * c_r1
    k_c = 4.0 * (c_r1 + 1.0) / (p * p)  # K/C
    k4, s0, sqrt, where = c4 * k_c, c4 / p + 2.0 * c_r1 - 1.0, xp.sqrt, xp.where

    def delta(e):
        s = s0 + e * p
        q = abs(s) + sqrt(s * s + k4)  # the larger of |s| +- sqrt(s^2 + 4K), > 0
        return where(s > 0.0, k_c / q, q / c4)
    return 1.0 / p, delta


def _deductible_root(residual, lo, hi, claims, ratio=None, identity=None, reads_m=True):
    """m(d) at the root d of residual(d) = f(d) - d on [lo, hi], f's bounds, each capped at
    the largest float (``_check_resolved`` where f ``reads_m``), and given R1's ``ratio``
    rho(e), rho: ratio(e(d)), or identity(d, m(d)) where the residual falls by over 2 per
    unit of d across the final bracket, where rho(d) is steep."""
    xp = _kind(hi)
    with xp.errstate(all="ignore"):  # np.where computes both forms
        lo, hi = xp.minimum(lo, _BIG), xp.minimum(hi, _BIG)
        d, f_d, y, f_y = (chandrupatla(residual, lo, hi) if xp is np
                          else chandrupatla_scalar(residual, lo, hi))
        # the secant (f_d - f_y)/(d - y) below -2, with no division by d - y = 0
        steep = xp.isfinite(f_y) & ((f_d - f_y + 2.0 * (d - y)) * (d - y) < 0.0)
        e, m, s = claims.foc_terms(d)
        if reads_m:
            _check_resolved(d, m, s, claims)
        if ratio is None or xp is not np:  # a float's identity may divide by 0 unless steep
            return m, ratio and (identity(d, m) if steep else ratio(e))
        return m, np.where(steep, identity(d, m), ratio(e))


def _r1_reply(xi2, params: MarketParams, t, coefs=None):
    """R1's best-response xi1 = a_I/(2 rho) to xi2 at time(s) t (``coefs``: their
    ``_gamma_profiles``, if read): the root of d = w(1 + rho(d)), w = xi2/a_I, on
    [w(1 + rho_lo), w(1 + 1/(2C_R1))], where the insurer's d meets R1's reply rho(d)."""
    xp, read = _kind(t), params.claims.foc_terms
    a_i, c1, _ = coefs or _gamma_profiles(params, t)
    rho_lo, delta = _r1_ratio(c1, xp)
    with xp.errstate(over="ignore"):  # 1/(2C_R1) overflows where C_R1 is subnormal
        w = xi2 / a_i
        lo = w + w * rho_lo
        _, rho = _deductible_root(lambda d: lo + w * delta(read(d)[0]) - d, lo, w + w * (0.5 / c1),
                                  params.claims, lambda e: rho_lo + delta(e),
                                  lambda d, m: (d - w) / w, reads_m=False)
    return 0.5 * a_i / rho


def _r2_xi2(a_i, c2, rho, m):
    # R2's reply xi2 = a_I k m/(1 + rho) to rho = a_I/(2 xi1), at the root of d = k m(d),
    # k = 1 + C_R2 (1 + rho)
    return a_i * (1.0 + c2 * (1.0 + rho)) * m / (1.0 + rho)


def _r2_reply(xi1, params: MarketParams, t, coefs=None):
    """R2's best-response xi2 = a_I k m(d)/(1 + rho) to xi1 at time(s) t (``coefs`` as
    for ``_r1_reply``), rho = a_I/(2 xi1), at the root d on [k m_lo, k m_hi], of zero
    width for exponential claims, of its FOC over S(d), k m(d) - d, k = 1 + C_R2(1 + rho)."""
    a_i, _, c2 = coefs or _gamma_profiles(params, t)
    rho = 0.5 * a_i / xi1
    k = 1.0 + c2 * (1.0 + rho)
    read, (m_lo, m_hi) = params.claims.foc_terms, params.claims.mean_excess_bounds
    m, _ = _deductible_root(lambda d: k * read(d)[1] - d, k * m_lo, k * m_hi, params.claims)
    return _r2_xi2(a_i, c2, rho, m)


def _fixed_point(params: MarketParams, t, coefs=None):
    """Unconstrained (xi1, xi2) at time(s) t (``coefs`` as for ``_r1_reply``): the root in
    d that ``general_equilibrium`` describes, without its closing check."""
    xp = _kind(t)
    a_i, c1, c2 = coefs or _gamma_profiles(params, t)
    rho_lo, delta = _r1_ratio(c1, xp)
    read, (m_lo, m_hi) = params.claims.foc_terms, params.claims.mean_excess_bounds
    k_lo = 1.0 + c2 * (1.0 + rho_lo)

    def residual(d):  # k(d) m(d) - d, k(d) = k_lo + C_R2 delta(e(d))
        e, m, _ = read(d)
        return (k_lo + c2 * delta(e)) * m - d
    # the upper end overflows where C_R1 is subnormal or C_R2/C_R1 exceeds the largest float
    with xp.errstate(over="ignore"):
        m, rho = _deductible_root(residual, k_lo * m_lo, (1.0 + c2 * (1.0 + 0.5 / c1)) * m_hi,
                                  params.claims, lambda e: rho_lo + delta(e),
                                  lambda d, m: (d / m - 1.0 - c2) / c2)
    return 0.5 * a_i / rho, _r2_xi2(a_i, c2, rho, m)


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

    At a fixed d, R1's FOC has one root rho(d) in [1/(2C_R1+1), 1/(2C_R1)] (``_r1_ratio``),
    and R2's is k(d) m(d) = d, k(d) = 1 + C_R2(1 + rho(d)): the bracket is [k_lo m_lo,
    k_hi m_hi], k at rho's ends (``_deductible_root``).  Then xi1 = a_I/(2 rho) and xi2 =
    a_I k m(d)/(1 + rho), R2's reply.  Raises ConvergenceError unless both FOCs hold at the
    result (``_check_fixed_point``).
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
