"""Exogenous market data: rate curves, claim laws, parameters, premium principles.

Everything here is an immutable value object; all downstream solvers treat
these as read-only and may share them freely across workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, IntegrationError

SECTION4 = "section4"          # xi1 box [theta*beta, eta*beta]
DEFINITION21 = "definition21"  # xi1 box [theta*a_Y/sigma2, eta*a_Y/sigma2]

_TAIL_MASS = 1e-12
# nodes of a GenericClaims layer-moment table on [0, tail_cut]: 2^14 panels,
# so every 4th node is the 4097-point grid of the ppf spline
_TABLE_NODES = 16385
# below x = 0.5 the closed forms of e(x) and of the exponential law's moments
# below d (x = beta d) lose more than 2 digits to cancellation; their power
# series takes over, where 14 terms reach rounding
_SERIES_CUTOFF = 0.5
_E_SERIES = tuple(2.0 / math.factorial(n + 2) for n in range(14, 0, -1))


def e_series(x):
    """sum_{n>=1} 2 x^n/(n+2)! = expo.e_fun(x) to rounding for 0 <= x <= 0.5; elementwise."""
    total = 0.0
    for c in _E_SERIES:
        total = (total + c) * x
    return total


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant deterministic interest rate on [0, horizon].

    ``segments`` is an ordered list of (t_start, rate) pairs; the first
    segment must start at 0 and each rate applies until the next start (the
    last until ``horizon``).  Integrals are computed exactly segment by
    segment, so the accumulation factor exp(int_t^T rho) carries no
    quadrature error.
    """

    segments: tuple[tuple[float, float], ...]
    horizon: float
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple((float(t), float(r)) for t, r in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise DomainError("rate curve needs at least one segment")
        if not self.horizon > 0:
            raise DomainError("rate curve horizon must be positive")
        if segs[0][0] != 0.0:
            raise DomainError("first rate segment must start at t=0")
        starts = [t for t, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise DomainError("segment start times must be strictly increasing")
        if starts[-1] >= self.horizon:
            raise DomainError("segment starts must lie inside [0, horizon)")
        for _, r in segs:
            if not math.isfinite(r) or r < 0.0:
                raise DomainError(f"rates must be finite and non-negative, got {r}")
        knots = np.array(starts + [self.horizon])
        cum = np.cumsum(np.array([r for _, r in segs]) * np.diff(knots))
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_cum", np.concatenate(([0.0], cum)))

    @classmethod
    def flat(cls, rate: float, horizon: float) -> "RateCurve":
        return cls(((0.0, rate),), horizon)

    def integral(self, t0: float, t1: float) -> float:
        """Exact int_{t0}^{t1} rho(s) ds; requires 0 <= t0 <= t1 <= horizon."""
        if not (0.0 <= t0 <= t1 <= self.horizon + 1e-12):
            raise DomainError(f"integration bounds [{t0}, {t1}] outside [0, {self.horizon}]")
        total = 0.0
        for i, (start, rate) in enumerate(self.segments):
            end = self.segments[i + 1][0] if i + 1 < len(self.segments) else self.horizon
            a, b = max(t0, start), min(t1, end)
            if b > a:
                total += rate * (b - a)
        return total

    def cumulative(self, s: np.ndarray) -> np.ndarray:
        """Vectorized int_0^s rho, exact (the cumulative is piecewise linear)."""
        return np.interp(np.asarray(s, dtype=float), self._knots, self._cum)


def accumulation(curve: RateCurve, t: float, T: float) -> float:
    """Accumulation factor exp(int_t^T rho(s) ds)."""
    return math.exp(curve.integral(t, T))


@dataclass(frozen=True)
class TruncatedMoments:
    """Layer moments of a claim law split at a deductible d.

    ``m2_below`` = int_0^d y^2 dF and ``survival`` = S(d) enter reinsurer 1's FOC,
    ``mean_excess`` = m(d) = E[Y - d | Y > d] reinsurer 2's: 1/beta for exponential
    claims even where S(d) underflows, 0 where a table law has S(d) = 0.  ``excess_mean``
    = int_d^inf (y-d) dF = S m, ``m1_below`` and ``excess_sq`` serve premiums and variances.
    """

    d: float
    m2_below: float
    excess_mean: float
    survival: float
    m1_below: float
    excess_sq: float
    mean_excess: float


class ClaimDistribution:
    """Claim-severity law with finite first and second moments.

    ``second_moment`` is int y^2 dF (not the central variance).
    """

    # S(y) at the y where the layer moments stop integrating: 0 when they are exact
    cut_survival = 0.0

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def second_moment(self) -> float:
        raise NotImplementedError

    def cdf(self, y):
        raise NotImplementedError

    def survival(self, y):
        return 1.0 - self.cdf(y)

    def ppf(self, u):
        raise NotImplementedError

    def truncated(self, d) -> TruncatedMoments:
        """Layer moments at deductible ``d``; an array ``d`` gives arrays of its shape."""
        raise NotImplementedError

    def tail_cut(self) -> float:
        """Smallest power of two y >= 1 with tail mass 1 - F(y) below 1e-12."""
        y = 1.0
        while float(self.survival(y)) >= _TAIL_MASS:
            y *= 2.0
            if y > 1e15:
                raise IntegrationError("claim CDF tail mass does not fall below 1e-12")
        return y


@dataclass(frozen=True)
class Exponential(ClaimDistribution):
    """Exponential(beta) severities: mean 1/beta, second moment 2/beta^2."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise DomainError("exponential rate beta must be positive")

    @property
    def mean(self) -> float:
        return 1.0 / self.beta

    @property
    def second_moment(self) -> float:
        return 2.0 / self.beta**2

    def cdf(self, y):
        return -np.expm1(-self.beta * np.maximum(y, 0.0))

    def survival(self, y):
        return np.exp(-self.beta * np.maximum(y, 0.0))

    def ppf(self, u):
        return -np.log1p(-u) / self.beta

    def truncated(self, d):
        """Closed-form layer moments; accepts scalar d (inf allowed) or arrays."""
        b = self.beta
        scalar = np.isscalar(d) or np.ndim(d) == 0
        if scalar:
            d = float(d)
            if d < 0:
                raise DomainError("deductible must be non-negative")
            if math.isinf(d):
                return TruncatedMoments(d, 2.0 / b**2, 0.0, 0.0, 1.0 / b, 0.0, 1.0 / b)
        s = np.exp(-b * d)
        m2 = 2.0 / b**2 - s * (d * d + 2.0 * d / b + 2.0 / b**2)
        m1 = 1.0 / b - s * (d + 1.0 / b)
        # below the cutoff m2 = d^2 S e(x) and m1 = (d x/2) S (1 + e(x)), x = beta d
        small = b * d < _SERIES_CUTOFF
        if small if scalar else small.any():
            x = np.minimum(b * d, _SERIES_CUTOFF)
            e = e_series(x)
            m2 = np.where(small, d * d * s * e, m2)[()]
            m1 = np.where(small, 0.5 * d * x * s * (1.0 + e), m1)[()]
        m = 1.0 / b if scalar else np.full(d.shape, 1.0 / b)
        return TruncatedMoments(d, m2, s / b, s, m1, 2.0 * s / b**2, m)


def _tolerance(value):
    """Largest accepted integration error for ``value``: max(1e-8, 1e-8 |value|)."""
    return np.maximum(1e-8, 1e-8 * np.abs(value))


def _tail_integral(f, h: float) -> np.ndarray:
    """int_y^y_end of each row of f on uniform nodes with spacing h along the last
    axis: one cumulative Simpson from the last node, 0 there."""
    # scipy is imported where it is used: it adds about 50 MB to the resident
    # size of a process that never integrates numerically
    from scipy import integrate
    return integrate.cumulative_simpson(f[..., ::-1], dx=h, initial=0.0)[..., ::-1]


def _hermite(f0, f1, m0, m1, t):
    """Cubic Hermite interpolant at offset t in [0, 1] of a cell with end values
    f0, f1 and end slopes m0, m1 per cell width."""
    return f0 + t * (m0 + t * (3.0 * (f1 - f0) - 2.0 * m0 - m1
                               + t * (2.0 * (f0 - f1) + m0 + m1)))


class GenericClaims(ClaimDistribution):
    """Claim law given by its CDF F; layer moments from one table per law.

    All integrals use survival forms, S = 1 - F, so only F is required, and
    they stop at the tail cut y_max (tail mass below 1e-12).  The layer
    moments EM(d) = int_d^y_max S and ESQ(d) = 2 int_d^y_max (y - d) S come from
    a table built on the first ``truncated``, ``ppf``, ``mean`` or
    ``second_moment`` call: F on 16 385 uniform nodes of [0, y_max], EM by one
    reverse cumulative Simpson of S from y_max and ESQ by one of 2 EM; the
    mean and second moment are EM(0) and ESQ(0).  A deductible between nodes
    reads them by cubic Hermite interpolation with the exact slopes EM' = -S
    and ESQ' = -2 EM; S(d) itself is F's own value.

    Error bound: EM and ESQ, the mean and second moment included, are within
    max(1e-8, 1e-8 |value|) of the integrals.  The build checks this against
    the same Simpson rule at double spacing and raises IntegrationError, naming
    the y of the largest local error, where the estimate exceeds it: an atom or
    a sharp kink of F between nodes raises, and so does a law whose F varies
    on a scale much finer than y_max / 16384 (a density singular at 0, or a
    slowly decaying tail).

    ``cdf`` may be a scalar function: it is called once on the whole node
    array, and once per node if that raises TypeError or ValueError or
    returns the wrong shape.  Sampling inverts a monotone (PCHIP) spline
    through every 4th node of the table.
    """

    def __init__(self, cdf: Callable[[float], float]):
        self._cdf = cdf
        self._ymax = self.tail_cut()
        self.cut_survival = float(self.survival(self._ymax))
        self._table = None
        self._ppf_spline = None

    @property
    def mean(self) -> float:
        return float(self._layer_table()[1][0])  # EM(0)

    @property
    def second_moment(self) -> float:
        return float(self._layer_table()[2][0])  # ESQ(0)

    def cdf(self, y):
        if np.ndim(y) == 0:
            return np.clip(self._cdf(float(y)), 0.0, 1.0)
        y = np.asarray(y, dtype=float)
        try:
            f = np.asarray(self._cdf(y), dtype=float)
        except (TypeError, ValueError):  # a scalar cdf given an array
            f = None
        if f is None or f.shape != y.shape:
            f = np.array([self._cdf(v) for v in y.ravel().tolist()],
                         dtype=float).reshape(y.shape)
        return np.clip(f, 0.0, 1.0)

    def _nodes(self) -> np.ndarray:
        return np.linspace(0.0, self._ymax, _TABLE_NODES)

    def _layer_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, EM, ESQ) on the table nodes, built once and checked at double spacing."""
        if self._table is None:
            y = self._nodes()
            f = self.cdf(y)
            h = y[1]
            em = _tail_integral(1.0 - f, h)
            esq = 2.0 * _tail_integral(em, h)
            em_2h = _tail_integral(1.0 - f[::2], 2.0 * h)
            for name, fine, coarse in (("EM", em, em_2h),
                                       ("ESQ", esq, 2.0 * _tail_integral(em_2h, 2.0 * h))):
                err = fine[::2] - coarse
                if np.any(np.abs(err) > _tolerance(fine[::2])):
                    # the error accumulates from y_max down: its largest step
                    # is the cell where F is hardest to integrate
                    cell = int(np.argmax(np.abs(np.diff(err))))
                    raise IntegrationError(
                        f"layer-moment table of {name} is off by up to "
                        f"{np.max(np.abs(err)):g} against double spacing, most of it "
                        f"at y = {y[2 * cell]:g}..{y[2 * cell + 2]:g}: the claim CDF has an "
                        f"atom or kink there, or varies on a scale finer than its grid")
            self._table = f, em, esq
        return self._table

    def ppf(self, u):
        if self._ppf_spline is None:
            from scipy import interpolate
            fvals, idx = np.unique(self._layer_table()[0][::4], return_index=True)
            self._ppf_spline = interpolate.PchipInterpolator(fvals, self._nodes()[::4][idx])
        return self._ppf_spline(np.clip(u, 0.0, self.cdf(self._ymax)))

    def truncated(self, d) -> TruncatedMoments:
        """Layer moments at a scalar or an array of deductibles, read from the table."""
        d_arr = np.asarray(d, dtype=float)
        if not np.all(d_arr >= 0.0):
            raise DomainError("deductible must be a non-negative number")
        f, em_nodes, esq_nodes = self._layer_table()
        # no excess at or beyond y_max (S = EM = ESQ = 0); d_in = 0 there keeps d = inf finite
        inside = d_arr < self._ymax
        d_in = np.where(inside, d_arr, 0.0)
        h = self._ymax / (_TABLE_NODES - 1)
        x = d_in / h
        j = np.minimum(x.astype(np.intp), _TABLE_NODES - 2)
        t = x - j
        em0, em1 = em_nodes[j], em_nodes[j + 1]
        surv = np.where(inside, 1.0 - self.cdf(d_in), 0.0)
        em = np.where(inside, _hermite(em0, em1, h * (f[j] - 1.0), h * (f[j + 1] - 1.0), t), 0.0)
        esq = np.where(inside, _hermite(esq_nodes[j], esq_nodes[j + 1], -2.0 * h * em0,
                                        -2.0 * h * em1, t), 0.0)
        # the moments below d from the same nodes as the mean and second moment,
        # so both are exactly 0 at d = 0
        m1 = em_nodes[0] - em - d_in * surv
        m2 = esq_nodes[0] - esq - 2.0 * d_in * em - d_in * d_in * surv
        m = np.divide(em, surv, out=np.zeros_like(em), where=surv > 0.0)
        if d_arr.ndim == 0:
            return TruncatedMoments(*(float(v) for v in (d_arr, m2, em, surv, m1, esq, m)))
        return TruncatedMoments(d_arr, m2, em, surv, m1, esq, m)


@dataclass(frozen=True)
class MarketParams:
    """All exogenous model constants.

    ``lam`` is the claim intensity; ``theta`` the insurer's own loading and
    ``eta`` the loading cap; the three gammas are mean-variance risk
    aversions; the rho curves drive the accumulation factors A_k(t).
    ``bound_convention`` selects which xi1 admissibility box applies (the two
    published conventions disagree for exponential claims).
    """

    T: float
    lam: float
    theta: float
    eta: float
    gamma_I: float
    gamma_R1: float
    gamma_R2: float
    rho_I: RateCurve
    rho_R1: RateCurve
    rho_R2: RateCurve
    claims: ClaimDistribution
    x0_I: float = 0.0
    x0_R1: float = 0.0
    x0_R2: float = 0.0
    bound_convention: str = SECTION4

    def __post_init__(self):
        if not self.T > 0:
            raise ConfigError("horizon T must be positive")
        if self.lam < 0:
            raise ConfigError("claim intensity lambda must be non-negative")
        if not (0.0 < self.theta < self.eta):
            raise ConfigError("loadings must satisfy 0 < theta < eta")
        for name in ("gamma_I", "gamma_R1", "gamma_R2"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"risk aversion {name} must be positive")
        for name in ("rho_I", "rho_R1", "rho_R2"):
            if getattr(self, name).horizon < self.T:
                raise ConfigError(f"rate curve {name} does not cover [0, T]")
        if self.bound_convention not in (SECTION4, DEFINITION21):
            raise ConfigError(f"unknown bound convention {self.bound_convention!r}")

    def rho(self, party: str) -> RateCurve:
        return {"I": self.rho_I, "R1": self.rho_R1, "R2": self.rho_R2}[party]

    def gamma(self, party: str) -> float:
        return {"I": self.gamma_I, "R1": self.gamma_R1, "R2": self.gamma_R2}[party]

    def x0(self, party: str) -> float:
        return {"I": self.x0_I, "R1": self.x0_R1, "R2": self.x0_R2}[party]

    def accum(self, party: str, t: float) -> float:
        """A_k(t) = exp(int_t^T rho_k)."""
        return accumulation(self.rho(party), t, self.T)


def accum_profile(params: MarketParams, party: str, s: np.ndarray) -> np.ndarray:
    """A_k(s) = exp(int_s^T rho_k), exact for piecewise-constant rates; vectorized in s."""
    curve = params.rho(party)
    return np.exp(curve.cumulative(params.T) - curve.cumulative(s))


def gamma_accumulations(params: MarketParams, t: float) -> tuple[float, float, float]:
    """(gamma_I*A_I, gamma_R1*A_R1, gamma_R2*A_R2) at time t."""
    return (params.gamma_I * params.accum("I", t),
            params.gamma_R1 * params.accum("R1", t),
            params.gamma_R2 * params.accum("R2", t))


@dataclass(frozen=True)
class PremiumPoint:
    """A pair of reinsurer loadings at a given time.

    xi1 multiplies the second moment (mean-variance principle, units
    1/claim-size); xi2 multiplies the mean (expected-value principle,
    dimensionless).
    """

    xi1: float
    xi2: float
    t: float = 0.0


def admissible_box(params: MarketParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """(xi1 range, xi2 range) under the configured admissibility convention."""
    a_y, sig2 = params.claims.mean, params.claims.second_moment
    # section4: [theta, eta] * beta_eff, beta_eff = 2 a_Y / sigma2 (beta for
    # exponential claims); definition21 uses half that scale
    scale = a_y / sig2 if params.bound_convention == DEFINITION21 else 2.0 * a_y / sig2
    return ((params.theta * scale, params.eta * scale), (params.theta, params.eta))


@dataclass(frozen=True)
class LayerMoments:
    """Expectations of the layered indemnities under the claim law."""

    l1: float
    l1_sq: float
    l2: float
    l2_sq: float
    retained: float
    retained_sq: float


def _bounded_term(coef, survival):
    # retention/cap may be +inf in a degenerate fixed (scalar) contract, where
    # survival is 0; contracts on a grid come from layered_response and are finite
    return 0.0 if np.ndim(survival) == 0 and survival == 0.0 else coef * survival


def layer_moments(response, dist: ClaimDistribution) -> LayerMoments:
    """Moments of (l1, l2, retained) for a layered contract (q, cap, d, retention)."""
    tm = dist.truncated(response.d)
    q, cap, ret = response.q, response.cap, response.retention_limit
    return LayerMoments(
        l1=q * tm.m1_below + _bounded_term(cap, tm.survival),
        l1_sq=q * q * tm.m2_below + _bounded_term(cap * cap, tm.survival),
        l2=tm.excess_mean,
        l2_sq=tm.excess_sq,
        retained=(1.0 - q) * tm.m1_below + _bounded_term(ret, tm.survival),
        retained_sq=(1.0 - q) ** 2 * tm.m2_below + _bounded_term(ret * ret, tm.survival),
    )


def premium_rates(point: PremiumPoint, response, params: MarketParams) -> tuple[float, float]:
    """Instantaneous premium rates (p1, p2) for the given contract.

    p1 = lam*(E l1 + xi1 E l1^2) (mean-variance principle);
    p2 = (1+xi2)*lam*E l2 (expected-value principle).
    """
    lm = layer_moments(response, params.claims)
    p1 = params.lam * (lm.l1 + point.xi1 * lm.l1_sq)
    p2 = (1.0 + point.xi2) * params.lam * lm.l2
    return p1, p2


def insurer_premium_rate(params: MarketParams) -> float:
    """c = (1+theta)*lam*a_Y, the insurer's own premium income rate."""
    return (1.0 + params.theta) * params.lam * params.claims.mean
