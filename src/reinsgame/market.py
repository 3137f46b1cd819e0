"""Exogenous market data: rate curves, claim laws, parameters, premium principles.

Everything here is an immutable value object; all downstream solvers treat
these as read-only and may share them freely across workers.  ``ledger`` is
the one place that writes each party's premium income, claim payout and HJB
margin under a contract; premium rates, the objectives, the value intercepts
and the Monte Carlo drift all read it.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, IntegrationError

PARTIES = ("I", "R1", "R2")  # the insurer and reinsurers 1 and 2, in every per-party row
_TAIL_MASS = 1e-12
_TINY = 2.0 ** -1022  # the smallest normal float
# A table law's m(d) misses the excess beyond its tail cut, a relative error
# of about S(tail_cut)/S(d) where m varies slowly: m(d) counts as resolved
# where S(d) >= 1e6 S(tail_cut), which keeps that error below 1e-6.
_CUT_RESOLUTION = 1e6
# nodes of a GenericClaims layer-moment table on [0, tail_cut]: 2^14 panels,
# so every 4th node is the 4097-point grid of the ppf spline
_TABLE_NODES = 16385
# below x = 0.5 the closed forms of e(x) and of the exponential law's moments
# below d (x = beta d) lose more than 2 digits to cancellation; their power
# series takes over, where 14 terms reach rounding
_SERIES_CUTOFF = 0.5
_E_SERIES = tuple(2.0 / math.factorial(n + 2) for n in range(14, 0, -1))


def e_series(x):
    """sum_{n>=1} 2 x^n/(n+2)! = e_fun(x) to rounding for 0 <= x <= 0.5; elementwise."""
    total = 0.0
    for c in _E_SERIES:
        total = (total + c) * x
    return total


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


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant deterministic interest rate on [0, horizon].

    ``segments`` is an ordered list of (t_start, rate) pairs; the first
    segment must start at 0 and each rate applies until the next start (the
    last until ``horizon``).  Integrals are computed exactly segment by
    segment, so the accumulation factor exp(int_t^T rho) (``accumulation``)
    carries no quadrature error.  The (start, end, rate) pieces are built once;
    a float t0 inside the bounds is read from them with plain comparisons and
    no numpy call, to the bits of an array's element.
    """

    segments: tuple[tuple[float, float], ...]
    horizon: float
    _pieces: tuple = field(init=False, repr=False, compare=False)  # (start, end, rate)

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
        ends = starts[1:] + [self.horizon]
        object.__setattr__(self, "_pieces", tuple((s, e, r) for (s, r), e in zip(segs, ends)))

    @classmethod
    def flat(cls, rate: float, horizon: float) -> "RateCurve":
        return cls(((0.0, rate),), horizon)

    def integral(self, t0, t1: float):
        """Exact int_{t0}^{t1} rho(s) ds, 0 <= t0 <= t1 <= horizon; elementwise for an array t0."""
        if isinstance(t0, float) and 0.0 <= t0 <= t1 <= self.horizon + 1e-12:
            total = 0.0  # the pieces that meet [t0, t1], with max and min as comparisons
            for start, end, rate in self._pieces:
                if start >= t1:
                    break
                if end > t0:
                    total += rate * ((end if end < t1 else t1) - (start if start > t0 else t0))
            return total
        ok = (0.0 <= t0) & (t0 <= t1)  # False for NaN
        if not np.all(ok) or not t1 <= self.horizon + 1e-12:
            bad = np.ravel(t0)[np.argmin(np.ravel(ok))]  # the first t0 out of order
            raise DomainError(f"integration bounds [{bad:g}, {t1:g}] outside [0, {self.horizon:g}]")
        total = 0.0
        for start, end, rate in self._pieces:
            total = total + rate * np.maximum(min(t1, end) - np.maximum(t0, start), 0.0)
        return total


def accumulation(curve: RateCurve, t, T: float):
    """Accumulation factor exp(int_t^T rho(s) ds), np.exp of ``RateCurve.integral``: a float
    for a float t, elementwise for an array, and a float gets the bits of an array's element."""
    a = np.exp(curve.integral(t, T))
    return a if isinstance(t, np.ndarray) else float(a)


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

    def foc_terms(self, d):
        """(e, m, S) at deductible(s) d, which the reinsurers' FOCs read: e = M2(d)/(d^2 S(d)),
        the paper's e generalised (0 at d = 0, huge where d^2 S underflows), m(d) and S(d)."""
        tm = self.truncated(d)
        # a table law's M2 can round below 0 at small d, where it cancels; d^2 S is
        # NaN at d = inf, where S = 0, and max and fmax skip a NaN as their second
        with np.errstate(over="ignore", invalid="ignore"):
            d2s = d * (d * tm.survival)
            e = (max(0.0, tm.m2_below) / max(_TINY, d2s) if isinstance(d, float)
                 else np.maximum(tm.m2_below, 0.0) / np.fmax(d2s, _TINY))
        return e, tm.mean_excess, tm.survival

    @property
    def mean_excess_bounds(self) -> tuple[float, float]:
        """(m_lo, m_hi) with m_lo <= m(d) <= m_hi wherever the mean excess is resolved."""
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
        if not 0.0 < self.beta < math.inf:
            raise DomainError("exponential rate beta must be positive and finite")

    @property
    def mean(self) -> float:
        return 1.0 / self.beta

    @property
    def second_moment(self) -> float:
        return 2.0 / self.beta**2

    @property
    def mean_excess_bounds(self) -> tuple[float, float]:
        """m(d) = 1/beta at every d (memorylessness)."""
        return 1.0 / self.beta, 1.0 / self.beta

    def cdf(self, y):
        return -np.expm1(-self.beta * np.maximum(y, 0.0))

    def survival(self, y):
        return np.exp(-self.beta * np.maximum(y, 0.0))

    def ppf(self, u):
        return -np.log1p(-u) / self.beta

    def foc_terms(self, d):
        """``ClaimDistribution.foc_terms``; a Python float d reads e_fun(beta d) in pure Python."""
        if not isinstance(d, float):
            return super().foc_terms(d)
        x = self.beta * d
        # e is its limit 0 at d = 0, and inf at d = inf, where S(d) = 0
        return (e_fun(x) if 0.0 < x < math.inf else x), 1.0 / self.beta, math.exp(-x)

    def truncated(self, d):
        """Closed-form layer moments; accepts scalar d (inf allowed) or arrays."""
        b = self.beta
        scalar = np.isscalar(d) or np.ndim(d) == 0
        if scalar:
            d = float(d)
        if not (d >= 0.0 if scalar else np.all(d >= 0.0)):  # False for NaN
            raise DomainError("deductible must be a non-negative number")
        bd = b * d
        s = np.exp(-bd)
        # where S(d) = 0 the moments below d are their limits 2/beta^2 and 1/beta,
        # and d^2 may overflow there, so S times it would be 0 * inf
        if scalar and s == 0.0:
            return TruncatedMoments(d, 2.0 / b**2, 0.0, 0.0, 1.0 / b, 0.0, 1.0 / b)
        dp = d if scalar or s.min() > 0.0 else np.where(s > 0.0, d, 0.0)
        m2 = 2.0 / b**2 - s * (dp * dp + 2.0 * dp / b + 2.0 / b**2)
        m1 = 1.0 / b - s * (dp + 1.0 / b)
        # below the cutoff m2 = d^2 S e(x) and m1 = (d x/2) S (1 + e(x)), x = beta d
        small = bd < _SERIES_CUTOFF
        if small if scalar else small.any():
            x = np.minimum(bd, _SERIES_CUTOFF)
            e = e_series(x)
            m2 = np.where(small, dp * dp * s * e, m2)[()]
            m1 = np.where(small, 0.5 * dp * x * s * (1.0 + e), m1)[()]
        m = 1.0 / b if scalar else np.full(d.shape, 1.0 / b)
        return TruncatedMoments(d, m2, s / b, s, m1, 2.0 * s / b**2, m)


def _tolerance(value):
    """Largest accepted integration error for ``value``: max(1e-8, 1e-8 |value|)."""
    return np.maximum(1e-8, 1e-8 * np.abs(value))


def _tail_integral(f, h: float) -> np.ndarray:
    """int_y^y_end of each row of f on uniform nodes with spacing h along the last
    axis, 3 nodes at least: one cumulative Simpson from the last node, 0 there, in
    the arithmetic of ``scipy.integrate.cumulative_simpson``, bit for bit."""
    y = f[..., ::-1]
    out = np.zeros(y.shape)
    steps = out[..., 1:]  # the integral over each interval
    # h/3 (5 f1/4 + 2 f2 - f3/4) integrates the parabola through f1, f2, f3 from f1 to f2
    # (Cartwright, J. Math. Sci. Math. Educ. 12(2), eq. 10): each triple from an even
    # node gives its two intervals, and the last triple the last interval; each node's
    # terms, 5 f/4 and f/4 at an even node and 2 f at an odd one, are formed once
    even = y[..., ::2]
    five, quarter, two = 5 * even / 4, even / 4, 2 * y[..., 1:-1:2]
    steps[..., :-1:2] = h / 3 * (five[..., :-1] + two - quarter[..., 1:])
    steps[..., 1::2] = h / 3 * (five[..., 1:] + two - quarter[..., :-1])
    steps[..., -1] = h / 3 * (5 * y[..., -1] / 4 + 2 * y[..., -2] - y[..., -3] / 4)
    return np.cumsum(out, axis=-1, out=out)[..., ::-1]


def _pchip(x, y) -> tuple:
    """Power-form coefficients (c0, c1, c2, c3), c0 of s^3, per cell of the monotone cubic
    through strictly increasing x and y, 3 points at least: SciPy's ``PchipInterpolator``,
    bit for bit, whose sign cases do not arise for increasing data.  The slopes are
    Fritsch and Carlson's (SIAM J. Numer. Anal. 17(2), 1980): a weighted harmonic mean
    inside, and at each end a one-sided three-point estimate floored at 0."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.empty(x.size)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    for i, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]), (-1, h[-1], h[-2], m[-1], m[-2])):
        end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[i] = end if end > 0.0 else 0.0
    t = (d[:-1] + d[1:] - 2 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


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
    a table built on the first ``truncated``, ``ppf``, ``mean``, ``second_moment``
    or ``mean_excess_bounds`` call: F on 16 385 uniform nodes of [0, y_max], EM by one
    reverse cumulative Simpson of S from y_max and ESQ by one of 2 EM; the
    mean and second moment are EM(0) and ESQ(0).  A deductible between nodes
    reads them by cubic Hermite interpolation with the exact slopes EM' = -S
    and ESQ' = -2 EM; S(d) itself is F's own value.  ``truncated`` and
    ``foc_terms`` read a float deductible in [0, y_max), an ``np.float64`` too,
    in pure Python (``_read_float``), to the bits of an array's element.

    Error bound: EM and ESQ, the mean and second moment included, are within
    max(1e-8, 1e-8 |value|) of the integrals.  The build checks this against
    the same Simpson rule at double spacing and raises IntegrationError, naming
    the y of the largest local error, where the estimate exceeds it: an atom or
    a sharp kink of F between nodes raises, and so does a law whose F varies
    on a scale much finer than y_max / 16384 (a density singular at 0, or a
    slowly decaying tail).  An F that is NaN or infinite at a node raises
    DomainError naming the first such y.

    ``cdf`` may be a scalar function: it is called once on the whole node
    array, and once per node if that raises TypeError or ValueError or
    returns the wrong shape.  Sampling inverts a monotone (PCHIP) spline
    through every 4th node of the table, ``_pchip``: SciPy's
    ``PchipInterpolator``, computed in numpy bit for bit.
    """

    def __init__(self, cdf: Callable[[float], float]):
        self._cdf = cdf
        self._ymax = super().tail_cut()
        self.cut_survival = float(self.survival(self._ymax))
        self._table = self._rows = None
        self._ppf_spline = None

    @property
    def mean(self) -> float:
        return float(self._layer_table()[1][0])  # EM(0)

    @property
    def second_moment(self) -> float:
        return float(self._layer_table()[2][0])  # ESQ(0)

    @property
    def mean_excess_bounds(self) -> tuple[float, float]:
        """(0, the largest EM/S over the table's nodes of the cells where m(d) is resolved,
        S >= 1e6 S(tail_cut)), found with the table and widened by 1e-6 relative to cover
        the Hermite reads between nodes.  For a DMRL law m_hi is the mean."""
        self._layer_table()
        return 0.0, self._m_hi

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

    def tail_cut(self) -> float:
        """The table's end y_max, found once at construction."""
        return self._ymax

    def _nodes(self) -> np.ndarray:
        return np.linspace(0.0, self._ymax, _TABLE_NODES)

    def _layer_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, EM, ESQ) on the table nodes, built once and checked at double spacing."""
        if self._table is None:
            y = self._nodes()
            f = self.cdf(y)
            finite = np.isfinite(f)
            if not finite.all():
                raise DomainError(f"claim CDF is not finite at y = {y[np.argmin(finite)]:g}")
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
            # m = EM/S where it is resolved, S >= 1e6 S(tail_cut): S falls, so that is
            # the nodes up to some last one, and the cell after it, where m may still
            # rise, holds resolved deductibles too
            s = 1.0 - f
            near = s >= _CUT_RESOLUTION * self.cut_survival
            near[1:] |= near[:-1]
            near &= s > 0.0
            self._m_hi = float(np.max(em[near] / s[near], initial=0.0)) * (1.0 + 1e-6)
            self._table = f, em, esq
            # the same nodes for a float's read: indexing these gives Python floats
            self._rows = tuple(array("d", v.tobytes()) for v in self._table)
        return self._table

    def ppf(self, u):
        if self._ppf_spline is None:
            fvals, idx = np.unique(self._layer_table()[0][::4], return_index=True)
            self._ppf_spline = fvals, _pchip(fvals, self._nodes()[::4][idx])
        x, (c0, c1, c2, c3) = self._ppf_spline
        u = np.clip(u, 0.0, self.cdf(self._ymax))
        j = np.searchsorted(x[1:-1], u, "right")  # u's cell, the end cells extended
        s = u - x[j]
        s2 = s * s
        # the power sum in this order, as scipy's PPoly evaluates it
        return c3[j] + c2[j] * s + c1[j] * s2 + c0[j] * (s2 * s)

    def truncated(self, d) -> TruncatedMoments:
        """Layer moments at a scalar or an array of deductibles, read from the table; a
        float in [0, y_max) is read in pure Python (``_read_float``), to an array's bits."""
        read = self._read_float(d)
        if read is not None:
            d, (s, em, esq, m2) = float(d), read
            return TruncatedMoments(d, m2, em, s, self._rows[1][0] - em - d * s, esq,
                                    em / s if s > 0.0 else 0.0)
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

    def foc_terms(self, d):
        """``ClaimDistribution.foc_terms``; a float is read in pure Python, to an array's bits."""
        read = self._read_float(d)
        if read is None:
            return super().foc_terms(d)
        s, em, _, m2 = read
        return max(0.0, m2) / max(_TINY, d * (d * s)), em / s if s > 0.0 else 0.0, s

    def _read_float(self, d):
        """(S, EM, ESQ, M2) at a float d in [0, y_max), the array read's arithmetic on the
        table's rows as Python floats, so each has the bits of an array's element; None
        for any other d, which reads as an array does: an array, d >= y_max, inf, a
        negative d or NaN.  The condition's last term builds the table, and so the rows."""
        if not (isinstance(d, float) and 0.0 <= d < self._ymax and self._layer_table()):
            return None
        d = float(d)  # an np.float64 too, so that every result is a Python float
        (f, em_nodes, esq_nodes), h = self._rows, self._ymax / (_TABLE_NODES - 1)
        j = min(int(d / h), _TABLE_NODES - 2)
        t, s = d / h - j, 1.0 - min(max(float(self._cdf(d)), 0.0), 1.0)
        em0, em1 = em_nodes[j], em_nodes[j + 1]
        em = _hermite(em0, em1, h * (f[j] - 1.0), h * (f[j + 1] - 1.0), t)
        esq = _hermite(esq_nodes[j], esq_nodes[j + 1], -2.0 * h * em0, -2.0 * h * em1, t)
        return s, em, esq, esq_nodes[0] - esq - 2.0 * d * em - d * d * s


@dataclass(frozen=True)
class MarketParams:
    """All exogenous model constants.

    ``lam`` is the claim intensity; ``theta`` the insurer's own loading and
    ``eta`` the loading cap; the three gammas are mean-variance risk
    aversions; the rho curves drive the accumulation factors A_k(t).
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

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ConfigError("horizon T must be positive and finite")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("claim intensity lambda must be non-negative and finite")
        if not 0.0 < self.theta < self.eta < math.inf:
            raise ConfigError("loadings must satisfy 0 < theta < eta < inf")
        for name in ("gamma_I", "gamma_R1", "gamma_R2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"risk aversion {name} must be positive and finite")
        for name in ("x0_I", "x0_R1", "x0_R2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"initial surplus {name} must be finite")
        for name in ("rho_I", "rho_R1", "rho_R2"):
            if getattr(self, name).horizon < self.T:
                raise ConfigError(f"rate curve {name} does not cover [0, T]")

    def rho(self, party: str) -> RateCurve:
        return {"I": self.rho_I, "R1": self.rho_R1, "R2": self.rho_R2}[party]

    def gamma(self, party: str) -> float:
        return {"I": self.gamma_I, "R1": self.gamma_R1, "R2": self.gamma_R2}[party]

    def x0(self, party: str) -> float:
        return {"I": self.x0_I, "R1": self.x0_R1, "R2": self.x0_R2}[party]

    def accum(self, party: str, t):
        """A_k(t) = exp(int_t^T rho_k) at a float time or an array of times (``accumulation``)."""
        return accumulation(self.rho(party), t, self.T)


def accumulations(params: MarketParams, t) -> tuple:
    """(A_I, A_R1, A_R2) at a float time or an array of times, ``accumulation``'s formula: one
    np.exp over the three integrals for a float, for an array one per distinct rate curve."""
    curves, T = (params.rho_I, params.rho_R1, params.rho_R2), params.T
    if not isinstance(t, np.ndarray):
        return tuple(np.exp([curves[0].integral(t, T), curves[1].integral(t, T),
                             curves[2].integral(t, T)]).tolist())
    factors = []
    for k, curve in enumerate(curves):
        same = curves.index(curve)  # equal curves are equal values, not one object
        factors.append(factors[same] if same < k else accumulation(curve, t, T))
    return tuple(factors)


def gamma_accumulations(params: MarketParams, t) -> tuple:
    """(gamma_I*A_I, gamma_R1*A_R1, gamma_R2*A_R2) at time(s) t (``accumulations``)."""
    a_i, a_r1, a_r2 = accumulations(params, t)
    return params.gamma_I * a_i, params.gamma_R1 * a_r1, params.gamma_R2 * a_r2


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
    """(xi1 range, xi2 range): [theta, eta] * 2 a_Y/sigma2 (theta beta to eta beta
    for exponential claims) and [theta, eta], the box of the paper's Section 4."""
    scale = 2.0 * params.claims.mean / params.claims.second_moment
    return ((params.theta * scale, params.eta * scale), (params.theta, params.eta))


@dataclass(frozen=True)
class Ledger:
    """Flows per unit time, one entry per party of ``PARTIES`` in each field, paid =
    (retained, l1, l2): ``income`` (c - p1 - p2, p1, p2), ``payout`` lam E[paid] and
    ``payout_sq`` lam E[paid^2], and the HJB ``margin`` lam (theta a_Y - xi1 E[l1^2] -
    xi2 E[l2], xi1 E[l1^2], xi2 E[l2]): income - payout, kept in the paper's reduced
    form so that B_k (from margins) and J (from income - payout) check each other."""

    income: tuple
    payout: tuple
    payout_sq: tuple
    margin: tuple


def _bounded_term(coef, survival):
    # retention/cap may be +inf in a degenerate fixed (scalar) contract, where
    # survival is 0; contracts on a grid come from layered_response and are finite
    return 0.0 if np.ndim(survival) == 0 and survival == 0.0 else coef * survival


def ledger(response, xi1, xi2, params: MarketParams) -> Ledger:
    """The ``Ledger`` of contract ``response`` at loadings (xi1, xi2), scalars or arrays of
    one shape: p1 = lam (E l1 + xi1 E l1^2), p2 = (1 + xi2) lam E l2."""
    tm = params.claims.truncated(response.d)
    q, cap, ret, lam = response.q, response.cap, response.retention_limit, params.lam
    l1 = q * tm.m1_below + _bounded_term(cap, tm.survival)
    l1_sq = q * q * tm.m2_below + _bounded_term(cap * cap, tm.survival)
    retained = (1.0 - q) * tm.m1_below + _bounded_term(ret, tm.survival)
    retained_sq = (1.0 - q) ** 2 * tm.m2_below + _bounded_term(ret * ret, tm.survival)
    p1 = lam * (l1 + xi1 * l1_sq)
    p2 = (1.0 + xi2) * lam * tm.excess_mean
    r1, r2 = lam * xi1 * l1_sq, lam * xi2 * tm.excess_mean
    return Ledger(
        income=(insurer_premium_rate(params) - p1 - p2, p1, p2),
        payout=(lam * retained, lam * l1, lam * tm.excess_mean),
        payout_sq=(lam * retained_sq, lam * l1_sq, lam * tm.excess_sq),
        margin=(lam * params.theta * params.claims.mean - r1 - r2, r1, r2))


def running_reward(led: Ledger, params: MarketParams, party: str, accum):
    """Party's optimized HJB running reward at accumulation factor(s) ``accum`` = A_k:
    its ``Ledger`` margin less the risk charge (gamma_k A_k / 2) lam E[paid^2]."""
    k = PARTIES.index(party)
    return led.margin[k] - 0.5 * params.gamma(party) * accum * led.payout_sq[k]


def premium_rates(point: PremiumPoint, response, params: MarketParams) -> tuple:
    """Instantaneous premium rates (p1, p2) for the given contract (``ledger``)."""
    return ledger(response, point.xi1, point.xi2, params).income[1:]


def insurer_premium_rate(params: MarketParams) -> float:
    """c = (1+theta)*lam*a_Y, the insurer's own premium income rate."""
    return (1.0 + params.theta) * params.lam * params.claims.mean
