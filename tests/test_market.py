import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, interpolate

from reinsgame.config import default_market_params
from reinsgame.errors import ConfigError, DomainError, IntegrationError
from reinsgame.market import (_TABLE_NODES, Exponential, GenericClaims,
                              PremiumPoint, RateCurve, _tail_integral, accumulation,
                              admissible_box, insurer_premium_rate, premium_rates)
from reinsgame.response import full_cession_to_r2, no_reinsurance, response


def uniform_claims(upper=2.0):
    return GenericClaims(lambda y: min(max(y / upper, 0.0), 1.0))


def erlang2_cdf(y):
    # Erlang(2, rate 2), written for scalars only
    return 0.0 if y <= 0.0 else -math.expm1(-2.0 * y) - 2.0 * y * math.exp(-2.0 * y)


class TestAccumulation:
    def test_zero_rate_identity(self):
        curve = RateCurve.flat(0.0, 8.0)
        assert accumulation(curve, 0.0, 8.0) == 1.0

    def test_constant_rate(self):
        curve = RateCurve.flat(0.1, 8.0)
        assert accumulation(curve, 0.0, 8.0) == pytest.approx(math.exp(0.8), rel=1e-14)

    def test_piecewise(self):
        curve = RateCurve(((0.0, 0.1), (4.0, 0.2)), 8.0)
        assert accumulation(curve, 0.0, 8.0) == pytest.approx(math.exp(1.2), rel=1e-14)
        assert accumulation(curve, 3.0, 5.0) == pytest.approx(math.exp(0.1 + 0.2), rel=1e-14)

    def test_endpoint_identity(self):
        curve = RateCurve(((0.0, 0.05), (2.0, 0.15)), 8.0)
        for t in (0.0, 3.7, 8.0):
            assert accumulation(curve, t, t) == 1.0

    def test_multiplicative(self):
        curve = RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            t, s, T = np.sort(rng.uniform(0.0, 8.0, 3))
            whole = accumulation(curve, t, T)
            split = accumulation(curve, t, s) * accumulation(curve, s, T)
            assert whole == pytest.approx(split, rel=1e-12)

    def test_domain_errors(self):
        curve = RateCurve.flat(0.1, 8.0)
        with pytest.raises(DomainError):
            curve.integral(5.0, 3.0)
        with pytest.raises(DomainError):
            curve.integral(0.0, 9.0)
        with pytest.raises(DomainError):
            curve.integral(-1.0, 2.0)

    def test_curve_validation(self):
        with pytest.raises(DomainError):
            RateCurve(((1.0, 0.1),), 8.0)  # does not start at 0
        with pytest.raises(DomainError):
            RateCurve(((0.0, -0.1),), 8.0)  # negative rate
        with pytest.raises(DomainError):
            RateCurve(((0.0, 0.1), (9.0, 0.2)), 8.0)  # start beyond horizon

    def test_float_is_an_array_element_bit_for_bit(self, base_params):
        # one formula for a float time and an array of times: a float is no
        # more and no less exact than the same time in an array
        curve = RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0)
        params = dataclasses.replace(base_params, rho_I=curve, rho_R1=RateCurve.flat(0.1, 8.0))
        ts = np.concatenate([np.linspace(0.0, 8.0, 801),
                             np.random.default_rng(23).uniform(0.0, 8.0, 2000)])
        whole = accumulation(curve, ts, 8.0)
        assert [accumulation(curve, t, 8.0) for t in ts.tolist()] == whole.tolist()
        for party in ("I", "R1", "R2"):
            whole = params.accum(party, ts)
            assert [params.accum(party, t) for t in ts.tolist()] == whole.tolist(), party
            assert type(params.accum(party, 1.0)) is float

    @pytest.mark.parametrize("t", [9.0, -3.0, math.nan])
    def test_out_of_range_time_is_named(self, t):
        curve = RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0)
        for times in (t, np.array([[0.0, 1.0], [t, 8.0]])):
            with pytest.raises(DomainError, match=rf"bounds \[{t:g}, 8\] outside \[0, 8\]$"):
                accumulation(curve, times, 8.0)

    def test_equality_and_hash_by_value(self):
        curve = RateCurve(((0.0, 0.12), (1.5, 0.03)), 8.0)
        twin = RateCurve(((0, 0.12), (1.5, 0.03)), 8.0)
        assert curve == twin and hash(curve) == hash(twin)
        assert curve != RateCurve(((0.0, 0.12), (1.5, 0.04)), 8.0)


class TestFloatIntegral:
    """A float t0 is read from the curve's pieces with plain comparisons; it must give
    the bits of the same time's element in an array call, and the same errors."""

    CURVES = [RateCurve.flat(0.07, 8.0), RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0)]

    @staticmethod
    def times(curve):
        marks = [start for start, _ in curve.segments] + [curve.horizon]
        near = {v for m in marks for v in (math.nextafter(m, -math.inf), m,
                                           math.nextafter(m, math.inf))}
        return [-0.0] + sorted(v for v in near if 0.0 <= v <= curve.horizon)

    @pytest.mark.parametrize("curve", CURVES, ids=["flat", "three_segments"])
    def test_float_is_the_array_element_bit_for_bit(self, curve):
        times = self.times(curve)
        for t1 in times:
            lower = [t0 for t0 in times if t0 <= t1]
            want = curve.integral(np.array(lower), t1).tolist()
            for t0, w in zip(lower, want):
                for t in (t0, np.float64(t0)):
                    assert float(curve.integral(t, t1)).hex() == w.hex(), (t0, t1)

    @pytest.mark.parametrize("curve", CURVES, ids=["flat", "three_segments"])
    @pytest.mark.parametrize("t0, t1", [(math.nan, 8.0), (0.0, math.nan), (-1e-300, 8.0),
                                        (5.0, 3.0), (0.0, 8.0 + 2e-12)])
    def test_invalid_float_raises_as_an_array_does(self, curve, t0, t1):
        with pytest.raises(DomainError) as array_error:
            curve.integral(np.array([t0]), t1)
        for t in (t0, np.float64(t0)):
            with pytest.raises(DomainError) as float_error:
                curve.integral(t, t1)
            assert str(float_error.value) == str(array_error.value)

    def test_pieces_change_no_equality_hash_or_repr(self):
        curve = self.CURVES[1]
        twin = RateCurve(((0, 0.12), (1.5, 0.03), (5, 0.21)), 8.0)
        assert curve == twin and hash(curve) == hash(twin)
        assert repr(curve) == ("RateCurve(segments=((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), "
                               "horizon=8.0)")
        longer = dataclasses.replace(curve, horizon=10.0)
        assert longer != curve and longer.segments == curve.segments
        assert longer.integral(8.0, 10.0) == pytest.approx(0.42, rel=1e-15)
        assert longer.integral(np.array([8.0]), 10.0).tolist() == [longer.integral(8.0, 10.0)]


class TestClaimMoments:
    def test_exponential_unit(self):
        dist = Exponential(1.0)
        assert (dist.mean, dist.second_moment) == (1.0, 2.0)

    def test_exponential_two(self):
        dist = Exponential(2.0)
        assert (dist.mean, dist.second_moment) == (0.5, 0.5)

    def test_uniform_quadrature_vs_analytic(self):
        # oracle: direct quadrature of y dF and y^2 dF with density 1/2 on (0, 2)
        m1 = integrate.quad(lambda y: y * 0.5, 0.0, 2.0)[0]
        m2 = integrate.quad(lambda y: y * y * 0.5, 0.0, 2.0)[0]
        dist = uniform_claims()
        a_y, sig2 = dist.mean, dist.second_moment
        assert a_y == pytest.approx(m1, abs=1e-9)
        assert sig2 == pytest.approx(m2, abs=1e-9)
        assert (m1, m2) == pytest.approx((1.0, 4.0 / 3.0), abs=1e-12)

    def test_exponential_requires_positive_rate(self):
        with pytest.raises(DomainError):
            Exponential(0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_exponential_requires_finite_rate(self, beta):
        with pytest.raises(DomainError, match="finite"):
            Exponential(beta)


def exact_exponential_below(beta, d):
    """(m1_below, m2_below) of Exponential(beta) at d, exact for beta d <= 0.5:
    1 - e^-x (1 + x) and 1 - e^-x (1 + x + x^2/2), x = beta d, as their
    power series summed in rationals."""
    b = Fraction(beta)
    x = b * Fraction(d)
    p2 = sum((-1) ** j * (j - 1) * x**j / math.factorial(j) for j in range(2, 40))
    p3 = sum((-1) ** (j + 1) * (1 - j + Fraction(j * (j - 1), 2)) * x**j / math.factorial(j)
             for j in range(3, 40))
    return float(p2 / b), float(2 * p3 / b**2)


class TestExponentialMomentsBelow:
    @pytest.mark.parametrize("beta", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("x", [1e-9, 7e-5, 1e-3, 0.1, 0.3, math.nextafter(0.5, 0.0)])
    def test_series_below_the_cutoff(self, beta, x):
        # the closed forms cancel here: at beta d = 1e-9 they kept no digit
        d = x / beta
        tm = Exponential(beta).truncated(d)
        m1, m2 = exact_exponential_below(beta, d)
        assert tm.m1_below == pytest.approx(m1, rel=1e-14, abs=0.0)
        assert tm.m2_below == pytest.approx(m2, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("x", [0.5, 0.7, 2.3936, 30.0])
    def test_closed_form_from_the_cutoff_on(self, x):
        beta = 1.7
        d = x / beta
        s = np.exp(-beta * d)
        tm = Exponential(beta).truncated(d)
        assert tm.m2_below == 2.0 / beta**2 - s * (d * d + 2.0 * d / beta + 2.0 / beta**2)
        assert tm.m1_below == 1.0 / beta - s * (d + 1.0 / beta)
        if x == 0.5:
            m1, m2 = exact_exponential_below(beta, d)
            assert (tm.m1_below, tm.m2_below) == pytest.approx((m1, m2), rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("d", [800.0, 1e160, math.inf])
    def test_limits_where_survival_underflows(self, d):
        # S(d) = 0: the moments below d are the full ones; d^2 overflows from 1.3e154
        beta = 1.7
        law = Exponential(beta)
        for tm in (law.truncated(d), law.truncated(np.array([0.5, d]))):
            assert np.all(np.isfinite([tm.m1_below, tm.m2_below, tm.excess_mean,
                                       tm.excess_sq, tm.mean_excess]))
            assert np.atleast_1d(tm.m2_below)[-1] == 2.0 / beta**2
            assert np.atleast_1d(tm.m1_below)[-1] == 1.0 / beta

    @pytest.mark.parametrize("law", [Exponential(0.8),
                                     GenericClaims(lambda y: min(max(y / 2.0, 0.0), 1.0))],
                             ids=["exponential", "uniform_0_2"])
    @pytest.mark.parametrize("d", [-1.0, math.nan, np.array([-1.0, 1.0]),
                                   np.array([1.0, math.nan])],
                             ids=["negative", "nan", "negative_in_array", "nan_in_array"])
    def test_negative_or_nan_deductible_raises(self, law, d):
        # Exponential read the array [-1, 1] as S = e and m2_below = 1 - e, and NaN
        # as NaN moments
        with pytest.raises(DomainError, match="deductible must be a non-negative number"):
            law.truncated(d)

    def test_array_equals_scalar(self):
        law = Exponential(0.8)
        ds = np.array([0.0, 1e-9, 0.3, 0.62, 0.625, 4.0])
        tm = law.truncated(ds)
        for i, d in enumerate(ds.tolist()):
            one = law.truncated(d)
            assert (tm.m1_below[i], tm.m2_below[i]) == (one.m1_below, one.m2_below)


class TestGenericClaimsTable:
    """Layer moments of a CDF-given law from its one table."""

    @pytest.mark.parametrize("probe,cdf", [
        (0.7, lambda y: min(max(y / 2.0, 0.0), 1.0)),
        (0.7, erlang2_cdf),
        # the kink at 1/3 falls between two nodes
        (1.0 / 3.0, lambda y: min(max(3.0 * y, 0.0), 1.0)),
    ])
    def test_table_within_stated_bound_of_quadrature(self, probe, cdf):
        # deductibles across [0, tail cut) and through the cell holding ``probe``
        law = GenericClaims(cdf)
        end = law.tail_cut()
        h = end / (_TABLE_NODES - 1)
        ds = np.concatenate((np.linspace(0.0, end, 37, endpoint=False),
                             math.floor(probe / h) * h + h * np.linspace(0.0, 1.0, 9)))
        tm = law.truncated(ds)
        surv = lambda y: 1.0 - cdf(y)
        for d, em, esq, s in zip(ds, tm.excess_mean, tm.excess_sq, tm.survival):
            em_ref = integrate.quad(surv, d, end, points=[probe], epsabs=1e-14,
                                    epsrel=1e-13, limit=200)[0]
            esq_ref = 2.0 * integrate.quad(lambda y: (y - d) * surv(y), d, end, points=[probe],
                                           epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            assert abs(em - em_ref) <= max(1e-8, 1e-8 * em_ref), d
            assert abs(esq - esq_ref) <= max(1e-8, 1e-8 * esq_ref), d
            assert s == surv(d)

    @pytest.mark.parametrize("cdf", [lambda y: min(max(y / 2.0, 0.0), 1.0), erlang2_cdf],
                             ids=["uniform_0_2", "erlang2_rate2"])
    def test_moments_are_the_table_at_zero(self, cdf):
        law = GenericClaims(cdf)
        tm = law.truncated(0.0)
        assert tm.m1_below == 0.0 and tm.m2_below == 0.0
        assert (tm.excess_mean, tm.excess_sq) == (law.mean, law.second_moment)
        # quadrature as the oracle of the stated bound
        end = law.tail_cut()
        surv = lambda y: 1.0 - cdf(y)
        mean_ref = integrate.quad(surv, 0.0, end, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        m2_ref = integrate.quad(lambda y: 2.0 * y * surv(y), 0.0, end, epsabs=1e-14,
                                epsrel=1e-13, limit=200)[0]
        assert abs(law.mean - mean_ref) <= max(1e-8, 1e-8 * mean_ref)
        assert abs(law.second_moment - m2_ref) <= max(1e-8, 1e-8 * m2_ref)

    @pytest.mark.parametrize("cdf,dmrl", [
        (lambda y: min(max(y / 2.0, 0.0), 1.0), True),
        (erlang2_cdf, True),
        (lambda y: 0.0 if y <= 0.0 else 1.0 - (1.0 + y) ** -8, False),  # Lomax(8, 1)
    ], ids=["uniform_0_2", "erlang2_rate2", "lomax8"])
    def test_mean_excess_bounds_hold_between_nodes(self, cdf, dmrl):
        # m(d) at deductibles between the table's nodes, wherever it is resolved
        law = GenericClaims(cdf)
        m_lo, m_hi = law.mean_excess_bounds
        end = law.tail_cut()
        ds = np.concatenate((np.linspace(0.0, end, _TABLE_NODES),
                             np.random.default_rng(3).uniform(0.0, end, 20000)))
        tm = law.truncated(ds)
        resolved = (tm.survival > 0.0) & (tm.survival >= 1e6 * law.cut_survival)
        m = tm.mean_excess[resolved]
        assert m_lo == 0.0
        assert np.all(m <= m_hi)
        assert m.max() == pytest.approx(m_hi, rel=1e-3)
        if dmrl:  # a decreasing mean residual life peaks at d = 0
            assert m_hi == pytest.approx(law.mean * (1.0 + 1e-6), rel=1e-12)

    def test_exponential_mean_excess_bounds_are_exact(self):
        assert Exponential(4.0).mean_excess_bounds == (0.25, 0.25)

    def test_array_call_equals_scalar_calls(self):
        law = GenericClaims(erlang2_cdf)
        ds = np.array([[0.0, 0.37, 1.0], [2.5, 15.999, 40.0]])
        tm = law.truncated(ds)
        for i, d in np.ndenumerate(ds):
            one = law.truncated(float(d))
            for name in ("m2_below", "excess_mean", "survival", "m1_below", "excess_sq"):
                assert getattr(tm, name)[i] == getattr(one, name), (name, d)

    @pytest.mark.parametrize("cdf", [
        lambda y: min(max(y / 2.0, 0.0), 1.0),
        erlang2_cdf,
        lambda y: 0.0 if y <= 0.0 else 1.0 - (1.0 + y) ** -8,  # Lomax(8, 1)
    ], ids=["uniform_0_2", "erlang2_rate2", "lomax8"])
    def test_a_float_reads_an_arrays_bits(self, cdf):
        # a float in [0, y_max), np.float64 too, is read in pure Python; y_max, 2 y_max
        # and inf take the array path; each field has the bits of a one-element array's
        law = GenericClaims(cdf)
        end = law.tail_cut()
        h = end / (_TABLE_NODES - 1)
        ds = [0.0, 37 * h, 37.5 * h, np.nextafter(end, 0.0), end, 2.0 * end, math.inf]
        for d in ds + [np.float64(37.25 * h)]:
            one, arr = law.truncated(d), law.truncated(np.array([d]))
            for field in dataclasses.fields(one):
                got, want = getattr(one, field.name), getattr(arr, field.name)[0]
                assert type(got) is float, (field.name, d)
                assert np.float64(got).tobytes() == want.tobytes(), (field.name, d)

    def test_atom_raises_and_names_it(self):
        law = GenericClaims(lambda y: 0.7 * min(max(y / 2.0, 0.0), 1.0)
                            + (0.3 if y >= 0.9 else 0.0))
        with pytest.raises(IntegrationError, match=r"y = 0\.89"):
            law.truncated(0.5)

    def test_vectorized_cdf_called_once_per_build(self):
        shapes = []

        def cdf(y):
            shapes.append(np.shape(y))
            return -np.expm1(-np.maximum(y, 0.0))

        law = GenericClaims(cdf)
        shapes.clear()
        law.truncated(np.array([0.5, 1.0, 2.0]))
        law.truncated(np.array([0.25, 3.0]))
        assert shapes == [(_TABLE_NODES,), (3,), (2,)]

    def test_tail_cut_is_found_once(self):
        calls = []

        def cdf(y):
            calls.append(y)
            return erlang2_cdf(y)

        law = GenericClaims(cdf)
        calls.clear()
        assert law.tail_cut() == 16.0
        assert calls == []

    def test_scalar_cdf_on_arrays(self):
        law = uniform_claims()
        y = np.array([[0.5, 1.0], [-1.0, 3.0]])
        assert np.array_equal(law.cdf(y), [[0.25, 0.5], [0.0, 1.0]])
        assert np.array_equal(law.survival(y), [[0.75, 0.5], [1.0, 0.0]])

    def test_ppf_pinned(self):
        u = np.array([1e-9, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0 - 1e-12])
        assert uniform_claims().ppf(u) == pytest.approx(
            [2e-09, 0.02, 0.5, 1.0, 1.8, 1.998, 1.999999999998], rel=1e-14, abs=0.0)
        assert GenericClaims(erlang2_cdf).ppf(u) == pytest.approx(
            [1.5015015814681325e-07, 0.07427738672388864, 0.4806393831983987,
             0.8391734939977914, 1.9448600855896925, 4.616706739473107,
             15.54991355331425], rel=1e-14, abs=0.0)

    def test_negative_or_nan_deductible_rejected(self):
        for d in (-0.1, np.array([0.2, math.nan])):
            with pytest.raises(DomainError):
                uniform_claims().truncated(d)

    def test_nan_cdf_rejected_at_build(self, base_params):
        # NaN on a sliver that holds one table node: the double-spacing check
        # cannot see it, since every comparison with NaN is False
        from reinsgame.reaction import general_equilibrium, reaction_xi1

        def holed(y):
            return math.nan if 3.0 < y < 3.001 else erlang2_cdf(y)

        law = GenericClaims(holed)
        params = dataclasses.replace(base_params, claims=law)
        for solve in (lambda: law.mean, lambda: law.truncated(0.5),
                      lambda: reaction_xi1(0.4, params, 0.0),
                      lambda: general_equilibrium(params, 0.0)):
            with pytest.raises(DomainError, match=r"not finite at y = 3\.00098"):
                solve()
        # an array CDF that is NaN at y = 0 names the first node
        law = GenericClaims(lambda y: np.where(y > 0.0, 1.0 - np.exp(-y), math.nan))
        with pytest.raises(DomainError, match="not finite at y = 0$"):
            law.second_moment


class TestNumpyRulesMatchScipy:
    """The reverse cumulative Simpson rule and the ppf's PCHIP, SciPy's bit for bit."""

    @pytest.mark.parametrize("shape", [(3,), (4,), (5,), (6,), (2, 201), (2, 3201),
                                       (3, 2001), (16385,)])
    def test_tail_integral_is_reversed_cumulative_simpson(self, shape):
        rng = np.random.default_rng(shape[-1])
        for _ in range(20):
            f, h = rng.normal(size=shape) * rng.uniform(0.1, 10.0), rng.uniform(1e-4, 2.0)
            reference = integrate.cumulative_simpson(f[..., ::-1], dx=h, initial=0.0)[..., ::-1]
            got = _tail_integral(f, h)
            assert got.shape == reference.shape
            assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("cdf", [
        lambda y: min(max(y / 2.0, 0.0), 1.0),
        erlang2_cdf,
        lambda y: 0.0 if y <= 0.0 else 1.0 - (1.0 + y) ** -8,  # Lomax(8, 1)
    ], ids=["uniform_0_2", "erlang2_rate2", "lomax8"])
    def test_ppf_is_pchip_interpolator(self, cdf):
        law = GenericClaims(cdf)
        fvals, idx = np.unique(law._layer_table()[0][::4], return_index=True)
        spline = interpolate.PchipInterpolator(fvals, law._nodes()[::4][idx])
        top = law.cdf(law.tail_cut())
        # seeded draws, every spline node, and both clip ends from either side
        u = np.concatenate([np.random.default_rng(11).random(200_000), fvals,
                            [-0.5, 0.0, top, 1.5]])
        assert law.ppf(u).tobytes() == spline(np.clip(u, 0.0, top)).tobytes()


class TestAdmissibleBox:
    def test_reference_box(self, base_params):
        (lo1, hi1), (lo2, hi2) = admissible_box(base_params)
        assert (lo1, hi1) == (pytest.approx(0.1), pytest.approx(0.9))
        assert (lo2, hi2) == (0.1, 0.9)

    def test_scaling_in_beta(self, base_params):
        params = dataclasses.replace(base_params, claims=Exponential(2.0))
        (lo1, hi1), (lo2, hi2) = admissible_box(params)
        assert (lo1, hi1) == (pytest.approx(0.2), pytest.approx(1.8))
        assert (lo2, hi2) == (0.1, 0.9)


class TestPremiumRates:
    def test_reference_point(self, base_params, base_eq):
        p1, p2 = premium_rates(base_eq.point(), base_eq.response, base_params)
        assert p2 == pytest.approx(0.12619, abs=5e-5)
        assert p1 == pytest.approx(0.28784, abs=1e-4)

    def test_reference_point_quadrature_oracle(self, base_params, base_eq):
        # oracle: numeric expectations of the layered indemnities under exp(1);
        # the exp(1) tail beyond 60 carries less than 1e-26 mass
        from reinsgame.response import indemnity
        resp = base_eq.response

        def expect(component, power=1):
            f = lambda y: indemnity(y, resp)[component] ** power * math.exp(-y)
            return (integrate.quad(f, 0, resp.d, limit=200)[0]
                    + integrate.quad(f, resp.d, 60.0, limit=200)[0])

        p1, p2 = premium_rates(base_eq.point(), resp, base_params)
        assert p1 == pytest.approx(expect(0) + base_eq.xi1_star * expect(0, 2), abs=1e-9)
        assert p2 == pytest.approx((1 + base_eq.xi2_star) * expect(1), abs=1e-9)

    def test_full_cession_reprices_whole_book(self, base_params):
        point = PremiumPoint(0.5, base_params.theta, 0.0)
        _, p2 = premium_rates(point, full_cession_to_r2(), base_params)
        assert p2 == pytest.approx(insurer_premium_rate(base_params), rel=1e-12)

    def test_zero_contract(self, base_params):
        point = PremiumPoint(0.3, 0.4, 0.0)
        assert premium_rates(point, no_reinsurance(), base_params) == (0.0, 0.0)

    def test_p2_linear_in_loading(self, base_params, base_eq):
        resp = base_eq.response
        vals = []
        for xi2 in (0.2, 0.4, 0.8):
            _, p2 = premium_rates(PremiumPoint(base_eq.xi1_star, xi2, 0.0), resp,
                                  base_params)
            vals.append(p2 / (1.0 + xi2))
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)


class TestMarketParams:
    def test_rejects_bad_loadings(self, base_params):
        with pytest.raises(ConfigError):
            dataclasses.replace(base_params, theta=0.9, eta=0.1)

    def test_rejects_negative_gamma(self, base_params):
        with pytest.raises(ConfigError):
            dataclasses.replace(base_params, gamma_I=-1.0)

    def test_rejects_short_curve(self, base_params):
        with pytest.raises(ConfigError):
            dataclasses.replace(base_params, rho_I=RateCurve.flat(0.1, 4.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["T", "lam", "theta", "eta", "gamma_I", "gamma_R1",
                                      "gamma_R2", "x0_I", "x0_R1", "x0_R2"])
    def test_rejects_non_finite_value(self, base_params, name, value):
        with pytest.raises(ConfigError, match=name):
            dataclasses.replace(base_params, **{name: value})

    @pytest.mark.parametrize("key", ["rho_I", "gamma_I"])
    def test_rejects_a_bool_rate_or_gamma(self, key):
        # rho_I=True built a flat curve at rate 1.0
        with pytest.raises(ConfigError, match=key):
            default_market_params(**{key: True})

    def test_lambda_zero_allowed(self, base_params):
        assert dataclasses.replace(base_params, lam=0.0).lam == 0.0
