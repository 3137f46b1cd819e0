import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from reinsgame.errors import ConfigError, DomainError, IntegrationError
from reinsgame.market import (_TABLE_NODES, DEFINITION21, Exponential, GenericClaims,
                              PremiumPoint, RateCurve, accumulation, admissible_box,
                              insurer_premium_rate, premium_rates)
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

    def test_cumulative_matches_integral(self):
        curve = RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0)
        ts = np.linspace(0.0, 8.0, 17)
        cum = curve.cumulative(ts)
        for t, c in zip(ts, cum):
            assert c == pytest.approx(curve.integral(0.0, t), abs=1e-14)

    def test_cached_cumulative_leaves_equality_and_hash(self):
        curve = RateCurve(((0.0, 0.12), (1.5, 0.03)), 8.0)
        twin = RateCurve(((0, 0.12), (1.5, 0.03)), 8.0)
        assert curve == twin and hash(curve) == hash(twin)
        assert curve != RateCurve(((0.0, 0.12), (1.5, 0.04)), 8.0)


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

    def test_array_call_equals_scalar_calls(self):
        law = GenericClaims(erlang2_cdf)
        ds = np.array([[0.0, 0.37, 1.0], [2.5, 15.999, 40.0]])
        tm = law.truncated(ds)
        for i, d in np.ndenumerate(ds):
            one = law.truncated(float(d))
            for name in ("m2_below", "excess_mean", "survival", "m1_below", "excess_sq"):
                assert getattr(tm, name)[i] == getattr(one, name), (name, d)

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


class TestAdmissibleBox:
    def test_reference_box(self, base_params):
        (lo1, hi1), (lo2, hi2) = admissible_box(base_params)
        assert (lo1, hi1) == (pytest.approx(0.1), pytest.approx(0.9))
        assert (lo2, hi2) == (0.1, 0.9)

    def test_definition21_convention(self, base_params):
        params = dataclasses.replace(base_params, bound_convention=DEFINITION21)
        (lo1, hi1), _ = admissible_box(params)
        # a_Y / sigma2 = (1/beta) / (2/beta^2) = beta/2
        assert (lo1, hi1) == (pytest.approx(0.05), pytest.approx(0.45))

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

    def test_lambda_zero_allowed(self, base_params):
        assert dataclasses.replace(base_params, lam=0.0).lam == 0.0
