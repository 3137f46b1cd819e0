import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from reinsgame.config import default_market_params
from reinsgame.errors import DomainError, RangeError
from reinsgame.expo import (G_fun, G_inv, Regime, constrained_equilibrium, e_fun,
                            g_fun, g_range, h1, h1_domain, h1_inv, h2,
                            unconstrained_fixed_point)
from reinsgame.market import Exponential, MarketParams, RateCurve, admissible_box
from reinsgame import reaction
from reinsgame.reaction import reaction_xi1, reaction_xi2
from tests.conftest import with_beta
from tests.test_broad_box import broad_box_point


class TestEFun:
    def test_unit_value(self):
        assert e_fun(1.0) == pytest.approx(2.0 * math.e - 5.0, rel=1e-14)

    def test_reference_value(self):
        assert e_fun(2.3936) == pytest.approx(1.6387955495575652, rel=1e-12)

    def test_series_matches_closed_form_at_crossover(self):
        # both sides of the series cutoff x = 0.5 against the exact sum: the
        # series is exact to rounding below it, and the closed form, whose
        # cancellation grows like 1/x^3, keeps about 14 digits from it on
        def exact(x):
            q = Fraction(x)
            return float(sum(2 * q**n / math.factorial(n + 2) for n in range(1, 80)))
        below = (1e-9, 9e-4, 1.1e-3, 0.01, 0.1, 0.3, math.nextafter(0.5, 0.0))
        for x in below:
            assert e_fun(x) == pytest.approx(exact(x), rel=1e-15, abs=0.0)
        for x in (0.5, math.nextafter(0.5, 1.0), 0.55, 1.0, 2.3936, 5.0):
            assert e_fun(x) == pytest.approx(exact(x), rel=2e-14, abs=0.0)

    def test_small_argument_limit(self):
        assert e_fun(1e-9) == pytest.approx(1e-9 / 3.0, rel=1e-6, abs=0.0)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(31)
        xs = np.sort(rng.uniform(1e-4, 15.0, 300))
        vals = [e_fun(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            e_fun(0.0)
        with pytest.raises(DomainError):
            e_fun(-1.0)


class TestGFun:
    def test_value_at_zero(self):
        # (-(2C-1) + sqrt((2C-1)^2 + 8C))/2 collapses to 1 for every C
        for c in (0.25, 1.0, 3.7):
            assert g_fun(0.0, c) == pytest.approx(1.0, rel=1e-12)

    def test_large_argument_limit(self):
        assert g_fun(1e15, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-9)
        lim, _ = g_range(0.4)
        assert g_fun(1e15, 0.4) == pytest.approx(lim, rel=1e-9)

    def test_reference_value(self):
        assert g_fun(1.63913, 1.0) == pytest.approx(0.78726, abs=1e-4)
        assert g_fun(1.63913, 1.0) == pytest.approx(0.7872542926393171, rel=1e-12)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(32)
        for c in (0.3, 1.0, 2.5):
            xs = np.sort(rng.uniform(0.0, 30.0, 200))
            vals = [g_fun(x, c) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            g_fun(-0.1, 1.0)
        with pytest.raises(DomainError):
            g_fun(1.0, 0.0)


class TestGComposition:
    def test_reference_value(self):
        assert G_fun(2.3936, 1.0) == pytest.approx(0.78725, abs=5e-5)

    def test_inverse_identity(self):
        for x in (0.1, 1.0, 5.0):
            assert G_inv(G_fun(x, 1.0), 1.0) == pytest.approx(x, abs=1e-9)

    def test_inverse_reference(self):
        assert G_inv(0.78725, 1.0) == pytest.approx(2.3936, abs=5e-4)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.05, 20.0, 150)
        vals = [G_fun(x, 1.0) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_argument_is_the_limit(self):
        # e(709) ~ 3e302: the composed quadratic overflowed here (0.0 and nan)
        for c in (1e5, 1e6):
            assert G_fun(709.0, c) == pytest.approx(g_range(c)[0], rel=1e-12)
        assert G_fun(710.0, 1.0) == pytest.approx(g_range(1.0)[0], rel=1e-12)

    @pytest.mark.parametrize("c", [1e-310, 1e-320])
    def test_subnormal_c_matches_the_composed_form(self, c):
        # rho = G/(2C) overflows here for e < 1, and G read as 2C rho was inf
        for x in (0.1, 1.0):
            assert G_fun(x, c) == pytest.approx(g_fun(e_fun(x), c), rel=1e-14, abs=0.0)
        assert 0.0 < G_fun(3.0, c) < 1e-300

    def test_e_beyond_exp_range(self):
        # e(x) ~ 2 e^x / x^2 stays finite past math.exp's overflow at 709.78
        ratio = e_fun(710.0) / e_fun(709.0)
        assert ratio == pytest.approx(math.e * (709.0 / 710.0) ** 2, rel=1e-12)
        assert e_fun(800.0) == math.inf

    def test_inverse_round_trip_across_c(self):
        for c in (0.05, 1.0, 1e3, 1e5):
            for x in (0.5, 5.0):
                assert G_inv(G_fun(x, c), c) == pytest.approx(x, rel=1e-9)

    def test_range_errors(self):
        lim_inf, g0 = g_range(1.0)
        with pytest.raises(RangeError):
            G_inv(g0 * 1.01, 1.0)
        with pytest.raises(RangeError):
            G_inv(lim_inf * 0.99, 1.0)
        with pytest.raises(RangeError):
            G_inv(g0, 1.0)  # boundary itself is rejected


class TestReactionCurvesClosedForm:
    def test_h1_reference(self, base_params):
        assert h1(0.28269, base_params, 0.0) == pytest.approx(0.38224, abs=5e-5)

    def test_h2_reference(self, base_params):
        assert h2(0.28269, base_params, 0.0) == pytest.approx(0.38224, abs=5e-5)

    def test_h2_small_xi1_limit(self, base_params):
        a_i = base_params.gamma_I * base_params.accum("I", 0.0)
        a_r2 = base_params.gamma_R2 * base_params.accum("R2", 0.0)
        assert h2(1e-12, base_params, 0.0) == pytest.approx(
            a_r2 / base_params.claims.beta, rel=1e-9)
        assert a_i == pytest.approx(0.22255, abs=5e-5)

    def test_domain_endpoints(self, base_params):
        lo, hi = h1_domain(base_params, 0.0)
        assert lo == pytest.approx(0.22255, abs=1e-5)
        assert hi == pytest.approx(0.33383, abs=1e-5)

    def test_h1_strictly_increasing(self, base_params):
        lo, hi = h1_domain(base_params, 0.0)
        xs = np.linspace(lo * (1 + 1e-6), hi * (1 - 1e-6), 100)
        vals = [h1(x, base_params, 0.0) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_h2_without_cancellation_when_a_i_dwarfs_xi1(self):
        # a point of the broad-box draw where a_I/xi1 ~ 1e9: written as
        # 1 + C_R2 - a_I/(a_I + 2 xi1), h2 lost 8 digits (0.12296088446067992)
        a_i, a_r2 = 196992567.3816864, 0.01511458498448647
        xi1, beta = 0.1789927596843803, 3.034299161739158
        params = default_market_params(gamma_I=a_i, gamma_R2=a_r2, beta=beta,
                                       rho_I=[(0.0, 0.0)], rho_R2=[(0.0, 0.0)])
        q = [Fraction(v) for v in (a_i, a_r2, xi1, beta)]
        exact = q[0] / q[3] * (q[1] / q[0] + 2 * q[2] / (q[0] + 2 * q[2]))
        assert float(exact) == 0.12296088283162168
        assert h2(xi1, params, 0.0) == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_h2_strictly_increasing(self, base_params):
        xs = np.linspace(0.05, 2.0, 100)
        vals = [h2(x, base_params, 0.0) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_h1_inv_reference(self, base_params):
        assert h1_inv(0.38225, base_params, 0.0) == pytest.approx(0.28269, abs=5e-5)

    def test_h1_inv_identity(self, base_params):
        lo, hi = h1_domain(base_params, 0.0)
        for x in np.linspace(lo * 1.01, hi * 0.99, 9):
            assert h1_inv(h1(x, base_params, 0.0), base_params, 0.0) == \
                pytest.approx(x, abs=1e-9)

    def test_h1_inv_monotone(self, base_params):
        vals = [h1_inv(v, base_params, 0.0) for v in np.linspace(0.1, 1.2, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_h1_outside_domain_raises(self, base_params):
        lo, hi = h1_domain(base_params, 0.0)
        with pytest.raises(RangeError):
            h1(lo * 0.5, base_params, 0.0)
        with pytest.raises(RangeError):
            h1(hi * 1.5, base_params, 0.0)

    def test_requires_exponential_claims(self, base_params):
        from reinsgame.market import GenericClaims
        params = dataclasses.replace(
            base_params, claims=GenericClaims(lambda y: min(max(y / 2, 0.0), 1.0)))
        with pytest.raises(DomainError):
            h2(0.3, params, 0.0)


class TestUnconstrainedFixedPoint:
    def test_reference_values(self, base_params):
        xi1_bar, xi2_bar = unconstrained_fixed_point(base_params, 0.0)
        assert xi1_bar == pytest.approx(0.28269, abs=5e-5)
        assert xi2_bar == pytest.approx(0.38225, abs=5e-5)

    def test_curves_agree_at_fixed_point(self, base_params):
        xi1_bar, xi2_bar = unconstrained_fixed_point(base_params, 0.0)
        assert h1(xi1_bar, base_params, 0.0) == pytest.approx(xi2_bar, abs=1e-9)
        assert h2(xi1_bar, base_params, 0.0) == pytest.approx(xi2_bar, abs=1e-12)

    def test_xi1_invariant_in_beta(self, base_params):
        ref = unconstrained_fixed_point(base_params, 0.0)[0]
        for beta in (0.5, 2.0):
            val = unconstrained_fixed_point(with_beta(base_params, beta), 0.0)[0]
            assert abs(val - ref) < 1e-9

    def test_xi2_scales_inversely_in_beta(self, base_params):
        ref = unconstrained_fixed_point(base_params, 0.0)[1]
        half = unconstrained_fixed_point(with_beta(base_params, 0.5), 0.0)[1]
        assert half == pytest.approx(2.0 * ref, rel=1e-9)
        assert half == pytest.approx(0.76450, abs=1e-4)

    @pytest.mark.parametrize("index, xi1", [
        (1304, "1.813843196398791207173327247423822844054016065864"),
        (2495, "67.397402713646474966444782508580691261601770135016"),
        (2559, "10.556282995610789931080403230153565315647653386129")])
    def test_steep_g_at_the_root(self, index, xi1):
        # seed-5 broad-box points where G is steep at the x root, so G(x) there
        # loses digits that (x - a)/b keeps (a_R1/G(x) was 4.3e-14 off at 2495);
        # the references are 50-digit mpmath solves on the same coefficients
        u = np.random.default_rng(5).uniform(size=(4000, 11))[index]
        params, t = broad_box_point(u.tolist())
        assert unconstrained_fixed_point(params, t)[0] == pytest.approx(
            float(xi1), rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("gamma_r1, gamma_r2, xi1", [
        (1e-300, 1e-270, "1.4027423763815447255e-270"),
        (1e-150, 1e-120, "1.4027423763815446065e-120"),
        (1e-60, 1e-30, "1.4027423763815448711e-30")])
    def test_g_falling_by_orders_at_the_root(self, gamma_r1, gamma_r2, xi1):
        # C_R1 is tiny, so G falls from O(1) to O(C_R1) within an ulp of the root:
        # a_R1/G(x) read about 1e-151, 1e-76 and 2e-17 here (800-digit references)
        params = default_market_params(gamma_R1=gamma_r1, gamma_R2=gamma_r2)
        assert unconstrained_fixed_point(params, 0.0)[0] == pytest.approx(
            float(xi1), rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("gamma_r2", [1e30, 1e300])
    def test_overflowing_slope_takes_the_root_at_infinity(self, gamma_r2):
        # C_R2/C_R1 exceeds the largest float, so the bracket's upper end overflows;
        # capped there, it holds the root d ~ 1e30, where S(d) = 0 and rho = rho_lo
        params = default_market_params(gamma_R1=1e-300, gamma_R2=gamma_r2)
        eq = constrained_equilibrium(params, 0.0)
        assert eq.regime is Regime.XI2_CAP_ONLY
        assert (eq.xi1_star, eq.xi2_star) == pytest.approx((0.10916338606203772, 0.9),
                                                            rel=1e-12, abs=0.0)

    def test_single_sign_change_on_bracket(self, base_params):
        lo, hi = h1_domain(base_params, 0.0)
        xs = np.linspace(lo * (1 + 1e-9), hi * (1 - 1e-9), 400)
        diffs = [h1(x, base_params, 0.0) - h2(x, base_params, 0.0) for x in xs]
        changes = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
        assert changes == 1


class TestConstrainedEquilibrium:
    def test_interior_case(self, base_params, base_eq):
        assert base_eq.regime is Regime.INTERIOR
        assert base_eq.xi1_star == pytest.approx(0.28269, abs=5e-5)
        assert base_eq.xi2_star == pytest.approx(0.38225, abs=5e-5)
        assert base_eq.unconstrained == pytest.approx(
            (base_eq.xi1_star, base_eq.xi2_star), abs=1e-9)

    def test_upper_right_corner(self, base_params):
        eq = constrained_equilibrium(with_beta(base_params, 0.2), 0.0)
        assert eq.regime is Regime.UPPER_RIGHT
        assert (eq.xi1_star, eq.xi2_star) == (pytest.approx(0.18), pytest.approx(0.9))

    def test_lower_left_corner(self, base_params):
        eq = constrained_equilibrium(with_beta(base_params, 4.5), 0.0)
        assert eq.regime is Regime.LOWER_LEFT
        assert (eq.xi1_star, eq.xi2_star) == (pytest.approx(0.45), pytest.approx(0.1))

    def test_corner_sliver_keeps_best_response_values(self, base_params):
        # just below the published corner threshold the tag is still the
        # corner case, but the formula pulls xi1* inward to the true best
        # response (the literal corner is not one)
        params = with_beta(base_params, 0.31)
        (lo1, hi1), _ = admissible_box(params)
        eq = constrained_equilibrium(params, 0.0)
        assert eq.regime is Regime.UPPER_RIGHT
        assert eq.xi2_star == 0.9
        assert eq.xi1_star < hi1
        assert eq.xi1_star == pytest.approx(h1_inv(0.9, params, 0.0), abs=1e-12)
        br1 = min(max(reaction_xi1(eq.xi2_star, params, 0.0), lo1), hi1)
        assert br1 == pytest.approx(eq.xi1_star, abs=1e-8)

    def test_xi2_cap_only(self, base_params):
        params = with_beta(base_params, 0.4)
        eq = constrained_equilibrium(params, 0.0)
        assert eq.regime is Regime.XI2_CAP_ONLY
        assert eq.xi2_star == 0.9
        (lo1, hi1), _ = admissible_box(params)
        assert lo1 < eq.xi1_star < hi1

    def test_xi1_floor_only(self, base_params):
        params = with_beta(base_params, 3.0)
        eq = constrained_equilibrium(params, 0.0)
        assert eq.regime is Regime.XI1_FLOOR_ONLY
        assert eq.xi1_star == pytest.approx(0.3)
        assert eq.xi2_star == pytest.approx(h2(0.3, params, 0.0), abs=1e-12)

    def test_always_inside_box(self, base_params):
        for beta in (0.15, 0.33, 0.41, 1.0, 2.9, 3.97, 6.0):
            params = with_beta(base_params, beta)
            (lo1, hi1), (lo2, hi2) = admissible_box(params)
            eq = constrained_equilibrium(params, 0.0)
            assert lo1 <= eq.xi1_star <= hi1
            assert lo2 <= eq.xi2_star <= hi2

    def test_boxed_mutual_best_response(self, base_params):
        for beta in (0.2, 0.4, 1.0, 3.0, 4.5):
            params = with_beta(base_params, beta)
            (lo1, hi1), (lo2, hi2) = admissible_box(params)
            eq = constrained_equilibrium(params, 0.0)
            br1 = min(max(reaction_xi1(eq.xi2_star, params, 0.0), lo1), hi1)
            br2 = min(max(reaction_xi2(eq.xi1_star, params, 0.0), lo2), hi2)
            assert br1 == pytest.approx(eq.xi1_star, abs=1e-8)
            assert br2 == pytest.approx(eq.xi2_star, abs=1e-8)

    def test_interior_focs_vanish(self, base_params, base_eq):
        from reinsgame.reaction import foc_residual_r1, foc_residual_r2
        assert abs(foc_residual_r1(base_eq.point(), base_params)) < 1e-8
        assert abs(foc_residual_r2(base_eq.point(), base_params)) < 1e-8

    def test_premiums_nonincreasing_in_time(self, base_params):
        ts = np.linspace(0.0, base_params.T, 21)
        eqs = [constrained_equilibrium(base_params, float(t)) for t in ts]
        xi1 = [e.xi1_star for e in eqs]
        xi2 = [e.xi2_star for e in eqs]
        assert all(a >= b - 1e-12 for a, b in zip(xi1, xi1[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(xi2, xi2[1:]))

    def test_regime_thresholds_in_beta(self, base_params):
        # bisection on the regime transition against the exact case boundaries
        from reinsgame.roots import bisect
        xi1_bar, xi2_bar = unconstrained_fixed_point(base_params, 0.0)

        def regime_at(beta):
            return constrained_equilibrium(with_beta(base_params, beta), 0.0).regime

        def locate(lo, hi):
            want = regime_at(lo)
            return bisect(lambda b: 1.0 if regime_at(b) is want else -1.0, lo, hi,
                          xtol=1e-10)

        assert locate(0.25, 0.38) == pytest.approx(xi1_bar / base_params.eta, abs=1e-8)
        assert locate(0.38, 0.6) == pytest.approx(xi2_bar / base_params.eta, abs=1e-8)
        assert locate(2.0, 3.5) == pytest.approx(xi1_bar / base_params.theta, abs=1e-8)


def flat_rate_params(T, gammas, beta, rhos):
    return MarketParams(
        T=T, lam=1.0, theta=0.1, eta=0.9,
        gamma_I=gammas[0], gamma_R1=gammas[1], gamma_R2=gammas[2],
        rho_I=RateCurve.flat(rhos[0], T), rho_R1=RateCurve.flat(rhos[1], T),
        rho_R2=RateCurve.flat(rhos[2], T), claims=Exponential(beta))


def assert_boxed_mutual_best_response(params, t, rel):
    (lo1, hi1), (lo2, hi2) = admissible_box(params)
    eq = constrained_equilibrium(params, t)
    assert math.isfinite(eq.xi1_star) and math.isfinite(eq.xi2_star)
    assert lo1 <= eq.xi1_star <= hi1 and lo2 <= eq.xi2_star <= hi2
    assert min(max(reaction_xi1(eq.xi2_star, params, t), lo1), hi1) == \
        pytest.approx(eq.xi1_star, rel=rel)
    assert min(max(reaction_xi2(eq.xi1_star, params, t), lo2), hi2) == \
        pytest.approx(eq.xi2_star, rel=rel)


def seeded_box_draw():
    # 200 points drawn as the benchmark's sweep_box workload draws them
    # (seed 7, batch 0): log-uniform risk aversions on [0.02, 1] and beta
    # on [0.25, 4], flat rates on [0, 0.2], T on [1, 10], t on [0, T)
    rng = np.random.default_rng([7, 0])
    for _ in range(200):
        g_i, g_r1, g_r2 = np.exp(rng.uniform(math.log(0.02), 0.0, 3))
        beta = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        rhos = [float(r) for r in rng.uniform(0.0, 0.2, 3)]
        T = float(rng.uniform(1.0, 10.0))
        t = float(rng.uniform(0.0, T))
        yield flat_rate_params(T, (float(g_i), float(g_r1), float(g_r2)), beta, rhos), t


# One point of each (three-case branch, xi2 clamp) pair tagged OtherBoundary,
# from the benchmark's sweep_box draw (seed 1): T, (gamma_I, gamma_R1,
# gamma_R2), beta, (rho_I, rho_R1, rho_R2), t
OTHER_BOUNDARY_POINTS = {
    ("cap", "inside"): (
        2.3547234737905973, (0.334298512447719, 0.5255778222294093, 0.06024652045532232),
        0.4540341343279492, (0.12786627601331757, 0.16101096662900194, 0.1927341745689942),
        1.1354768298456017),
    ("middle", "floor"): (
        4.682792227322452, (0.14811518440256008, 0.8238332306230863, 0.03515222776195466),
        3.4691874329972676, (0.062366290402097097, 0.08466528979451514, 0.16554051876408837),
        2.573633048820886),
    ("floor", "cap"): (
        6.517029709477364, (0.05908263361569019, 0.03749496389222662, 0.8890049500466783),
        1.0455589042780922, (0.023173122494154066, 0.1246979511075001, 0.15533662286845962),
        5.978056394557709),
    ("cap", "floor"): (
        9.870766353391211, (0.024003682776834914, 0.825131397741155, 0.04513774379329195),
        0.9413678792089781, (0.18417705064644238, 0.05069593652771112, 0.045476854516526014),
        8.927418863593832),
}


def other_boundary_point(pair):
    T, gammas, beta, rhos, t = OTHER_BOUNDARY_POINTS[pair]
    return flat_rate_params(T, gammas, beta, rhos), t


class TestOtherBoundary:
    @pytest.mark.parametrize("pair", list(OTHER_BOUNDARY_POINTS), ids="-".join)
    def test_pair_is_tagged_and_boxed(self, pair):
        params, t = other_boundary_point(pair)
        (lo1, hi1), (lo2, hi2) = admissible_box(params)
        eq = constrained_equilibrium(params, t)
        xi1_bar = eq.unconstrained[0]
        branch = "floor" if xi1_bar < lo1 else "middle" if xi1_bar <= hi1 else "cap"
        clamp2 = {lo2: "floor", hi2: "cap"}.get(eq.xi2_star, "inside")
        assert eq.regime is Regime.OTHER_BOUNDARY
        assert (branch, clamp2) == pair
        assert_boxed_mutual_best_response(params, t, rel=1e-8)


def assert_array_path_matches_scalar(params, ts):
    # the array path against the scalar reference, time by time
    eq = constrained_equilibrium(params, ts)
    regimes = []
    for i, t in enumerate(ts):
        ref = constrained_equilibrium(params, float(t))
        got = (eq.xi1_star[i], eq.xi2_star[i], eq.response.q[i], eq.response.d[i])
        want = (ref.xi1_star, ref.xi2_star, ref.response.q, ref.response.d)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert eq.regime[i] is ref.regime
        regimes.append(ref.regime)
    return regimes


class TestArrayPath:
    def test_reference_path(self, base_params):
        ts = np.linspace(0.0, base_params.T, 801)
        assert set(assert_array_path_matches_scalar(base_params, ts)) == {Regime.INTERIOR}

    def test_seeded_box_grids_and_pinned_points(self):
        seen = set()
        for params, t in seeded_box_draw():
            seen.update(assert_array_path_matches_scalar(
                params, np.append(np.linspace(0.0, params.T, 9), t)))
        for pair in OTHER_BOUNDARY_POINTS:
            params, t = other_boundary_point(pair)
            seen.update(assert_array_path_matches_scalar(params, np.array([t])))
        assert seen == set(Regime)

    @pytest.mark.parametrize("gammas", [dict(gamma_R2=1e177),
                                        dict(gamma_R1=1e-120, gamma_R2=1e180)])
    def test_iterates_where_survival_underflows(self, gammas):
        # the fixed point's bracket reaches deductibles where S(d) = 0 and d^2
        # overflows; R1's residual must read its limit there, not 0 * inf
        params = default_market_params(**gammas)
        assert_array_path_matches_scalar(params, np.linspace(0.0, params.T, 9))

    @pytest.mark.parametrize("gamma_r2", [1e-100, 1e-20, 1e-14, 1e-10])
    def test_small_gamma_r2_matches_scalar(self, gamma_r2):
        # small C_R2 (below rounding of 1 + C_R2 from 1e-16 on): the array fixed point
        # reads xi1 from R1's ratio at d, not back through a division by a_R2
        params = default_market_params(gamma_R2=gamma_r2)
        scalar = constrained_equilibrium(params, 0.0)
        grid = constrained_equilibrium(params, np.array([0.0]))
        got = (grid.xi1_star[0], grid.xi2_star[0], *(u[0] for u in grid.unconstrained))
        want = (scalar.xi1_star, scalar.xi2_star, *scalar.unconstrained)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert grid.regime == (scalar.regime,)

    def test_overflowing_bracket_takes_the_limit_on_both_paths(self):
        # C_R2/C_R1 exceeds the largest float, and so does the fixed point's upper end:
        # both paths cap it and find the root d ~ 1e30, where S(d) = 0
        params = default_market_params(gamma_R1=1e-300, gamma_R2=1e300)
        assert_array_path_matches_scalar(params, np.array([0.0, 4.0]))

    def test_overflowing_bracket_agrees_with_the_scalar_limit(self):
        # the array path raised DomainError here, naming C_R1 = 1e-299, C_R2 = 1e+31
        # and t = 4; both paths now give the scalar path's boxed point
        params = default_market_params(gamma_R1=1e-300, gamma_R2=1e30)
        grid = constrained_equilibrium(params, np.array([4.0, 0.0]))
        for i, t in ((1, 0.0), (0, 4.0)):
            scalar = constrained_equilibrium(params, t)
            assert grid.regime[i] is scalar.regime
            got = (grid.xi1_star[i], grid.xi2_star[i], *(u[i] for u in grid.unconstrained))
            assert got == pytest.approx((scalar.xi1_star, scalar.xi2_star, *scalar.unconstrained),
                                        rel=1e-15, abs=0.0)
        assert grid.regime[1] is Regime.XI2_CAP_ONLY
        assert (grid.xi1_star[1], grid.xi2_star[1]) == pytest.approx(
            (0.10916338606203772, 0.9), rel=1e-15, abs=0.0)
        assert (grid.unconstrained[0][1], grid.unconstrained[1][1]) == pytest.approx(
            (0.1112770464246234, 2.2255409284924678e30), rel=1e-15, abs=0.0)

    def test_subnormal_a_r1_keeps_the_root_on_both_paths(self):
        # from gamma_R1 = 1e-310 on a_R1 is subnormal and 1/(2C_R1) overflows, so the
        # brackets' upper ends are capped; the root d ~ 3 stays where S(d) is far from
        # 0 (xi1 and reaction_xi1(0.5) jumped to 0.1112770, the top of h1_domain, when
        # a solve in r = a_R1/xi1 read an overflowed bracket as the root at d = inf)
        def solved(gamma_r1):
            params = default_market_params(gamma_R1=gamma_r1)
            grid = constrained_equilibrium(params, np.array([0.0]))
            r1 = reaction._r1_reply(np.array([0.5]), params, np.array([0.0]))
            return (*unconstrained_fixed_point(params, 0.0), reaction_xi1(0.5, params, 0.0),
                    grid.unconstrained[0][0], grid.unconstrained[1][0], r1[0])
        want = solved(1e-290)
        assert want == pytest.approx((0.0674455027, 0.3065405442, 0.0914849845) * 2,
                                     rel=1e-9, abs=0.0)
        for gamma_r1 in (1e-309, 1e-310, 1e-315, 1e-320):
            assert solved(gamma_r1) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_gamma_scan_matches_scalar(self):
        # gamma_R1 x gamma_R2 over 1e-300..1e300 at t = 0: where C_R1 is tiny, R1's
        # ratio falls by orders of magnitude within an ulp of the root, and xi1 read
        # as a_R1/r(d) was off by up to 133 orders at 45 of these points; where
        # C_R2/C_R1 overflows (55 points), both paths cap the bracket's upper end
        solved = 0
        gammas = [10.0 ** k for k in range(-300, 301, 30)]
        for gamma_r1 in gammas:
            for gamma_r2 in gammas:
                params = default_market_params(gamma_R1=gamma_r1, gamma_R2=gamma_r2)
                try:
                    scalar = constrained_equilibrium(params, 0.0)
                except DomainError:
                    continue
                grid = constrained_equilibrium(params, np.array([0.0]))
                got = (grid.xi1_star[0], grid.xi2_star[0], *(u[0] for u in grid.unconstrained))
                want = (scalar.xi1_star, scalar.xi2_star, *scalar.unconstrained)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
                assert grid.regime == (scalar.regime,)
                solved += 1
        assert solved == 231

    @pytest.mark.parametrize("index", [1045, 2559])
    def test_steep_read_back_matches_scalar(self, index):
        # seed-5 broad-box points where the array solves' residual is steep at the
        # root: R1's reply at the scalar xi2* (4.2e-14 off read from r(d), point
        # 1045) and the fixed point's xi1 (3.5e-14, point 2559)
        u = np.random.default_rng(5).uniform(size=(4000, 11))[index]
        params, t = broad_box_point(u.tolist())
        scalar = constrained_equilibrium(params, t)
        grid = constrained_equilibrium(params, np.array([t]))
        assert grid.unconstrained[0][0] == pytest.approx(scalar.unconstrained[0], rel=1e-14,
                                                         abs=0.0)
        assert reaction_xi1(scalar.xi2_star, params, t) == pytest.approx(
            h1_inv(scalar.xi2_star, params, t), rel=1e-14, abs=0.0)

    def test_result_fields_are_arrays_over_t(self, base_params):
        ts = np.array([0.0, 4.0, 8.0])
        eq = constrained_equilibrium(base_params, ts)
        for field in (eq.xi1_star, eq.xi2_star, eq.response.q, eq.response.d,
                      eq.response.cap, eq.response.retention_limit, *eq.unconstrained):
            assert np.shape(field) == (3,)
        assert eq.regime == (Regime.INTERIOR,) * 3
        assert np.array_equal(eq.t, ts)

    def test_times_outside_horizon_or_not_1d_rejected(self, base_params):
        for bad in ([-0.1, 1.0], [0.0, base_params.T * 1.01], [0.0, math.nan], [[0.0]]):
            with pytest.raises(DomainError):
                constrained_equilibrium(base_params, np.array(bad))


class TestUnresolvableCoefficients:
    # C_R1 = 0 by underflow, C_R1 = 1e301 (R1's reply interval empty in floats) and
    # C_R2 = inf by overflow: unchecked, a scalar solve divides by zero or overflows
    # there, and an array solve's root bracket has an infinite end
    @pytest.mark.parametrize("gammas", [dict(gamma_I=1e300, gamma_R1=1e-300),
                                        dict(gamma_R1=1e300, gamma_R2=1e-300),
                                        dict(gamma_I=1e-300, gamma_R2=1e300)],
                             ids=["c_r1_zero", "c_r1_huge", "c_r2_infinite"])
    @pytest.mark.parametrize("t", [0.0, np.array([0.0, 4.0, 8.0])], ids=["scalar", "array"])
    def test_raise_domain_error(self, gammas, t):
        params = default_market_params(**gammas)
        with pytest.raises(DomainError, match="C_R1 = .* at t = 0: both must be positive"):
            constrained_equilibrium(params, t)


class TestAdmissibleBoxRobustness:
    def test_xi1_best_response_on_the_right_box_edge(self):
        # R1's best response to xi2* lies below its box, so xi1* is the
        # floor 0.199154, not the opposite edge 1.79239
        params = flat_rate_params(
            5.243636430180709,
            (0.020837887978882502, 0.02836078371940826, 0.3534624496123488),
            1.9915400244665955,
            (0.036533565367416566, 0.18817457793610443, 0.12158616369688631))
        t = 3.425782287664062
        eq = constrained_equilibrium(params, t)
        assert eq.xi1_star == pytest.approx(0.199154, abs=1e-6)
        assert_boxed_mutual_best_response(params, t, rel=1e-8)

    def test_seeded_box_points(self):
        for params, t in seeded_box_draw():
            assert_boxed_mutual_best_response(params, t, rel=1e-8)

    def test_r1_reaction_matches_h1_inv(self):
        # here beta d ~ 50 at the top of h1_domain, which is also the root:
        # R1's FOC computes to +3e-17 there against a true value of about -1e-20
        params = flat_rate_params(
            4.203329212038864,
            (0.03901277240443706, 0.18175724610349758, 0.7240522505595385),
            3.822924985559782,
            (0.12974970594132443, 0.04683997975560453, 0.08287854993611772))
        t, xi2 = 2.3308472952896917, 0.5826704231859197
        assert reaction_xi1(xi2, params, t) == pytest.approx(h1_inv(xi2, params, t),
                                                             rel=1e-10)
        # the draw of test_seeded_box_points, probed at the xi2 box ends and middle
        for params, t in seeded_box_draw():
            for xi2 in (0.1, 0.5, 0.9):
                assert reaction_xi1(xi2, params, t) == pytest.approx(
                    h1_inv(xi2, params, t), rel=1e-10)
