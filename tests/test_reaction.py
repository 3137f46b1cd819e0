import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from reinsgame import reaction
from reinsgame.config import default_market_params
from reinsgame.errors import (ConvergenceError, DegeneratePremiumError, DomainError,
                              IntegrationError)
from reinsgame.expo import (Regime, constrained_equilibrium, h1, h1_domain, h1_inv, h2,
                            unconstrained_fixed_point)
from reinsgame.market import (Exponential, GenericClaims, PremiumPoint, admissible_box,
                              gamma_accumulations)
from reinsgame.reaction import (_check_fixed_point, _fixed_point, _r1_foc, foc_ratios,
                                foc_residual_r1, foc_residual_r2, general_equilibrium,
                                instantaneous_reward, reaction_xi1, reaction_xi2)
from reinsgame.response import response
from reinsgame.valuation import equilibrium_path
from test_broad_box import broad_box_point
from test_roots import solves  # noqa: F401  the per-solve evaluation counts


def uniform_claims(upper=2.0):
    return GenericClaims(lambda y: min(max(y / upper, 0.0), 1.0))


@pytest.fixture(scope="module")
def claim_laws(base_params):
    """Exponential(1), uniform[0, 2] and Erlang-2 with rate 2."""
    return {"exponential": base_params.claims, "uniform_0_2": uniform_claims(),
            "erlang2_rate2": GenericClaims(
                lambda y: 0.0 if y <= 0.0
                else -math.expm1(-2.0 * y) - 2.0 * y * math.exp(-2.0 * y))}


class TestTruncatedMoments:
    def test_exponential_closed_form(self):
        tm = Exponential(1.0).truncated(2.3936)
        assert tm.m2_below == pytest.approx(0.857236503777027, rel=1e-12)
        assert tm.excess_mean == pytest.approx(0.091300410064026, rel=1e-12)
        assert tm.survival == pytest.approx(0.091300410064026, rel=1e-12)

    def test_exponential_vs_quadrature_oracle(self):
        beta, d = 1.7, 0.8
        tm = Exponential(beta).truncated(d)
        dens = lambda y: beta * math.exp(-beta * y)
        m2 = integrate.quad(lambda y: y * y * dens(y), 0, d)[0]
        em = integrate.quad(lambda y: (y - d) * dens(y), d, np.inf)[0]
        m1 = integrate.quad(lambda y: y * dens(y), 0, d)[0]
        esq = integrate.quad(lambda y: (y - d) ** 2 * dens(y), d, np.inf)[0]
        assert tm.m2_below == pytest.approx(m2, abs=1e-10)
        assert tm.excess_mean == pytest.approx(em, abs=1e-10)
        assert tm.m1_below == pytest.approx(m1, abs=1e-10)
        assert tm.excess_sq == pytest.approx(esq, abs=1e-10)
        assert tm.survival == pytest.approx(math.exp(-beta * d), rel=1e-12)

    def test_uniform_vs_quadrature_oracle(self):
        dist, d = uniform_claims(), 0.7
        tm = dist.truncated(d)
        m2 = integrate.quad(lambda y: y * y * 0.5, 0, d)[0]
        em = integrate.quad(lambda y: (y - d) * 0.5, d, 2.0)[0]
        assert tm.m2_below == pytest.approx(m2, abs=1e-8)
        assert tm.excess_mean == pytest.approx(em, abs=1e-8)
        assert tm.survival == pytest.approx(1 - d / 2, abs=1e-12)

    @pytest.mark.parametrize("dist", [Exponential(1.0), Exponential(0.4)])
    def test_no_truncation(self, dist):
        tm = dist.truncated(0.0)
        assert tm.m2_below == 0.0
        assert tm.excess_mean == pytest.approx(dist.mean, rel=1e-12)
        assert tm.survival == 1.0

    @pytest.mark.parametrize("dist,d", [(Exponential(1.0), math.inf),
                                        (uniform_claims(), 1e9), (uniform_claims(), math.inf)])
    def test_full_truncation(self, dist, d):
        tm = dist.truncated(d)
        assert tm.m2_below == pytest.approx(dist.second_moment, rel=1e-12)
        assert tm.excess_mean == 0.0
        assert tm.survival == 0.0

    def test_monotone_in_deductible(self):
        dist = Exponential(1.3)
        ds = np.linspace(0.0, 6.0, 40)
        tms = [dist.truncated(d) for d in ds]
        assert all(a.m2_below <= b.m2_below for a, b in zip(tms, tms[1:]))
        assert all(a.excess_mean >= b.excess_mean for a, b in zip(tms, tms[1:]))
        assert all(a.survival >= b.survival for a, b in zip(tms, tms[1:]))

    def test_negative_deductible_rejected(self):
        with pytest.raises(DomainError):
            Exponential(1.0).truncated(-0.1)

    def test_mean_excess(self):
        # exponential: 1/beta even where S(d) has underflowed to 0
        for d in (0.0, 2.0, 1e3, math.inf):
            assert Exponential(2.5).truncated(d).mean_excess == 0.4
        assert Exponential(2.5).truncated(np.array([0.1, 1e3])).mean_excess.tolist() == [0.4, 0.4]
        # uniform[0, 2]: m(d) = (2 - d)/2 inside, 0 at and beyond the tail cut
        law = uniform_claims()
        assert law.truncated(0.7).mean_excess == pytest.approx(0.65, rel=1e-12, abs=0.0)
        assert law.truncated(np.array([0.7, 2.0, 5.0])).mean_excess == \
            pytest.approx([0.65, 0.0, 0.0], rel=1e-12, abs=0.0)
        assert law.truncated(math.inf).mean_excess == 0.0

    def test_cut_survival(self, claim_laws):
        assert Exponential(1.0).cut_survival == 0.0
        assert claim_laws["uniform_0_2"].cut_survival == 0.0
        law = claim_laws["erlang2_rate2"]
        assert law.cut_survival == pytest.approx(33.0 * math.exp(-32.0), rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("law", ["exponential", "uniform_0_2", "erlang2_rate2"])
    def test_foc_terms_of_a_float_match_an_array(self, claim_laws, law):
        # a table law reads a float by ``truncated``, to the array's bits; the
        # exponential law reads e_fun(beta d) in pure Python, where the array divides
        # M2 by d^2 S (both about 0 at d = 1e-300, which e_fun puts at 3.3e-301); where
        # S(d) = 0, e is above 1e307, and inf for the exponential law's float
        dist = claim_laws[law]
        ds = [0.0, 1e-300, 1e-9, 0.3, 0.5, 1.0, 1.999, 2.3936, 7.5, 15.9, 16.0, 50.0, 1e200,
              math.inf]
        e, m, s = dist.foc_terms(np.array(ds))
        for i, d in enumerate(ds):
            got = dist.foc_terms(d)
            assert all(type(v) is float for v in got)
            if s[i] == 0.0:
                assert got[1:] == (m[i], 0.0) and min(got[0], e[i]) > 1e307
            elif law == "exponential":
                assert got == pytest.approx((e[i], m[i], s[i]), rel=1e-14, abs=1e-300)
            else:
                assert np.array(got).tobytes() == np.array((e[i], m[i], s[i])).tobytes()
        assert dist.foc_terms(0.0)[0] == 0.0
        tm = dist.truncated(0.7)
        assert dist.foc_terms(0.7) == pytest.approx(
            (tm.m2_below / (0.49 * tm.survival), tm.mean_excess, tm.survival), rel=1e-13)


class TestFocResiduals:
    def test_zero_at_equilibrium(self, base_params, base_eq):
        assert abs(foc_residual_r1(base_eq.point(), base_params)) < 1e-8
        assert abs(foc_residual_r2(base_eq.point(), base_params)) < 1e-8

    def test_quadratic_identity_at_equilibrium(self, base_params, base_eq):
        # FOC root <=> gamma_R1 A_R1 / xi1 = G(beta d)
        from reinsgame.expo import G_fun
        ratios = foc_ratios(base_eq.point(), base_params)
        g_val = G_fun(base_params.claims.beta * base_eq.response.d, ratios.c_r1)
        assert ratios.b_r1_ratio == pytest.approx(g_val, abs=1e-9)
        assert ratios.b_r1_ratio == pytest.approx(0.78727, abs=5e-5)

    def test_sign_change_over_bracket(self, base_params):
        from reinsgame.expo import h1_domain
        lo, hi = h1_domain(base_params, 0.0)
        xi2 = 0.38225
        assert foc_residual_r1(PremiumPoint(lo, xi2, 0.0), base_params) > 0
        assert foc_residual_r1(PremiumPoint(hi, xi2, 0.0), base_params) < 0

    def test_r1_at_a_deductible_beyond_survival(self, base_params):
        # S(d) = 0 and d^2 overflows: the d^2 (ratio - 1) S term is 0, not 0 * inf
        point = PremiumPoint(0.3, 1e160, 0.0)
        resp = response(point, base_params)
        full = (2.0 * resp.q * (foc_ratios(point, base_params).c_r1 + 1.0) - 1.0) * 2.0
        assert resp.d > 1e160 and foc_residual_r1(point, base_params) == full
        foc = [_r1_foc(0.25, d, 1.1, 0.5, Exponential(1.0).truncated(d))
               for d in (2.0, 1e160, math.inf)]
        assert np.all(np.isfinite(foc)) and foc[1] == foc[2] == (2.0 * 0.25 * 1.5 - 1.0) * 2.0

    def test_zero_deductible_collapses_r1(self, base_params):
        assert foc_residual_r1(PremiumPoint(0.3, 0.0, 0.0), base_params) == 0.0

    def test_zero_deductible_r2_positive(self, base_params):
        # d = 0 collapses both integrals: residual = (1 + C_R2 + a_R2/(2 xi1)) a_Y
        xi1 = 0.3
        val = foc_residual_r2(PremiumPoint(xi1, 0.0, 0.0), base_params)
        a_i = base_params.gamma_I * base_params.accum("I", 0.0)
        a_r2 = base_params.gamma_R2 * base_params.accum("R2", 0.0)
        expected = (1.0 + a_r2 / a_i + a_r2 / (2 * xi1)) * base_params.claims.mean
        assert val == pytest.approx(expected, rel=1e-12)

    def test_lambda_invariance(self, base_params):
        point = PremiumPoint(0.3, 0.4, 0.0)
        p5 = dataclasses.replace(base_params, lam=5.0)
        assert foc_residual_r1(point, base_params) == foc_residual_r1(point, p5)
        assert foc_residual_r2(point, base_params) == foc_residual_r2(point, p5)

    def test_continuity_under_small_perturbation(self, base_params):
        rng = np.random.default_rng(21)
        for _ in range(20):
            point = PremiumPoint(rng.uniform(0.15, 0.8), rng.uniform(0.15, 0.8), 0.0)
            for f in (foc_residual_r1, foc_residual_r2):
                ref = f(point, base_params)
                bumped = f(PremiumPoint(point.xi1 + 1e-9, point.xi2 - 1e-9, 0.0),
                           base_params)
                assert abs(bumped - ref) < 1e-6

    def test_degenerate_xi1_rejected(self, base_params):
        with pytest.raises(DegeneratePremiumError):
            foc_residual_r1(PremiumPoint(0.0, 0.4, 0.0), base_params)


class TestInstantaneousReward:
    def test_zero_intensity(self, base_params, base_eq):
        p0 = dataclasses.replace(base_params, lam=0.0)
        assert instantaneous_reward(base_eq.point(), p0, "R1") == 0.0
        assert instantaneous_reward(base_eq.point(), p0, "R2") == 0.0

    def test_r2_reward_at_zero_loading(self, base_params):
        # xi2 = 0 means full cession (d = 0): the reward is the pure risk
        # penalty -(gamma_R2/2) A_R2 sigma_Y^2, not zero
        val = instantaneous_reward(PremiumPoint(0.3, 0.0, 0.0), base_params, "R2")
        a_r2 = base_params.gamma_R2 * base_params.accum("R2", 0.0)
        assert val == pytest.approx(-0.5 * a_r2 * base_params.claims.second_moment,
                                    rel=1e-12)

    def test_r1_reward_grid_max_at_root(self, base_params, base_eq):
        grid = np.arange(0.1, 0.9, 1e-4)
        rewards = instantaneous_reward(
            PremiumPoint(grid, base_eq.xi2_star, 0.0), base_params, "R1")
        best = grid[int(np.argmax(rewards))]
        assert abs(best - base_eq.xi1_star) <= 1e-4

    def test_r2_reward_grid_max_at_root(self, base_params, base_eq):
        grid = np.arange(0.1, 0.9, 1e-4)
        rewards = instantaneous_reward(
            PremiumPoint(base_eq.xi1_star, grid, 0.0), base_params, "R2")
        best = grid[int(np.argmax(rewards))]
        assert abs(best - base_eq.xi2_star) <= 1e-4

    def test_unknown_party_rejected(self, base_params, base_eq):
        with pytest.raises(DomainError):
            instantaneous_reward(base_eq.point(), base_params, "R3")


class TestReactionCurves:
    def test_r1_reaction_reference(self, base_params):
        assert reaction_xi1(0.38225, base_params, 0.0) == pytest.approx(0.28269,
                                                                        abs=5e-5)

    def test_r2_reaction_reference(self, base_params):
        assert reaction_xi2(0.28269, base_params, 0.0) == pytest.approx(0.38225,
                                                                        abs=5e-5)

    def test_r2_reaction_equals_closed_form(self, base_params):
        for xi1 in np.linspace(0.12, 0.85, 15):
            assert reaction_xi2(xi1, base_params, 0.0) == pytest.approx(
                h2(xi1, base_params, 0.0), abs=1e-10)

    def test_r1_inverse_consistency(self, base_params):
        from reinsgame.expo import h1_domain
        lo, hi = h1_domain(base_params, 0.0)
        for x in np.linspace(lo * 1.05, hi * 0.95, 7):
            assert reaction_xi1(h1(x, base_params, 0.0), base_params, 0.0) == \
                pytest.approx(x, abs=1e-9)

    def test_r1_reaction_monotone_in_xi2(self, base_params):
        # increasing, consistent with the (increasing) closed-form curve
        vals = [reaction_xi1(xi2, base_params, 0.0)
                for xi2 in np.linspace(0.15, 0.8, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("xi1", [0.3, 0.05, 0.02])
    def test_r2_reaction_erlang2_closed_form(self, base_params, claim_laws, xi1):
        # Erlang-2 with rate 2 has m(d) = (1 + d)/(1 + 2d), so R2's FOC
        # k m(d) = d is a quadratic in d; the table cuts the tail at y = 16,
        # which puts a relative error of about S(16)/S(d) into m(d)
        params = dataclasses.replace(base_params, claims=claim_laws["erlang2_rate2"])
        a_i, _, a_r2 = gamma_accumulations(params, 0.0)
        k = 1.0 + a_r2 / a_i + a_r2 / (2.0 * xi1)
        d = ((k - 1.0) + math.sqrt((k - 1.0) ** 2 + 8.0 * k)) / 4.0
        assert reaction_xi2(xi1, params, 0.0) == pytest.approx(
            d / (1.0 / a_i + 0.5 / xi1), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("xi1,d_star", [(3e-3, 20.0), (1e-3, 57.1)])
    def test_r2_root_past_the_tail_cut_raises(self, base_params, claim_laws, xi1, d_star):
        # the true roots lie beyond the table's tail cut y = 16; the table's
        # m(d) falls to 0 there and would give a wrong root just below it
        params = dataclasses.replace(base_params, claims=claim_laws["erlang2_rate2"])
        assert params.claims.tail_cut() == 16.0 < d_star
        with pytest.raises(IntegrationError, match="tail_cut"):
            reaction_xi2(xi1, params, 0.0)

    def test_r2_reaction_uniform_closed_form(self, base_params, claim_laws):
        # uniform[0, 2]: m(d) = (2 - d)/2, so the root is d = 2k/(2 + k), even
        # for a k that puts it next to the end of the support
        params = dataclasses.replace(base_params, claims=claim_laws["uniform_0_2"])
        a_i, _, a_r2 = gamma_accumulations(params, 0.0)
        for xi1 in (0.3, 1e-3, 1e-6):
            k = 1.0 + a_r2 / a_i + a_r2 / (2.0 * xi1)
            assert reaction_xi2(xi1, params, 0.0) == pytest.approx(
                2.0 * k / (2.0 + k) / (1.0 / a_i + 0.5 / xi1), rel=1e-9, abs=0.0)

    def test_r2_reaction_large_xi1_limit(self, base_params):
        a_i = base_params.gamma_I * base_params.accum("I", 0.0)
        a_r2 = base_params.gamma_R2 * base_params.accum("R2", 0.0)
        limit = a_i * (1.0 + a_r2 / a_i) / base_params.claims.beta
        assert reaction_xi2(1e6, base_params, 0.0) == pytest.approx(limit, abs=1e-6)

    @pytest.mark.parametrize("xi2", [5.0, 30.0, 1e3])
    def test_r1_reply_past_the_tail_cut(self, base_params, claim_laws, xi2):
        # the insurer's deductible is at least xi2/a_I, beyond the Erlang-2 table's
        # tail cut y = 16, where S(d) = 0 and R1's reply is the top of h1_domain;
        # it reads no m(d), so the cut's IntegrationError does not apply
        params = dataclasses.replace(base_params, claims=claim_laws["erlang2_rate2"])
        assert reaction_xi1(xi2, params, 0.0) == pytest.approx(
            h1_domain(params, 0.0)[1], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("xi2", [1e-300, 1e-200, 5e-324])
    def test_r1_reply_at_a_vanishing_deductible(self, base_params, xi2):
        # d^2 S(d) and int_0^d y^2 dF both underflow to 0, and R1's reply takes
        # their ratio's limit: the bottom of h1_domain, as the closed form gives
        assert reaction_xi1(xi2, base_params, 0.0) == h1_inv(xi2, base_params, 0.0) == \
            h1_domain(base_params, 0.0)[0]

    def test_reaction_rejects_nonpositive_inputs(self, base_params):
        with pytest.raises(DomainError):
            reaction_xi1(0.0, base_params, 0.0)
        with pytest.raises(DegeneratePremiumError):
            reaction_xi2(0.0, base_params, 0.0)

    @pytest.mark.parametrize("t", [-1.0, 9.0, float("nan")])
    def test_time_outside_horizon_raises(self, base_params, t):
        # T = 8: every solve checks the time, which np.interp would clamp
        for solve in (lambda: reaction_xi1(0.4, base_params, t),
                      lambda: reaction_xi2(0.4, base_params, t),
                      lambda: general_equilibrium(base_params, t)):
            with pytest.raises(DomainError, match="outside"):
                solve()

    def test_bracket_contains_fixed_point(self, base_params):
        lo, hi = h1_domain(base_params, 0.0)
        xi1_bar, _ = unconstrained_fixed_point(base_params, 0.0)
        assert lo < xi1_bar < hi

    @pytest.mark.parametrize("xi2", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("law", ["exponential", "uniform_0_2", "erlang2_rate2"])
    def test_r1_bracket_end_signs(self, base_params, claim_laws, law, xi2):
        # R1's FOC is int_0^d y^2 dF/(2C+1) at the lower end of h1_domain and
        # -d^2 S(d)/(2C+1) at the upper end; these xi2 keep d inside the support
        params = dataclasses.replace(base_params, claims=claim_laws[law])
        lo, hi = h1_domain(params, 0.0)
        assert foc_residual_r1(PremiumPoint(lo, xi2, 0.0), params) > 0.0
        assert foc_residual_r1(PremiumPoint(hi, xi2, 0.0), params) < 0.0


class TestGeneralEquilibrium:
    def test_matches_closed_form_for_exponential(self, base_params):
        point = general_equilibrium(base_params, 0.0)
        xi1_bar, xi2_bar = unconstrained_fixed_point(base_params, 0.0)
        assert point.xi1 == pytest.approx(xi1_bar, abs=1e-8)
        assert point.xi2 == pytest.approx(xi2_bar, abs=1e-8)

    @pytest.mark.parametrize("gamma_r2", [0.1, 3.0, 10.0, 100.0, 1000.0])
    def test_matches_closed_form_at_large_c_r2(self, gamma_r2):
        # the root in d lies beyond the exponential tail cut 32 from
        # gamma_R2 = 3 on (beta d = 41..46 there); the bracket reaches k_hi * mean
        params = default_market_params(gamma_R2=gamma_r2)
        point = general_equilibrium(params, 0.0)
        assert (point.xi1, point.xi2) == pytest.approx(
            unconstrained_fixed_point(params, 0.0), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("index", [28, 3788])
    def test_matches_closed_form_on_seed5_broad_box(self, index):
        # points of the seed-5 broad-box draw of 4000 where a scalar bisection
        # to xtol = 1e-12 in d raised ConvergenceError (28) or left xi1 5.4e-8 off (3788)
        u = np.random.default_rng(5).uniform(size=(4000, 11))[index]
        params, t = broad_box_point(u.tolist())
        point = general_equilibrium(params, t)
        assert (point.xi1, point.xi2) == pytest.approx(
            unconstrained_fixed_point(params, t), rel=1e-10, abs=0.0)

    def test_root_at_the_lower_bracket_end_is_not_bisected_to(self, solves):
        # seed-5 broad-box point 2844: S(d) is about 0 at the root, so r(d) is at
        # its floor and the root within rounding of the sign-only end k_lo m_lo;
        # bisecting all the way there took 69 evaluations
        u = np.random.default_rng(5).uniform(size=(4000, 11))[2844]
        params, t = broad_box_point(u.tolist())
        _fixed_point(params, np.array([t]))
        assert [c.size for c in solves] == [1] and int(solves[0][0]) <= 32

    def test_subnormal_a_r1_with_a_table_law(self, claim_laws):
        # gamma_R1 = 1e-310: 1/(2C_R1) overflows, and a solve that read the overflowed
        # bracket as the root at d = inf raised IntegrationError (m(d) unresolved)
        law = claim_laws["erlang2_rate2"]
        want, got = (general_equilibrium(dataclasses.replace(
            default_market_params(gamma_R1=gamma_r1), claims=law), 0.0)
            for gamma_r1 in (1e-290, 1e-310))
        assert (want.xi1, want.xi2) == pytest.approx((0.0596687, 0.1771179), abs=5e-8)
        assert (got.xi1, got.xi2) == pytest.approx((want.xi1, want.xi2), rel=1e-14, abs=0.0)

    def test_uniform_claims_candidate(self, base_params):
        params = dataclasses.replace(base_params, claims=uniform_claims())
        point = general_equilibrium(params, 0.0)
        assert abs(foc_residual_r1(point, params)) < 1e-8
        assert abs(foc_residual_r2(point, params)) < 1e-8

    @pytest.mark.parametrize("cdf,expected", [
        (lambda y: min(max(y / 2.0, 0.0), 1.0),
         (0.24700236477966, 0.16896297278171)),
        (lambda y: 0.0 if y <= 0.0 else -math.expm1(-2.0 * y) - 2.0 * y * math.exp(-2.0 * y),
         (0.27348273300756, 0.23787541729409)),
    ], ids=["uniform_0_2", "erlang2_rate2"])
    def test_pinned_candidates(self, base_params, cdf, expected):
        params = dataclasses.replace(base_params, claims=GenericClaims(cdf))
        point = general_equilibrium(params, 0.0)
        assert (point.xi1, point.xi2) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("law", ["uniform_0_2", "gamma_R2_1000"])
    def test_fixed_point_check_rejects_doubled_xi2(self, base_params, law):
        # at twice xi2, k EM(d) - d S(d) reads exactly 0: S(d) underflows at
        # gamma_R2 = 1000, and d passes the uniform support; in d it is off by 0.5..1
        params = (dataclasses.replace(base_params, claims=uniform_claims())
                  if law == "uniform_0_2" else default_market_params(gamma_R2=1000.0))
        point = general_equilibrium(params, 0.0)
        _check_fixed_point(point, params)
        doubled = dataclasses.replace(point, xi2=2.0 * point.xi2)
        assert foc_residual_r2(doubled, params) == 0.0
        with pytest.raises(ConvergenceError, match="R2 in d"):
            _check_fixed_point(doubled, params)

    @pytest.mark.parametrize("law", ["uniform_0_2", "erlang2_rate2"])
    def test_reaction_maps_return_the_candidate(self, base_params, claim_laws, law):
        params = dataclasses.replace(base_params, claims=claim_laws[law])
        point = general_equilibrium(params, 0.0)
        assert reaction_xi1(point.xi2, params, 0.0) == pytest.approx(point.xi1, abs=1e-9)
        assert reaction_xi2(point.xi1, params, 0.0) == pytest.approx(point.xi2, abs=1e-9)

    def test_lambda_invariance(self, base_params):
        p5 = dataclasses.replace(base_params, lam=5.0)
        a = general_equilibrium(base_params, 0.0)
        b = general_equilibrium(p5, 0.0)
        assert (a.xi1, a.xi2) == (b.xi1, b.xi2)

    def test_reaction_root_is_reward_maximizer(self, base_params):
        # ties the FOC roots back to the HJB supremum on the admissible interval
        xi2 = 0.5
        root = reaction_xi1(xi2, base_params, 0.0)
        grid = np.arange(0.1, 0.9, 1e-4)
        rewards = instantaneous_reward(PremiumPoint(grid, xi2, 0.0), base_params, "R1")
        assert abs(grid[int(np.argmax(rewards))] - root) <= 1e-4
        xi1 = 0.3
        root2 = reaction_xi2(xi1, base_params, 0.0)
        rewards2 = instantaneous_reward(PremiumPoint(xi1, grid, 0.0), base_params, "R2")
        assert abs(grid[int(np.argmax(rewards2))] - root2) <= 1e-4


class TestGeneralLawScalarPath:
    """A scalar time solves any claim law, as one element of an array does."""

    @pytest.mark.parametrize("law", ["erlang2_rate2", "uniform_0_2"])
    def test_scalar_equilibrium_matches_the_array_path(self, base_params, claim_laws, law):
        params = dataclasses.replace(base_params, claims=claim_laws[law])
        ts = [0.0, 0.5 * params.T, params.T]
        grid = constrained_equilibrium(params, np.array(ts))
        for i, t in enumerate(ts):
            scalar = constrained_equilibrium(params, t)
            assert scalar.regime is grid.regime[i]
            got = (scalar.xi1_star, scalar.xi2_star, *scalar.unconstrained,
                   scalar.response.q, scalar.response.d)
            want = (grid.xi1_star[i], grid.xi2_star[i], grid.unconstrained[0][i],
                    grid.unconstrained[1][i], grid.response.q[i], grid.response.d[i])
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("law,values", [
        ("erlang2_rate2", [(0.27348273300735587, 0.23787541729396156),
                           (0.18332095817944322, 0.15945266067123523),
                           (0.12288371312614188, 0.10688431484164755)]),
        ("uniform_0_2", [(0.24700236477937224, 0.1689629727813479),
                         (0.16557063652982057, 0.11325926769311159),
                         (0.11098531670081942, 0.07591995753400936)])])
    def test_general_equilibrium_keeps_the_one_element_array_values(self, base_params,
                                                                    claim_laws, law, values):
        # the values general_equilibrium gave as a one-element array solve
        params = dataclasses.replace(base_params, claims=claim_laws[law])
        for t, want in zip((0.0, 0.5 * params.T, params.T), values):
            point = general_equilibrium(params, t)
            assert (point.xi1, point.xi2) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestGeneralLawGrid:
    """Boxed equilibrium paths of general claim laws, solved as one array."""

    @pytest.mark.parametrize("law,boxed", [("erlang2_rate2", 82), ("uniform_0_2", 302)])
    def test_path_is_boxed_and_solves_the_scalar_problems(self, base_params, claim_laws,
                                                          law, boxed):
        params = dataclasses.replace(base_params, claims=claim_laws[law])
        (lo1, hi1), (lo2, hi2) = admissible_box(params)
        path = equilibrium_path(params)
        eq = constrained_equilibrium(params, path.grid)
        assert np.array_equal(path.xi1(path.grid), eq.xi1_star)
        assert np.array_equal(path.xi2(path.grid), eq.xi2_star)
        assert np.all((lo1 <= eq.xi1_star) & (eq.xi1_star <= hi1))
        assert np.all((lo2 <= eq.xi2_star) & (eq.xi2_star <= hi2))
        interior = np.array([r is Regime.INTERIOR for r in eq.regime])
        assert np.count_nonzero(~interior) == boxed
        for t, xi1, xi2, inside in zip(path.grid.tolist(), eq.xi1_star.tolist(),
                                       eq.xi2_star.tolist(), interior):
            if inside:
                point = general_equilibrium(params, t)
                assert (xi1, xi2) == pytest.approx((point.xi1, point.xi2), rel=1e-11, abs=0.0)
            else:
                assert min(max(reaction_xi1(xi2, params, t), lo1), hi1) == pytest.approx(
                    xi1, rel=1e-8, abs=0.0)
                assert min(max(reaction_xi2(xi1, params, t), lo2), hi2) == pytest.approx(
                    xi2, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("law", ["uniform_0_2", "erlang2_rate2"])
    def test_unconstrained_field_is_general_equilibrium(self, base_params, claim_laws, law):
        # one fixed-point solve: a one-element call equals its element of a grid
        params = dataclasses.replace(base_params, claims=claim_laws[law])
        grid = np.linspace(0.0, params.T, 5)
        xi1_bar, xi2_bar = constrained_equilibrium(params, grid).unconstrained
        points = [general_equilibrium(params, t) for t in grid.tolist()]
        assert [(p.xi1, p.xi2) for p in points] == list(zip(xi1_bar.tolist(),
                                                            xi2_bar.tolist()))

    @pytest.mark.parametrize("law", ["erlang2_rate2", "uniform_0_2", "lomax8"])
    def test_801_point_path_agrees_with_general_equilibrium(self, base_params, claim_laws,
                                                            law):
        claims = claim_laws.get(law) or GenericClaims(
            lambda y: 0.0 if y <= 0.0 else 1.0 - (1.0 + y) ** -8)
        params = dataclasses.replace(base_params, claims=claims)
        grid = np.linspace(0.0, params.T, 801)
        eq = constrained_equilibrium(params, grid)
        for i in (0, 123, 400, 677, 800):
            point = general_equilibrium(params, float(grid[i]))
            assert (eq.unconstrained[0][i], eq.unconstrained[1][i]) == pytest.approx(
                (point.xi1, point.xi2), rel=1e-12, abs=0.0)
            if eq.regime[i] is Regime.INTERIOR:
                assert (eq.xi1_star[i], eq.xi2_star[i]) == pytest.approx(
                    (point.xi1, point.xi2), rel=1e-12, abs=0.0)

    def test_lomax8_path_is_lower_left(self, base_params):
        # Lomax with shape 8: the unconstrained point (0.296, 0.083) lies below
        # both floors of its box, xi1 in [0.6, 5.4] and xi2 in [0.1, 0.9]
        params = dataclasses.replace(base_params, claims=GenericClaims(
            lambda y: 0.0 if y <= 0.0 else 1.0 - (1.0 + y) ** -8))
        eq = constrained_equilibrium(params, np.linspace(0.0, params.T, 801))
        assert eq.regime == (Regime.LOWER_LEFT,) * 801
        assert eq.unconstrained[0][0] == pytest.approx(0.296, abs=5e-4)
        assert eq.unconstrained[1][0] == pytest.approx(0.083, abs=5e-4)

    def test_root_past_the_tail_cut_raises(self, claim_laws):
        # gamma_R2 = 3 puts the Erlang-2 fixed point at d = 15.3, where S(d) is
        # within 4 of S(16), the tail cut
        params = dataclasses.replace(default_market_params(gamma_R2=3.0),
                                     claims=claim_laws["erlang2_rate2"])
        with pytest.raises(IntegrationError, match="tail_cut"):
            constrained_equilibrium(params, np.linspace(0.0, params.T, 9))


class TestClosedFormR2Reply:
    """Where the mean excess is one value, as for exponential claims, R2's FOC k m(d) = d
    has the root d = k m and its reply is closed-form; other laws solve for d."""

    @staticmethod
    def spy_solves(monkeypatch):
        calls = []
        for name in ("chandrupatla", "chandrupatla_scalar"):
            solve = getattr(reaction, name)
            monkeypatch.setattr(reaction, name, lambda f, lo, hi, _name=name, _solve=solve:
                                calls.append(_name) or _solve(f, lo, hi))
        return calls

    @pytest.mark.parametrize("beta", [0.3, 1.0, 3.7])
    def test_exponential_reply_takes_no_solve(self, monkeypatch, beta):
        params = default_market_params(beta=beta, rho_R1=[(0.0, 0.1)],
                                       rho_R2=[(0.0, 0.02), (3.0, 0.15)])
        calls = self.spy_solves(monkeypatch)
        xi1 = np.repeat([0.05, 0.9, 3.0, 1e3], 5)
        ts = np.tile(np.linspace(0.0, params.T, 5), 4)
        replies = [reaction_xi2(x, params, t) for x, t in zip(xi1.tolist(), ts.tolist())]
        array = reaction._r2_reply(xi1, params, ts)
        assert calls == []
        assert [r.hex() for r in replies] == [r.hex() for r in array.tolist()]
        for x, t, r in zip(xi1.tolist(), ts.tolist(), replies):
            assert r == pytest.approx(h2(x, params, t), rel=1e-14, abs=0.0)

    def test_uniform_reply_still_solves(self, monkeypatch, base_params):
        params = dataclasses.replace(base_params, claims=uniform_claims())
        assert params.claims.mean_excess_bounds[0] < params.claims.mean_excess_bounds[1]
        calls = self.spy_solves(monkeypatch)
        reply = reaction_xi2(0.9, params, 2.0)
        array = reaction._r2_reply(np.array([0.9]), params, np.array([2.0]))
        assert calls == ["chandrupatla_scalar", "chandrupatla"]
        assert array.tolist() == pytest.approx([reply], rel=1e-12, abs=0.0)
        point = PremiumPoint(0.9, reply, 2.0)
        assert foc_residual_r2(point, params) == pytest.approx(0.0, abs=1e-8)
