import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from reinsgame.config import default_market_params
from reinsgame.errors import (ConvergenceError, DegeneratePremiumError, DomainError,
                              IntegrationError)
from reinsgame.expo import h1, h1_domain, h1_inv, h2, unconstrained_fixed_point
from reinsgame.market import (Exponential, GenericClaims, PremiumPoint, admissible_box,
                              gamma_accumulations)
from reinsgame.reaction import (_check_fixed_point, foc_ratios, foc_residual_r1,
                                foc_residual_r2, general_equilibrium, instantaneous_reward,
                                reaction_xi1, reaction_xi2)


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

    def test_clamped_reaction_stays_in_box(self, base_params):
        (lo1, hi1), _ = admissible_box(base_params)
        tight = reaction_xi1(5.0, base_params, 0.0, clamp=True)
        assert lo1 <= tight <= hi1

    def test_reaction_rejects_nonpositive_inputs(self, base_params):
        with pytest.raises(DomainError):
            reaction_xi1(0.0, base_params, 0.0)
        with pytest.raises(DegeneratePremiumError):
            reaction_xi2(0.0, base_params, 0.0)

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
