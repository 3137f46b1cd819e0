import dataclasses

import numpy as np
import pytest

from reinsgame.errors import DomainError
from reinsgame.market import GenericClaims, RateCurve, accum_profile, insurer_premium_rate
from reinsgame.simulate import SimConfig, estimate_objectives, simulate
from reinsgame.valuation import (PARTIES, _tail_integrals, closed_form_objective,
                                 constant_path, equilibrium_path, no_reinsurance_path)


@pytest.fixture(scope="module")
def flat_short_params(base_params):
    zero = RateCurve.flat(0.0, 1.0)
    return dataclasses.replace(base_params, T=1.0, rho_I=zero, rho_R1=zero,
                               rho_R2=zero)


def assert_means_match_closed_form(samples, path, params, panels=2000, label=""):
    for party in ("I", "R1", "R2"):
        cf = closed_form_objective(party, path, params, 0.0, params.x0(party),
                                   panels=panels)
        xs = samples.by_party(party)
        se = xs.std(ddof=1) / np.sqrt(len(xs))
        assert abs(xs.mean() - cf.mean) <= 3 * se, (label, party)


class TestSimulate:
    def test_same_seed_bit_identical(self, base_params, eq_path):
        a = simulate(eq_path, base_params, SimConfig(paths=200, seed=77))
        b = simulate(eq_path, base_params, SimConfig(paths=200, seed=77))
        assert np.array_equal(a.x_i, b.x_i)
        assert np.array_equal(a.x_r1, b.x_r1)
        assert np.array_equal(a.x_r2, b.x_r2)

    def test_prefix_of_longer_run_for_any_path_count(self, base_params, eq_path):
        # path counts that are not multiples of the block size, and a single path
        full = simulate(eq_path, base_params, SimConfig(paths=5000, seed=13))
        for n in (1500, 1):
            short = simulate(eq_path, base_params, SimConfig(paths=n, seed=13))
            assert short.n == n
            for party in ("I", "R1", "R2"):
                assert np.array_equal(short.by_party(party), full.by_party(party)[:n])

    def test_different_seeds_differ(self, base_params, eq_path):
        a = simulate(eq_path, base_params, SimConfig(paths=50, seed=1))
        b = simulate(eq_path, base_params, SimConfig(paths=50, seed=2))
        assert not np.array_equal(a.x_i, b.x_i)

    def test_zero_intensity_deterministic(self, base_params, eq_path):
        p0 = dataclasses.replace(base_params, lam=0.0)
        samples = simulate(eq_path, p0, SimConfig(paths=3, seed=5))
        for party in ("I", "R1", "R2"):
            expected = p0.accum(party, 0.0) * p0.x0(party)
            assert samples.by_party(party) == pytest.approx([expected] * 3, abs=1e-9)
            cf = closed_form_objective(party, eq_path, p0, 0.0, p0.x0(party))
            assert samples.by_party(party)[0] == pytest.approx(cf.mean, abs=1e-9)

    def test_no_reinsurance_compound_poisson_moments(self, flat_short_params):
        # X_I(T) - x0 has mean theta*lam*a_Y*T = 0.1 and variance lam*T*sigma2 = 2
        path = no_reinsurance_path(flat_short_params)
        samples = simulate(path, flat_short_params, SimConfig(paths=40000, seed=11))
        net = samples.x_i - flat_short_params.x0_I
        n = len(net)
        se_mean = net.std(ddof=1) / np.sqrt(n)
        assert abs(net.mean() - 0.1) <= 3 * se_mean
        var = net.var(ddof=1)
        m4 = np.mean((net - net.mean()) ** 4)
        se_var = np.sqrt((m4 - (n - 3) / (n - 1) * var * var) / n)
        assert abs(var - 2.0) <= 3 * se_var
        assert np.array_equal(samples.x_r1, np.full(n, 10.0))

    def test_claim_free_paths_are_the_exact_drift(self, base_params, eq_path):
        # every claim lowers each party's surplus or leaves it, so the largest sample
        # is A_k(0) x0_k + int_0^T A_k flow_k, here against 32 times the panels
        params = base_params
        samples = simulate(eq_path, params, SimConfig(paths=16000, seed=12345))
        assert np.count_nonzero(samples.x_i == samples.x_i.max()) == 9  # no claim

        def premium_flows(profile):
            c = insurer_premium_rate(params)
            return np.stack([accum_profile(params, party, profile.s) * flow for party, flow
                             in zip(PARTIES, (c - profile.p1 - profile.p2, profile.p1,
                                              profile.p2))])

        premiums = _tail_integrals(eq_path, params, 0.0, 64000, premium_flows)
        for k, party in enumerate(PARTIES):
            drift = params.accum(party, 0.0) * params.x0(party) + premiums[k]
            assert samples.by_party(party).max() == pytest.approx(drift, rel=1e-12, abs=0.0)

    def test_aggregate_claim_accounting(self, base_params, eq_path):
        samples = simulate(eq_path, base_params, SimConfig(paths=2000, seed=3))
        assert sum(samples.total_jumps) == pytest.approx(
            samples.total_claims, rel=1e-9)

    def test_mean_matches_closed_form_on_and_off_equilibrium(self, base_params,
                                                             eq_path):
        paths = {"equilibrium": eq_path,
                 "soft": constant_path(base_params, 0.25, 0.3),
                 "pricey": constant_path(base_params, 0.45, 0.6)}
        for label, path in paths.items():
            samples = simulate(path, base_params, SimConfig(paths=8000, seed=29))
            assert_means_match_closed_form(samples, path, base_params, label=label)

    def test_piecewise_rates_discount_each_event(self, base_params):
        # A_k(t_j) at the event times differs from any single flat-rate factor
        curve = RateCurve(((0.0, 0.05), (4.0, 0.2)), base_params.T)
        params = dataclasses.replace(base_params, rho_I=curve, rho_R1=curve,
                                     rho_R2=curve)
        path = equilibrium_path(params)
        samples = simulate(path, params, SimConfig(paths=20000, seed=41))
        assert_means_match_closed_form(samples, path, params)

    def test_general_law_mean_and_accounting(self, base_params):
        uniform = GenericClaims(lambda y: min(max(y / 2.0, 0.0), 1.0))
        params = dataclasses.replace(base_params, claims=uniform)
        path = constant_path(params, 0.45, 0.3)
        samples = simulate(path, params, SimConfig(paths=20000, seed=43))
        assert sum(samples.total_jumps) == pytest.approx(samples.total_claims,
                                                         rel=1e-9)
        assert_means_match_closed_form(samples, path, params)

    def test_invalid_config(self):
        with pytest.raises(DomainError):
            SimConfig(paths=0)


class TestEstimateObjectives:
    def test_constant_samples(self, base_params, eq_path):
        p0 = dataclasses.replace(base_params, lam=0.0)
        samples = simulate(eq_path, p0, SimConfig(paths=16, seed=4))
        est = estimate_objectives(samples, p0)
        for party in ("I", "R1", "R2"):
            assert est[party].variance == pytest.approx(0.0, abs=1e-18)
            assert est[party].se_mean == pytest.approx(0.0, abs=1e-12)
            assert est[party].se_variance == pytest.approx(0.0, abs=1e-18)
            assert est[party].j == est[party].mean

    def test_requires_two_paths(self, base_params, eq_path):
        samples = simulate(eq_path, base_params, SimConfig(paths=1, seed=4))
        with pytest.raises(DomainError):
            estimate_objectives(samples, base_params)

    def test_split_pool_consistency(self, base_params, eq_path):
        # halves of one run must agree with the pooled estimate within error,
        # and per-path streams make the first half equal a shorter run
        from reinsgame.simulate import TerminalSamples
        full = simulate(eq_path, base_params, SimConfig(paths=20000, seed=101))
        short = simulate(eq_path, base_params, SimConfig(paths=10000, seed=101))
        assert np.array_equal(full.x_i[:10000], short.x_i)
        pooled = estimate_objectives(full, base_params)
        for lo, hi in ((0, 10000), (10000, 20000)):
            half = TerminalSamples(full.x_i[lo:hi], full.x_r1[lo:hi],
                                   full.x_r2[lo:hi])
            est = estimate_objectives(half, base_params)
            for party in ("I", "R1", "R2"):
                gap = abs(est[party].j - pooled[party].j)
                assert gap <= 3 * est[party].se_j

    def test_j_definition(self, base_params, eq_path):
        samples = simulate(eq_path, base_params, SimConfig(paths=500, seed=8))
        est = estimate_objectives(samples, base_params)
        for party in ("I", "R1", "R2"):
            gamma = base_params.gamma(party)
            assert est[party].j == pytest.approx(
                est[party].mean - 0.5 * gamma * est[party].variance, rel=1e-12)
