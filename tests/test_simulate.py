import dataclasses
import importlib

import numpy as np
import pytest

from reinsgame.errors import DomainError
from reinsgame.market import GenericClaims, RateCurve, accumulations, insurer_premium_rate
from reinsgame.response import indemnity
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
            _, p1, p2 = profile.ledger.income
            return np.stack([params.accum(party, profile.s) * flow for party, flow
                             in zip(PARTIES, (c - p1 - p2, p1, p2))])

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

    @pytest.mark.parametrize("rates,distinct", [((0.1, 0.1, 0.1), 1), ((0.1, 0.05, 0.1), 2),
                                                ((0.1, 0.05, 0.02), 3)])
    def test_one_accumulation_factor_per_distinct_rate_curve(self, base_params, eq_path,
                                                             monkeypatch, rates, distinct):
        # each block computes A_k at its event times once per distinct rate curve
        # (equal curves are equal values, not one object): two more blocks add
        # that many factors
        params = dataclasses.replace(base_params, **{
            f"rho_{party}": RateCurve.flat(rate, base_params.T)
            for party, rate in zip(PARTIES, rates)})
        module = importlib.import_module("reinsgame.simulate")
        factors = []

        def counted(*args):
            result = accumulations(*args)
            factors.append(len({id(a) for a in result}))
            return result
        monkeypatch.setattr(module, "accumulations", counted)
        counts = []
        for paths in (1024, 3072):
            factors.clear()
            simulate(eq_path, params, SimConfig(paths=paths, seed=5))
            counts.append(sum(factors))
        assert counts[1] - counts[0] == 2 * distinct

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

    @pytest.mark.parametrize("field,value", [("paths", 2.5), ("paths", 50.0), ("paths", True),
                                             ("seed", 1.5), ("seed", False), ("seed", "1")])
    def test_paths_and_seed_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SimConfig(**{"paths": 50, field: value})

    def test_numpy_integers_are_integers(self, base_params, eq_path):
        numpy_ints = simulate(eq_path, base_params, SimConfig(np.int32(50), np.int64(1)))
        assert np.array_equal(numpy_ints.x_i,
                              simulate(eq_path, base_params, SimConfig(50, 1)).x_i)


def simple_simulate(path, params, paths, seed):
    # simulate written plainly: a new generator per block of 1024 paths, and the
    # loadings by np.interp at the event times in the order they were drawn
    def premium_flows(profile):
        return np.stack([a * flow for a, flow in zip(profile.accum, profile.ledger.income)])
    premiums = _tail_integrals(path, params, 0.0, 2000, premium_flows)
    out = np.empty((3, paths))
    total_claims, total_jumps = 0.0, np.zeros(3)
    for block, first in enumerate(range(0, paths, 1024)):
        keep = min(1024, paths - first)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
        counts = rng.poisson(params.lam * params.T, 1024)
        times = rng.uniform(0.0, params.T, counts.sum())
        sizes = params.claims.ppf(rng.random(counts.sum()))
        events = counts[:keep].sum()
        times, sizes = times[:events], sizes[:events]
        accum = accumulations(params, times)
        contract = path._contract(times, np.interp(times, path.grid, path._xi1),
                                  np.interp(times, path.grid, path._xi2), accum[0])
        l1, l2, retained = indemnity(sizes, contract)
        owner = np.repeat(np.arange(keep), counts[:keep])
        for k, (party, paid) in enumerate(zip(PARTIES, (retained, l1, l2))):
            drift = params.accum(party, 0.0) * params.x0(party) + premiums[k]
            out[k, first:first + keep] = drift - np.bincount(owner, weights=accum[k] * paid,
                                                             minlength=keep)
            total_jumps[k] += paid.sum()
        total_claims += float(sizes.sum())
    return out, total_claims, tuple(float(v) for v in total_jumps)


class TestSimpleLoop:
    @pytest.fixture(scope="class", params=["reference", "piecewise_rates", "uniform_0_2"])
    def market(self, request, base_params, eq_path):
        if request.param == "reference":
            return base_params, eq_path
        if request.param == "piecewise_rates":
            params = dataclasses.replace(
                base_params, rho_I=RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0),
                rho_R1=RateCurve(((0.0, 0.02), (4.0, 0.15)), 8.0))
        else:
            params = dataclasses.replace(base_params, claims=GenericClaims(
                lambda y: min(max(y / 2.0, 0.0), 1.0)))
        return params, equilibrium_path(params)

    @pytest.mark.parametrize("paths", [1, 1023, 1024, 1025, 3001])
    def test_simulate_is_the_simple_loop_bit_for_bit(self, market, paths):
        params, path = market
        samples = simulate(path, params, SimConfig(paths=paths, seed=2024))
        out, total_claims, total_jumps = simple_simulate(path, params, paths, 2024)
        for k, party in enumerate(PARTIES):
            assert np.array_equal(samples.by_party(party), out[k]), party
        assert samples.total_claims == total_claims
        assert samples.total_jumps == total_jumps


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
