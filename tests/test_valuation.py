import dataclasses
import math

import numpy as np
import pytest

from reinsgame import valuation
from reinsgame.config import default_market_params
from reinsgame.errors import DomainError
from reinsgame.market import (GenericClaims, RateCurve, insurer_premium_rate,
                              ledger, running_reward)
from reinsgame.response import no_reinsurance
from reinsgame.valuation import (PARTIES, StrategyPath, closed_form_objective,
                                 constant_path, equilibrium_path, no_reinsurance_path,
                                 path_profile, value_intercepts)


@pytest.fixture(scope="module")
def flat_short_params(base_params):
    """rho = 0, T = 1: compound-Poisson moments are exact by hand."""
    zero = RateCurve.flat(0.0, 1.0)
    return dataclasses.replace(base_params, T=1.0, rho_I=zero, rho_R1=zero,
                               rho_R2=zero)


class TestClosedFormObjective:
    def test_no_reinsurance_compound_poisson_moments(self, flat_short_params):
        # E = x + (c - lam a_Y) T = x + 0.1, Var = lam T sigma_Y^2 = 2
        path = no_reinsurance_path(flat_short_params)
        for x in (0.0, 1.0, 5.0):
            val = closed_form_objective("I", path, flat_short_params, 0.0, x)
            assert val.mean == pytest.approx(x + 0.1, abs=1e-9)
            assert val.variance == pytest.approx(2.0, abs=1e-9)
            assert val.j == pytest.approx(x, abs=1e-9)

    def test_no_reinsurance_reinsurers_inert(self, flat_short_params):
        path = no_reinsurance_path(flat_short_params)
        for party in ("R1", "R2"):
            val = closed_form_objective(party, path, flat_short_params, 0.0, 10.0)
            assert val.mean == pytest.approx(10.0, abs=1e-12)
            assert val.variance == 0.0

    def test_zero_intensity(self, base_params, eq_path):
        p0 = dataclasses.replace(base_params, lam=0.0)
        for party in ("I", "R1", "R2"):
            val = closed_form_objective(party, eq_path, p0, 0.0, 3.0)
            assert val.mean == pytest.approx(p0.accum(party, 0.0) * 3.0, rel=1e-12)
            assert val.variance == 0.0
            assert val.j == val.mean

    def test_affine_in_surplus(self, base_params, eq_path):
        for party in ("I", "R1", "R2"):
            lo = closed_form_objective(party, eq_path, base_params, 1.0, 0.0)
            hi = closed_form_objective(party, eq_path, base_params, 1.0, 10.0)
            slope = (hi.mean - lo.mean) / 10.0
            assert slope == pytest.approx(base_params.accum(party, 1.0), rel=1e-12)
            assert hi.variance == pytest.approx(lo.variance, rel=1e-12)

    def test_terminal_time(self, base_params, eq_path):
        val = closed_form_objective("I", eq_path, base_params, base_params.T, 4.2)
        assert (val.mean, val.variance, val.j) == (4.2, 0.0, 4.2)

    def test_j_never_exceeds_mean(self, base_params, eq_path):
        for party in ("I", "R1", "R2"):
            val = closed_form_objective(party, eq_path, base_params, 0.0, 1.0)
            assert val.j <= val.mean
            assert val.variance >= 0.0

    @pytest.mark.parametrize("t", [0.0, 8.0])
    def test_unknown_party_raises(self, base_params, eq_path, t):
        with pytest.raises(DomainError, match="unknown party 'X'"):
            closed_form_objective("X", eq_path, base_params, t, 1.0)

    @pytest.mark.parametrize("panels", [0, -4, 2.5, True, False, 2000.0, "2000", None])
    def test_panels_must_be_a_positive_integer(self, base_params, eq_path, panels):
        # was ZeroDivisionError (0, -4), TypeError (2.5) or a 1-panel run (True)
        for t in (0.0, base_params.T):
            with pytest.raises(DomainError, match="panels must be an integer of at least 1"):
                closed_form_objective("I", eq_path, base_params, t, 1.0, panels=panels)

    def test_numpy_integer_panels(self, base_params, eq_path):
        assert (closed_form_objective("R1", eq_path, base_params, 0.0, 1.0, panels=np.int64(50))
                == closed_form_objective("R1", eq_path, base_params, 0.0, 1.0, panels=50))


class TestValueIntercept:
    # t = 0, T/2 and the rows of --grid 0:8:7, four of which fall between the
    # equilibrium path's nodes
    TIMES = np.array([0.0, 4.0, 4 / 3, 8 / 3, 16 / 3, 20 / 3, 8.0])

    @staticmethod
    def per_time_simpson(party, params, path, t, panels=2000):
        # the reference: a fresh profile and composite Simpson over [t, T] per time
        from scipy import integrate
        if t >= params.T:
            return 0.0
        s = np.linspace(t, params.T, panels + 1)
        a_s = params.accum(party, s)
        reward = running_reward(path_profile(path, params, s).ledger, params, party, a_s)
        return float(integrate.simpson(a_s * reward, x=s))

    @pytest.fixture(params=["equilibrium", "constant", "no_reinsurance"])
    def path(self, request, base_params, eq_path):
        return {"equilibrium": eq_path,
                "constant": constant_path(base_params, 0.4, 0.5),
                "no_reinsurance": no_reinsurance_path(base_params)}[request.param]

    def test_terminal_condition(self, base_params, eq_path):
        assert value_intercepts(eq_path, base_params, base_params.T).tolist() == [0.0] * 3
        assert value_intercepts(eq_path, base_params, self.TIMES)[:, -1].tolist() == [0.0] * 3

    def test_zero_intensity_vanishes(self, base_params, eq_path):
        p0 = dataclasses.replace(base_params, lam=0.0)
        assert value_intercepts(eq_path, p0, 0.0) == pytest.approx([0.0] * 3, abs=1e-15)
        assert np.all(value_intercepts(eq_path, p0, self.TIMES) == 0.0)

    @staticmethod
    def value(path, params, t, x):
        # V_k(t, x) = A_k(t) x + B_k(t), one entry per party
        b = value_intercepts(path, params, t)
        return [params.accum(party, t) * x + b[k] for k, party in enumerate(PARTIES)]

    def test_value_equals_objective_at_equilibrium(self, base_params, eq_path):
        # V(t, x) = A x + B(t) must reproduce J at the equilibrium strategies
        for k, party in enumerate(PARTIES):
            x0 = base_params.x0(party)
            for t in (0.0, base_params.T / 2, base_params.T):
                j = closed_form_objective(party, eq_path, base_params, t, x0).j
                assert self.value(eq_path, base_params, t, x0)[k] == pytest.approx(j, abs=1e-6)

    def test_reference_intercepts(self, base_params, eq_path):
        # frozen from an independent Simpson integration of the reduced
        # running rewards on a 4001-point grid
        assert value_intercepts(eq_path, base_params, 0.0) == \
            pytest.approx([-0.0632231, 0.1676435, 0.1294820], abs=2e-6)

    def test_off_equilibrium_constant_path(self, base_params):
        # V-vs-J consistency is an identity of the integrands, so it holds
        # along any deterministic path, not only the equilibrium one
        path = constant_path(base_params, 0.4, 0.5)
        for k, party in enumerate(PARTIES):
            j = closed_form_objective(party, path, base_params, 2.0, 7.0).j
            assert self.value(path, base_params, 2.0, 7.0)[k] == pytest.approx(j, abs=1e-6)

    def test_array_matches_scalar_bit_for_bit(self, base_params, path):
        # a time between nodes integrates its own panel, so its value does not
        # depend on the other times in the array
        times = np.concatenate([self.TIMES, [1e-300, 3.14159, base_params.T - 1e-15]])
        b = value_intercepts(path, base_params, times)
        assert isinstance(b, np.ndarray) and b.shape == (3,) + times.shape
        scalar = [value_intercepts(path, base_params, float(t)) for t in times]
        assert all(row.shape == (3,) for row in scalar)
        assert b.T.tolist() == [row.tolist() for row in scalar]

    def test_matches_per_time_simpson(self, base_params, path):
        b = value_intercepts(path, base_params, self.TIMES)
        for k, party in enumerate(PARTIES):
            ref = [self.per_time_simpson(party, base_params, path, t) for t in self.TIMES]
            assert b[k] == pytest.approx(ref, rel=0, abs=5e-9)

    def test_path_aligned_nodes_converged(self, base_params, eq_path):
        # the per-time Simpson cuts across the path's kinks and converges only
        # at 100x the panels; the path-aligned nodes are converged at the default
        t = 4 / 3
        b = value_intercepts(eq_path, base_params, t)
        for k, party in enumerate(PARTIES):
            fine = self.per_time_simpson(party, base_params, eq_path, t, panels=200_000)
            assert b[k] == pytest.approx(fine, rel=0, abs=1e-12)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), 9.0])
    def test_time_outside_horizon_raises(self, base_params, eq_path, t):
        with pytest.raises(DomainError, match="outside"):
            value_intercepts(eq_path, base_params, t)
        with pytest.raises(DomainError, match="outside"):
            value_intercepts(eq_path, base_params, np.array([0.0, t, 4.0]))


class TestStrategyPaths:
    def test_equilibrium_path_matches_pointwise_solve(self, base_params, eq_path):
        from reinsgame.expo import constrained_equilibrium
        for t in (0.0, 3.3, 8.0):
            eq = constrained_equilibrium(base_params, t)
            assert float(eq_path.xi1(t)) == pytest.approx(eq.xi1_star, abs=1e-7)
            assert float(eq_path.xi2(t)) == pytest.approx(eq.xi2_star, abs=1e-7)

    def test_no_reinsurance_premiums_vanish(self, base_params):
        from reinsgame.valuation import path_profile
        profile = path_profile(no_reinsurance_path(base_params), base_params,
                               np.linspace(0.0, 8.0, 5))
        assert np.all(profile.ledger.income[1] == 0.0)
        assert np.all(profile.ledger.income[2] == 0.0)
        assert np.allclose(profile.ledger.payout[0],
                           base_params.lam * base_params.claims.mean)

    @pytest.mark.parametrize("law", ["exponential", "uniform_0_2"])
    def test_profile_matches_premium_rates(self, base_params, eq_path, law):
        # the uniform law checks GenericClaims.truncated on an array of
        # deductibles against its scalar evaluation in premium_rates
        from reinsgame.market import GenericClaims, PremiumPoint, premium_rates
        from reinsgame.response import response
        from reinsgame.valuation import path_profile
        params, path = base_params, eq_path
        if law == "uniform_0_2":
            params = dataclasses.replace(base_params, claims=GenericClaims(
                lambda y: min(max(y / 2.0, 0.0), 1.0)))
            path = constant_path(params, 0.3, 0.15)  # d from 0.92 to 1.61, inside [0, 2]
        s = np.array([0.0, 2.5, 7.0])
        profile = path_profile(path, params, s)
        for i, t in enumerate(s):
            point = PremiumPoint(float(path.xi1(t)), float(path.xi2(t)), float(t))
            p1, p2 = premium_rates(point, response(point, params), params)
            assert profile.ledger.income[1][i] == pytest.approx(p1, rel=1e-12)
            assert profile.ledger.income[2][i] == pytest.approx(p2, rel=1e-12)

    @pytest.mark.parametrize("kind", ["equilibrium", "constant", "no_reinsurance"])
    def test_response_at_shuffled_times(self, base_params, eq_path, kind):
        # response() interpolates an array of times in sorted order and scatters
        # the loadings back; the contract must be the one at the times as given
        path = {"equilibrium": eq_path,
                "constant": constant_path(base_params, 0.3, 0.15),
                "no_reinsurance": no_reinsurance_path(base_params)}[kind]
        rng = np.random.default_rng(16)
        t = np.concatenate([eq_path.grid, [0.0, base_params.T],
                            rng.uniform(0.0, base_params.T, 4000)])
        t = rng.permutation(np.concatenate([t, t[::7], t[-100:]]))  # repeated times
        got = path.response(t)
        want = path._contract(t, np.interp(t, path.grid, path._xi1),
                              np.interp(t, path.grid, path._xi2),
                              base_params.accum("I", t))
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), \
                field.name


class TestPathGrid:
    """A path is built on a 1-D, finite, strictly increasing grid with one finite loading
    per node; an array of times is interpolated in grid-cell order, which must give
    ``np.interp`` at the times in their given order on any grid."""

    @pytest.mark.parametrize("grid,xi1,xi2", [
        ([8.0, 0.0], [0.3, 0.3], [0.15, 0.15]),
        ([0.0, 4.0, 4.0, 8.0], [0.3] * 4, [0.15] * 4),
        ([[0.0, 8.0]], [[0.3, 0.3]], [[0.15, 0.15]]),
        ([], [], []),
        ([0.0, math.nan], [0.3, 0.3], [0.15, 0.15]),
        ([0.0, math.inf], [0.3, 0.3], [0.15, 0.15]),
        ([0.0, 8.0], [0.3], [0.15, 0.15]),
        ([0.0, 8.0], [0.3, 0.3], [0.15, 0.15, 0.15]),
        ([0.0, 8.0], [0.3, math.nan], [0.15, 0.15]),
        ([0.0, 8.0], [0.3, 0.3], [0.15, -math.inf]),
    ])
    def test_rejects_a_bad_grid_or_loadings(self, base_params, grid, xi1, xi2):
        with pytest.raises(DomainError, match="strictly increasing grid"):
            StrategyPath(base_params, grid, xi1, xi2)

    def test_one_point_is_a_constant_path(self, base_params):
        one = StrategyPath(base_params, [4.0], [0.3], [0.15])
        two = constant_path(base_params, 0.3, 0.15)
        t = np.linspace(0.0, base_params.T, 17)
        for field in ("q", "d", "cap", "retention_limit"):
            assert getattr(one.response(t), field).tolist() == \
                getattr(two.response(t), field).tolist(), field
        for party in PARTIES:
            assert closed_form_objective(party, one, base_params, 1.0, 2.0) == \
                closed_form_objective(party, two, base_params, 1.0, 2.0)

    # (T, grid) by kind: grids that np.interp serves in cell order, the 70001-node one
    # with keys of 32 bits, a one-point grid, and uniform grids read by cell arithmetic,
    # on [0, T] or inside the horizon
    SORTED = {"non_uniform": (8.0, 8.0 * np.linspace(0.0, 1.0, 300) ** 3),
              "inside_the_horizon": (8.0, np.sort(np.random.default_rng(24).uniform(1, 6.5, 50))),
              "70001_points_non_uniform": (8.0, 8.0 * np.linspace(0.0, 1.0, 70001) ** 3)}
    GRIDS = {**SORTED,
             "one_point": (8.0, np.array([3.0])),
             "two_points": (8.0, np.array([0.0, 8.0])),
             "uniform_inside_the_horizon": (8.0, np.linspace(1.0, 6.5, 50)),
             "40001_points": (8.0, np.linspace(0.0, 8.0, 40001)),
             "70001_points": (8.0, np.linspace(0.0, 8.0, 70001)),
             **{f"{n}_points_T_{T:g}": (T, np.linspace(0.0, T, n))
                for n in (2, 3, 801, 4001) for T in (1.0, 3.7, 10.0)}}

    @pytest.mark.parametrize("kind", list(GRIDS))
    def test_response_is_interp_in_the_given_order(self, eq_path, kind, monkeypatch):
        T, grid = self.GRIDS[kind]
        params = default_market_params(T=T)
        rng = np.random.default_rng(24)
        path = StrategyPath(params, grid, eq_path.xi1(grid * 8.0 / T), eq_path.xi2(grid * 8.0 / T))
        # every node and one ulp either side of it, the ends of [0, T] and random times
        inside = np.concatenate([grid, np.nextafter(grid, -math.inf), np.nextafter(grid, math.inf),
                                 [0.0, T], rng.uniform(0.0, T, 4000)])
        inside = inside[(inside >= 0.0) & (inside <= T)]
        inside = rng.permutation(np.concatenate([inside, inside[::7], inside[-100:]]))  # repeats
        off = [math.nan, -1.0, T + 1.0, -math.inf, math.inf]  # NaN and times off the grid
        t = rng.permutation(np.concatenate([inside, off]))
        xi1, xi2 = np.interp(t, grid, path._xi1), np.interp(t, grid, path._xi2)
        interp, asked = np.interp, []
        with monkeypatch.context() as patch:
            patch.setattr(np, "interp", lambda x, *args: asked.append(x) or interp(x, *args))
            loadings = path._loadings(t)
        for got, want in zip(loadings, (xi1, xi2)):
            assert np.array_equal(got, want, equal_nan=True)
        if kind in self.SORTED:
            # the times reach np.interp in the order of their cells of [grid[0], grid[-1]]
            # cut into grid.size - 1 equal parts, NaN in the first
            scale = (grid.size - 1) / (grid[-1] - grid[0])
            clipped = np.fmin(np.fmax(asked[0], grid[0]), grid[-1])
            cells = np.floor((clipped - grid[0]) * scale)
            assert np.all(np.diff(cells) >= 0)
        elif grid.size > 1:
            assert not asked  # a uniform grid's cells are read by arithmetic
        got = path.response(inside)
        want = path._contract(inside, np.interp(inside, grid, path._xi1),
                              np.interp(inside, grid, path._xi2), params.accum("I", inside))
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), \
                field.name


class TestOneContractPerTime:
    """The path's contract, the boxed equilibrium's and ``response`` read one A_I(t),
    so at a time they share they give the same contract, bit for bit."""

    @pytest.fixture(params=["reference", "piecewise_rates"])
    def params(self, request, base_params):
        if request.param == "reference":
            return base_params
        return dataclasses.replace(
            base_params, rho_I=RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0),
            rho_R1=RateCurve(((0.0, 0.02), (4.0, 0.15)), 8.0))

    def test_path_contract_is_the_equilibrium_contract(self, params):
        from reinsgame.expo import constrained_equilibrium
        path = equilibrium_path(params)
        want = constrained_equilibrium(params, path.grid).response
        for got in (path.response(path.grid), path.response(path.grid.tolist())):
            for field in ("q", "d", "cap", "retention_limit"):
                assert getattr(got, field).tolist() == getattr(want, field).tolist(), field

    def test_response_at_the_point_is_the_equilibrium_contract(self, params):
        from reinsgame.expo import constrained_equilibrium
        from reinsgame.response import response
        for t in np.linspace(0.0, params.T, 81).tolist():
            eq = constrained_equilibrium(params, t)
            assert response(eq.point(), params) == eq.response, t

    @pytest.mark.parametrize("t", [9.0, -3.0, math.nan])
    def test_time_outside_horizon_is_named(self, base_params, eq_path, t):
        name = rf"bounds \[{t:g}, 8\]"
        for times in (t, np.array([0.0, 4.0, t, 8.0])):
            with pytest.raises(DomainError, match=name):
                eq_path.response(times)
            with pytest.raises(DomainError, match=name):
                path_profile(eq_path, base_params, times)
        with pytest.raises(DomainError, match=name):
            path_profile(no_reinsurance_path(base_params), base_params, np.array([1.0, t]))


class TestLedger:
    """Identities of ``market.ledger``, which the objectives, the value intercepts and
    the Monte Carlo drift all read: each party's reduced HJB margin is its income less
    its payout, and the three drifts sum to lam theta a_Y, as premiums only move money
    between the parties and retained + l1 + l2 is the claim."""

    LAWS = {"uniform_0_2": lambda y: min(max(y / 2.0, 0.0), 1.0),
            "erlang_2": lambda y: 0.0 if y <= 0.0 else (-math.expm1(-2.0 * y)
                                                        - 2.0 * y * math.exp(-2.0 * y))}

    @staticmethod
    def assert_identities(led, params):
        tol = 8.0 * np.finfo(float).eps * insurer_premium_rate(params)
        for k in range(len(PARTIES)):
            assert np.max(np.abs(led.margin[k] - (led.income[k] - led.payout[k]))) <= tol
        total = params.lam * params.theta * params.claims.mean
        drifts = sum(i - p for i, p in zip(led.income, led.payout))
        assert np.max(np.abs(drifts - total)) <= tol
        assert np.max(np.abs(sum(led.margin) - total)) <= tol

    @pytest.mark.parametrize("law", ["exponential", "uniform_0_2", "erlang_2"])
    def test_equilibrium_path(self, base_params, eq_path, law):
        params, path = base_params, eq_path
        if law != "exponential":
            params = dataclasses.replace(base_params, claims=GenericClaims(self.LAWS[law]))
            path = equilibrium_path(params)
        led = path_profile(path, params, path.grid).ledger
        assert all(np.shape(v) == (801,) for v in led.income + led.margin)
        self.assert_identities(led, params)

    @pytest.mark.parametrize("xi1,xi2", [(0.0, 0.0), (0.3, 0.4)])
    def test_no_reinsurance_contract(self, base_params, xi1, xi2):
        # d = inf: the insurer keeps every claim and no premium changes hands
        led = ledger(no_reinsurance(), xi1, xi2, base_params)
        self.assert_identities(led, base_params)
        assert led.income[1:] == led.payout[1:] == led.margin[1:] == (0.0, 0.0)
        assert led.payout[0] == pytest.approx(base_params.lam * base_params.claims.mean)


class TestSharedNodeProfile:
    """``_tail_integrals`` profiles a path's Simpson nodes once per (params, n_panels)
    key and keeps one such profile per path."""

    @pytest.fixture
    def node_calls(self, monkeypatch):
        # the sizes of the grids path_profile is called on; node grids have
        # n_panels + 1 points, the own panels of off-node times far fewer
        sizes, profile = [], valuation.path_profile

        def spy(path, params, s):
            sizes.append(np.size(s))
            return profile(path, params, s)
        monkeypatch.setattr(valuation, "path_profile", spy)
        return sizes

    @staticmethod
    def fresh(path):
        return StrategyPath(path.params, path.grid, path.xi1(path.grid), path.xi2(path.grid))

    @staticmethod
    def bits(objectives):
        return np.array([(v.mean, v.variance, v.j) for v in objectives]).tobytes()

    def objectives(self, path, params, panels=2000):
        return [closed_form_objective(party, path, params, 0.0, params.x0(party) + 1.0,
                                      panels=panels) for party in PARTIES]

    def test_three_objectives_profile_the_nodes_once(self, base_params, eq_path, node_calls):
        shared = self.objectives(self.fresh(eq_path), base_params)
        assert node_calls == [3201]
        separate = [closed_form_objective(party, self.fresh(eq_path), base_params, 0.0,
                                          base_params.x0(party) + 1.0) for party in PARTIES]
        assert self.bits(shared) == self.bits(separate)

    def test_intercepts_then_objective_share_the_profile(self, base_params, eq_path,
                                                         node_calls):
        # B profiles the nodes with two points (the time and its panel's midpoint) per row
        # between nodes in one call, and J reads that profile without rebuilding it
        path, times = self.fresh(eq_path), np.linspace(0.0, base_params.T, 81)
        off_node = np.isin(times, np.linspace(0.0, base_params.T, 3201), invert=True).sum()
        assert off_node == 16
        b = value_intercepts(path, base_params, times)
        profile = path._node_profile[1]
        j = closed_form_objective("R2", path, base_params, 0.0, 1.0)
        assert node_calls == [3201 + 2 * off_node]
        assert path._node_profile[1] is profile
        assert b.tobytes() == value_intercepts(self.fresh(eq_path), base_params, times).tobytes()
        assert j == closed_form_objective("R2", self.fresh(eq_path), base_params, 0.0, 1.0)

    @pytest.mark.parametrize("change", ["params", "panels"])
    def test_another_key_recomputes(self, base_params, eq_path, node_calls, change):
        path = self.fresh(eq_path)
        self.objectives(path, base_params)
        params = dataclasses.replace(base_params, lam=0.0) if change == "params" else base_params
        panels = 400 if change == "panels" else 2000
        again = self.objectives(path, params, panels)
        assert node_calls == [3201, 3201 if change == "params" else 1601]  # 2 panels a cell
        assert self.bits(again) == self.bits(self.objectives(self.fresh(eq_path), params, panels))

    def test_one_slot(self, base_params, eq_path, node_calls):
        # keys A, B, A: the second A finds B in the slot, so the path holds one profile
        path, other = self.fresh(eq_path), dataclasses.replace(base_params, lam=0.0)
        for params in (base_params, other, base_params):
            closed_form_objective("I", path, params, 0.0, 1.0)
        assert node_calls == [3201] * 3


class TestKeptNodeTail:
    """The slot keeps each integrand integrated on its nodes, with its node tail, up to
    three: the three objectives evaluate ``_objective_rows`` on the nodes and run the
    Simpson once, other integrands between them keep that tail, and another market or
    node count replaces what is kept."""

    fresh = staticmethod(TestSharedNodeProfile.fresh)
    bits = staticmethod(TestSharedNodeProfile.bits)

    @pytest.fixture
    def row_calls(self, monkeypatch):
        # the sizes of the profiles _objective_rows is evaluated on
        sizes, rows = [], valuation._objective_rows

        def spy(profile):
            sizes.append(profile.s.size)
            return rows(profile)
        monkeypatch.setattr(valuation, "_objective_rows", spy)
        return sizes

    @staticmethod
    def objectives(path, params, t=0.0, panels=2000):
        return [closed_form_objective(party, path, params, t, params.x0(party) + 1.0,
                                      panels=panels) for party in PARTIES]

    @pytest.mark.parametrize("t", [0.0, 1.2345678])
    def test_three_objectives_integrate_the_nodes_once(self, base_params, eq_path,
                                                       row_calls, t):
        shared = self.objectives(self.fresh(eq_path), base_params, t)
        # t = 1.2345678 lies between nodes: the first call profiles its panel with the
        # nodes, and the two later ones evaluate that panel's own two points
        assert row_calls == ([3201] if t == 0.0 else [3203, 2, 2])
        separate = [closed_form_objective(party, self.fresh(eq_path), base_params, t,
                                          base_params.x0(party) + 1.0) for party in PARTIES]
        assert self.bits(shared) == self.bits(separate)

    def test_intercepts_between_objectives_keep_both_tails(self, base_params, eq_path,
                                                           row_calls):
        path, times = self.fresh(eq_path), np.linspace(0.0, base_params.T, 81)
        first = self.objectives(path, base_params)
        b = value_intercepts(path, base_params, times)
        assert list(path._node_profile[2]) == [valuation._objective_rows,
                                               valuation._intercept_rows]
        again = self.objectives(path, base_params)
        assert row_calls == [3201]
        want = self.objectives(self.fresh(eq_path), base_params)
        assert self.bits(first) == self.bits(again) == self.bits(want)
        assert b.tobytes() == value_intercepts(self.fresh(eq_path), base_params,
                                               times).tobytes()

    def test_intercepts_again_reuse_the_tail(self, base_params, eq_path, monkeypatch):
        # value_intercepts' integrand is one module function, so a second call on the
        # path profiles no node and runs no Simpson, and gives the first call's bits
        path = self.fresh(eq_path)
        first = value_intercepts(path, base_params, 0.0)
        calls = []
        for name in ("path_profile", "_tail_integral"):
            def spy(*args, real=getattr(valuation, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(valuation, name, spy)
        again = value_intercepts(path, base_params, 0.0)
        assert calls == []
        assert again.tobytes() == first.tobytes()
        assert first.tobytes() == value_intercepts(self.fresh(eq_path), base_params,
                                                   0.0).tobytes()

    def test_five_closures_keep_three_tails(self, base_params, eq_path):
        # each closure is a new integrand: the slot drops the oldest beyond three, and a
        # dropped one is integrated again with the same bits
        path, closures = self.fresh(eq_path), [lambda p, k=k: np.stack(p.accum) * (k + 1.0)
                                               for k in range(5)]
        first = [valuation._tail_integrals(path, base_params, 0.0, 2000, f) for f in closures]
        assert list(path._node_profile[2]) == closures[2:]
        again = valuation._tail_integrals(path, base_params, 0.0, 2000, closures[0])
        assert list(path._node_profile[2]) == closures[3:] + closures[:1]
        assert again.tobytes() == first[0].tobytes()

    @pytest.mark.parametrize("change", ["params", "panels"])
    def test_another_key_replaces_the_tail(self, base_params, eq_path, row_calls, change):
        path = self.fresh(eq_path)
        self.objectives(path, base_params)
        params = dataclasses.replace(base_params, lam=0.0) if change == "params" else base_params
        panels = 400 if change == "panels" else 2000
        again = self.objectives(path, params, panels=panels)
        assert row_calls == [3201, 3201 if change == "params" else 1601]
        assert self.bits(again) == self.bits(
            self.objectives(self.fresh(eq_path), params, panels=panels))
