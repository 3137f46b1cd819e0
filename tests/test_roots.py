import dataclasses
import math
import sys

import numpy as np
import pytest

from reinsgame import reaction, roots
from reinsgame.errors import DomainError
from reinsgame.expo import Regime, constrained_equilibrium, h1_domain
from reinsgame.market import GenericClaims, RateCurve, admissible_box
from reinsgame.roots import bisect, chandrupatla, chandrupatla_scalar
from reinsgame.roots import chandrupatla as bisect_array  # the array root finder
from tests.test_expo import flat_rate_params
from tests.test_market import erlang2_cdf


class TestBisectArray:
    def test_matches_scalar_bisect_bit_for_bit(self):
        # one bracket per element; the last three put a midpoint exactly on the root.
        # f is never called at an end, so an end value computed as rounding noise
        # of the wrong sign (here 1e-17 at every upper end, where the residual is
        # negative) does not steer the solve.
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 2.0, 1.0, -1.5])
        lo = np.array([0.0, -1.0, -1.0, 0.0, 0.0, -2.0])
        hi = np.array([1.0, 7.0, 1.0, 4.0, 2.0, -1.0])
        calls = []

        def f(x):
            calls.append(x)
            return np.where(x == hi, 1e-17, np.tanh(roots - x))

        def f_i(x, r, b):
            return 1e-17 if x == b else np.tanh(r - x)

        got = bisect_array(f, lo, hi)[0]
        want = [bisect(lambda x, r=r, b=b: f_i(x, r, b), a, b, xtol=0.0, f_lo=1.0, f_hi=-1.0)
                for r, a, b in zip(roots, lo, hi)]
        assert got.tolist() == want
        assert got[3:].tolist() == [2.0, 1.0, -1.5]
        assert not any(np.any((x == lo) | (x == hi)) for x in calls)

    @pytest.mark.parametrize("end", [np.inf, -np.inf, np.nan])
    def test_non_finite_bracket_end_raises(self, end):
        # such a bracket never narrows below its tolerance
        with pytest.raises(DomainError, match="not finite"):
            bisect_array(lambda x: 1.0 - x, np.array([0.0, 0.0]), np.array([2.0, end]))

    def test_nan_residual_at_the_root_raises(self):
        # a NaN residual at an iterate steers like a non-positive one, so both
        # elements close on the NaN region
        with pytest.raises(DomainError, match="NaN at the root"):
            bisect_array(lambda x: np.where(x > 0.5, np.nan, 0.75 - x),
                         np.array([0.0, 0.0]), np.array([1.0, 2.0]))


EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


def erlang2_params(params):
    return dataclasses.replace(params, claims=GenericClaims(erlang2_cdf))


def counted(f, log):
    """f, recording each array of abscissae it is called with in ``log``."""
    def g(x):
        log.append(np.copy(x))
        return f(x)
    return g


def evaluations(log):
    # residual evaluations per element: a stopped element is called again at
    # its last abscissa, every new one differs from the one before
    xs = np.array(log)
    return 1 + np.count_nonzero(np.diff(xs, axis=0), axis=0)


def worst_case(lo, hi, root):
    """Steps that halve the bracket below 4 eps |root| + 4 tiny, when every third
    step halves it."""
    halvings = np.floor(np.log2((hi - lo) / (4.0 * EPS * np.abs(root) + 4.0 * TINY))) + 1
    return 3 * halvings + 1


def longest_stall(log, residual, lo, hi):
    """Per element, the longest run of steps that left the bracket wider than half
    (up to rounding), rebuilt from the abscissae and the residuals' signs."""
    a, b, prev = lo.copy(), hi.copy(), None
    run = best = np.zeros(lo.shape, int)
    for x in log:
        fresh = np.ones(lo.shape, bool) if prev is None else x != prev
        left = residual(x) > 0
        a_new, b_new = np.where(left, x, a), np.where(left, b, x)
        halved = np.abs(b_new - a_new) <= 0.5 * np.abs(b - a) + 4.0 * EPS * np.abs(x)
        run = np.where(fresh, np.where(halved, 0, run + 1), run)
        best = np.maximum(best, run)
        a, b, prev = a_new, b_new, x
    return best


@pytest.fixture
def solves(monkeypatch):
    """Per-element evaluation counts of each root solve in ``reaction``: an array solve's,
    and a scalar solve's as one element."""
    counts = []

    def spy(f, lo, hi):
        log = []
        result = chandrupatla(counted(f, log), lo, hi)
        counts.append(evaluations(log))
        return result

    def spy_scalar(f, lo, hi):
        calls = []
        result = chandrupatla_scalar(counted_scalar(f, calls), lo, hi)
        counts.append(np.array(calls))
        return result
    monkeypatch.setattr(reaction, "chandrupatla", spy)
    monkeypatch.setattr(reaction, "chandrupatla_scalar", spy_scalar)
    return counts


class TestChandrupatla:
    def test_evaluations_on_the_reference_path(self, base_params, solves):
        # only the fixed point in d, one scalar solve as C is the same at every time:
        # no time is on a floor or cap branch and no xi2 is clamped, so neither R2's
        # reply nor R1's runs
        constrained_equilibrium(base_params, np.linspace(0.0, base_params.T, 801))
        assert [c.size for c in solves] == [1]
        assert max(int(c.max()) for c in solves) <= 16
        assert int(solves[0].max()) <= 6

    def test_evaluations_on_the_erlang2_path(self, base_params, solves):
        # the fixed point, one scalar solve, then R2's reply and R1's reply at the
        # 82 times on the floor branch
        constrained_equilibrium(erlang2_params(base_params),
                                np.linspace(0.0, base_params.T, 801))
        assert [c.size for c in solves] == [1, 82, 82]
        assert max(int(c.max()) for c in solves) <= 16

    @pytest.mark.parametrize("rates", ["rho_R2_005", "piecewise"])
    def test_time_varying_coefficients_take_one_array_fixed_point(self, base_params, solves,
                                                                   rates):
        # C varies in t: the fixed point is one array solve over every time
        params = time_varying_c_params(base_params, rates)
        ts = np.linspace(0.0, params.T, 801)
        _, c1, c2 = reaction._gamma_profiles(params, ts)
        assert np.unique(np.stack([c1, c2]), axis=1).shape[1] > 1
        constrained_equilibrium(params, ts)
        assert solves[0].size == 801

    @pytest.mark.parametrize("case", ["step", "plateaus", "cbrt", "cube", "skewed",
                                      "zero_first"])
    def test_adversarial_residuals_stay_within_the_worst_case(self, case):
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 2.0, 51.379649718179, -1.5])
        lo = np.array([0.0, -1.0, -1.0, 0.0, 0.0, -2.0])
        hi = np.array([1.0, 7.0, 1.0, 4.0, 128.0, 1.0])
        if case == "skewed":
            roots, lo, hi = np.array([0.77, 0.283, 0.26, 0.504, 0.552]), np.zeros(5), np.ones(5)
        if case == "zero_first":  # the first iterate, the midpoint, is the root
            roots = 0.5 * (lo + hi)
        residual = {
            # sign only: every value is +-1
            "step": lambda x: np.where(x < roots, 1.0, -1.0),
            # sign-saturated +1 and -1 plateaus, the right one reaching
            # the root, around a shallow smooth branch
            "plateaus": lambda x: np.where(x >= roots, -1.0, np.where(
                x < roots - 0.1, 1.0, 1e-3 * (roots - x))),
            # infinite slope at the root, where interpolation converges slowly
            "cbrt": lambda x: np.cbrt(roots - x),
            # a triple root, flat
            "cube": lambda x: (roots - x) ** 3,
            # a steep power-law branch left of the root, a linear one right of it:
            # interpolation passes Chandrupatla's test yet lands on the root's
            # left, up to 6 steps in a row, unless the halving safeguard bisects
            "skewed": lambda x: np.where(
                x < roots, np.abs(roots - x) ** np.array([0.023, 1.97, 0.0215, 0.543, 0.0141]),
                np.array([5554.0, 0.0301, 84036.0, 6.51, 68.2]) * (roots - x)),
            "zero_first": lambda x: roots - x,
        }[case]
        log = []
        got = chandrupatla(counted(residual, log), lo, hi)[0]
        assert np.all((lo < got) & (got < hi))
        assert np.all(np.abs(got - roots) <= 8.0 * EPS * np.abs(roots) + 8.0 * TINY)
        assert np.all(longest_stall(log, residual, lo, hi) <= 2)
        assert np.all(evaluations(log) <= worst_case(lo, hi, roots))
        if case == "zero_first":
            assert len(log) == 1 and got.tolist() == roots.tolist()

    def test_sign_only_ends_are_never_evaluated_or_interpolated(self):
        # Computed at the ends, tanh(r - x) would be interpolated through. Known
        # only by sign, the ends are never evaluated, and the first two steps,
        # each of whose interpolations would use an end, bisect.
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 1.999])
        lo, hi = np.array([0.0, -1.0, -1.0, 0.0]), np.array([1.0, 7.0, 1.0, 2.0])
        log = []
        got = chandrupatla(counted(lambda x: np.tanh(roots - x), log), lo, hi)[0]
        assert not any(np.any((x == lo) | (x == hi)) for x in log)
        assert log[0].tolist() == (hi + 0.5 * (lo - hi)).tolist()
        end = np.where(np.tanh(roots - log[0]) > 0, hi, lo)  # the end the root is towards
        assert log[1].tolist() == (log[0] + 0.5 * (end - log[0])).tolist()
        assert np.all(np.abs(got - roots) <= 4.0 * EPS * np.abs(roots))

    def test_root_within_an_ulp_of_a_sign_only_end(self):
        # the end a root sits next to keeps its sign-only value, so bisecting
        # towards it never closes in; after 3 such steps the next one probes just
        # inside it (50 evaluations without the probe)
        lo, hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        ends = np.array([1.0, 2.0])
        roots = np.nextafter(ends, 1.5)
        log = []
        got = chandrupatla(counted(lambda x: roots - x, log), lo, hi)[0]
        assert not any(np.any((x == lo) | (x == hi)) for x in log)
        assert np.all(evaluations(log) <= 8)
        assert np.all(np.abs(got - ends) <= 4.0 * EPS * ends + 4.0 * TINY)

    def test_each_element_alone_gives_the_same_root_bitwise(self):
        # elements stop after 1 to about 75 steps; a stopped one stays frozen
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 2.0, 51.379649718179, 0.5])
        lo = np.array([0.0, -1.0, -1.0, 0.0, 0.0, 0.0])
        hi = np.array([1.0, 7.0, 1.0, 4.0, 128.0, 1.0])
        sign_only = np.array([False, True, True, False, False, True])

        def residual(x, i=slice(None)):
            return np.where(sign_only[i], np.where(x < roots[i], 1.0, -1.0),
                            np.tanh(roots[i] - x))
        whole = np.stack(chandrupatla(residual, lo, hi))  # root, its residual, other end, its
        alone = np.hstack([np.stack(chandrupatla(lambda x, i=i: residual(x, [i]), lo[[i]],
                                                 hi[[i]])) for i in range(roots.size)])
        assert whole.tolist() == alone.tolist()

    @pytest.mark.parametrize("law", ["exponential", "erlang2"])
    def test_concatenated_grids_match_separate_calls_bitwise(self, base_params, law):
        # the CLI's trajectory solves the path's times and its rows' in one call
        params = base_params if law == "exponential" else erlang2_params(base_params)
        grids = [np.linspace(0.0, params.T, 801), np.linspace(0.0, params.T, 81),
                 np.array([7.9, 0.3, 4.0])]
        whole = constrained_equilibrium(params, np.concatenate(grids))
        start = 0
        for grid in grids:
            part = constrained_equilibrium(params, grid)
            rows = slice(start, start + grid.size)
            for got, want in ((whole.xi1_star, part.xi1_star),
                              (whole.xi2_star, part.xi2_star),
                              (whole.unconstrained[0], part.unconstrained[0]),
                              (whole.unconstrained[1], part.unconstrained[1])):
                assert got[rows].tolist() == want.tolist()
            assert whole.regime[rows] == part.regime
            start += grid.size

    def test_matches_scipy_find_root(self, base_params, monkeypatch):
        # SciPy >= 1.15 has an elementwise Chandrupatla; it is only an oracle here
        elementwise = pytest.importorskip("scipy.optimize.elementwise")
        calls = []

        def spy(f, lo, hi):
            result = chandrupatla(f, lo, hi)
            calls.append((f, lo, hi, result[0]))
            return result
        monkeypatch.setattr(reaction, "chandrupatla", spy)
        constrained_equilibrium(base_params, np.linspace(0.0, base_params.T, 801))
        for f, lo, hi, root in calls:
            def f_at(x, i, f=f, lo=lo, hi=hi):
                # SciPy passes only the unfinished elements i; the residuals
                # close over whole-grid coefficients
                full = 0.5 * (lo + hi)
                full[i] = x
                return f(full)[i]
            res = elementwise.find_root(f_at, (lo, hi), args=(np.arange(lo.size),),
                                        tolerances={"fatol": 0.0})
            assert np.all(res.success)
            np.testing.assert_allclose(root, res.x, rtol=16.0 * EPS, atol=0.0)

    def test_matches_scipy_find_root_where_c_varies(self, base_params, monkeypatch):
        # the reference path's C is one pair, so it solves its fixed point as a float
        # time does and makes no array solve; here C varies in t
        self.test_matches_scipy_find_root(time_varying_c_params(base_params, "rho_R2_005"),
                                          monkeypatch)


def time_varying_c_params(params, rates):
    """``params`` with rate curves that make (C_R1, C_R2) vary in time: rho_R2 = 0.05, or
    the piecewise curves of tests/test_valuation.py::TestOneContractPerTime."""
    if rates == "rho_R2_005":
        return dataclasses.replace(params, rho_R2=RateCurve.flat(0.05, params.T))
    return dataclasses.replace(
        params, rho_I=RateCurve(((0.0, 0.12), (1.5, 0.03), (5.0, 0.21)), 8.0),
        rho_R1=RateCurve(((0.0, 0.02), (4.0, 0.15)), 8.0))


def sweep_box_draw():
    """The 2000 points the benchmark's sweep_box workload draws at seed 1, batches
    0-7: log-uniform risk aversions on [0.02, 1] and beta on [0.25, 4], flat rates
    on [0, 0.2], T on [1, 10], t on [0, T)."""
    for batch in range(8):
        rng = np.random.default_rng([1, batch])
        for _ in range(250):
            gammas = tuple(math.exp(v) for v in rng.uniform(math.log(0.02), 0.0, 3))
            beta = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
            rhos = [float(r) for r in rng.uniform(0.0, 0.2, 3)]
            T = float(rng.uniform(1.0, 10.0))
            yield flat_rate_params(T, gammas, beta, rhos), float(rng.uniform(0.0, T))


def counted_scalar(f, counts):
    """f, counting its calls in a new entry of ``counts``."""
    counts.append(0)

    def g(x):
        counts[-1] += 1
        return f(x)
    return g


class TestChandrupatlaScalar:
    def assert_each_element_alone(self, run, monkeypatch):
        # runs a test of the array solver, then solves each element of each of its
        # calls with the scalar solver: the same root, final bracket and residuals
        # bit for bit, and the same residual evaluations
        calls = []

        def spy(f, lo, hi):
            log = []
            result = roots.chandrupatla(counted(f, log), lo, hi)
            calls.append((f, lo, hi, np.stack(result), evaluations(log)))
            return result
        monkeypatch.setattr(sys.modules[__name__], "chandrupatla", spy)
        run()
        monkeypatch.undo()
        assert calls
        for f, lo, hi, result, per_element in calls:
            for i in range(lo.size):
                counts = []
                residual = counted_scalar(lambda x, i=i: f(np.full(lo.shape, x))[i], counts)
                got = chandrupatla_scalar(residual, lo[i], hi[i])
                assert np.array(got).tobytes() == result[:, i].tobytes()
                assert counts == [per_element[i]]

    @pytest.mark.parametrize("case", ["step", "plateaus", "cbrt", "cube", "skewed",
                                      "zero_first"])
    def test_adversarial_residuals_match_the_array_solver(self, case, monkeypatch):
        array_tests = TestChandrupatla()
        self.assert_each_element_alone(
            lambda: array_tests.test_adversarial_residuals_stay_within_the_worst_case(case),
            monkeypatch)

    def test_root_within_an_ulp_of_a_sign_only_end_matches_the_array_solver(
            self, monkeypatch):
        self.assert_each_element_alone(
            TestChandrupatla().test_root_within_an_ulp_of_a_sign_only_end, monkeypatch)

    def test_returns_the_final_bracket(self):
        x, f_x, y, f_y = chandrupatla_scalar(lambda x: 2.0 - x * x, 0.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), rel=4.0 * EPS)
        assert f_x == 2.0 - x * x and f_y == 2.0 - y * y
        assert (f_x > 0) != (f_y > 0) and abs(f_x) <= abs(f_y)
        assert abs(x - y) < 4.0 * EPS * 2.0 + 4.0 * TINY
        # a root at an end: the final bracket keeps that end, whose residual is
        # known only by its sign
        x, f_x, y, f_y = chandrupatla_scalar(lambda x: 1.0 - x, 0.0, 1.0)
        assert 0.0 < 1.0 - x <= 4.0 * EPS and f_x == 1.0 - x
        assert (y, f_y) == (1.0, -math.inf)
        array = chandrupatla(lambda x: 1.0 - x, np.array([0.0]), np.array([1.0]))
        assert np.array([x, f_x, y, f_y]).tobytes() == np.concatenate(array).tobytes()

    def test_errors_and_ends_match_the_array_solver(self):
        for end in (math.inf, -math.inf, math.nan):
            for solve in (chandrupatla_scalar, chandrupatla):
                with pytest.raises(DomainError, match="not finite"):
                    solve(lambda x: 1.0 - x, 0.0, end)
        with pytest.raises(DomainError, match="NaN at the root"):
            chandrupatla_scalar(lambda x: math.nan if x > 0.5 else 0.75 - x, 0.0, 1.0)
        with pytest.raises(DomainError, match="NaN at the root"):
            chandrupatla(lambda x: np.where(x > 0.5, np.nan, 0.75 - x), 0.0, 1.0)

    def test_evaluations_on_the_sweep_box_draw(self, monkeypatch):
        # the fixed point at each point, and R1's reply where a clamp binds, that is
        # outside the Interior regime, and where h1_domain meets the xi1 box, which
        # decides the reply elsewhere; R2's 789 replies on the floor and cap branches
        # are closed-form for exponential claims, with no solve; bisection took a
        # median of 48 residual evaluations per solve, at most 56
        counts = []

        def spy(f, lo, hi):
            return chandrupatla_scalar(counted_scalar(f, counts), lo, hi)
        monkeypatch.setattr(reaction, "chandrupatla_scalar", spy)
        edge = open_replies = 0
        for params, t in sweep_box_draw():
            eq = constrained_equilibrium(params, t)
            (lo, hi), _ = admissible_box(params)
            reply_lo, reply_hi = h1_domain(params, t)
            edge += not lo <= eq.unconstrained[0] <= hi
            open_replies += eq.regime is not Regime.INTERIOR and reply_lo < hi and reply_hi > lo
        assert open_replies == 591
        assert len(counts) == 2000 + open_replies
        assert edge == 789
        assert counts.count(1) == 0
        assert max(counts) <= 16
