import dataclasses

import numpy as np
import pytest

from reinsgame import reaction
from reinsgame.errors import DomainError, NoRootError
from reinsgame.expo import constrained_equilibrium
from reinsgame.market import GenericClaims
from reinsgame.roots import bisect, chandrupatla
from reinsgame.roots import chandrupatla as bisect_array  # the array root finder
from tests.test_market import erlang2_cdf


class TestBisectArray:
    def test_matches_scalar_bisect_bit_for_bit(self):
        # one bracket per element; the last three put a midpoint exactly on the root.
        # With the end signs given, f is never called at an end, so an end value
        # computed as rounding noise of the wrong sign (here -1e-17 at every upper
        # end, where tanh is positive) does not raise.
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 2.0, 1.0, -1.5])
        lo = np.array([0.0, -1.0, -1.0, 0.0, 0.0, -2.0])
        hi = np.array([1.0, 7.0, 1.0, 4.0, 2.0, -1.0])
        for known_ends in (False, True):
            ends = {"f_lo": -1.0, "f_hi": 1.0} if known_ends else {}
            calls = []

            def f(x):
                calls.append(x)
                return np.where(known_ends & (x == hi), -1e-17, np.tanh(x - roots))

            def f_i(x, r, b):
                return -1e-17 if known_ends and x == b else np.tanh(x - r)

            got = bisect_array(f, lo, hi, **ends)
            want = [bisect(lambda x, r=r, b=b: f_i(x, r, b), a, b, xtol=0.0, **ends)
                    for r, a, b in zip(roots, lo, hi)]
            assert got.tolist() == want
            assert got[3:].tolist() == [2.0, 1.0, -1.5]
            called_at_an_end = any(np.any((x == lo) | (x == hi)) for x in calls)
            assert called_at_an_end != known_ends

    def test_zero_at_an_end_is_returned(self):
        # x (x - 1) on [0, 2] and x (x + 1) on [-2, 0] vanish at an end and at
        # the first midpoint: like the scalar rule, the end comes back
        shift = np.array([1.0, -1.0])
        got = bisect_array(lambda x: x * (x - shift), np.array([0.0, -2.0]),
                           np.array([2.0, 0.0]))
        want = [bisect(lambda x, s=s: x * (x - s), a, b, xtol=0.0)
                for s, a, b in zip(shift, (0.0, -2.0), (2.0, 0.0))]
        assert got.tolist() == want == [0.0, 0.0]

    def test_no_sign_change_raises(self):
        with pytest.raises(NoRootError):
            bisect_array(lambda x: x * x + 1.0, np.array([-1.0, 0.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("end", [np.inf, -np.inf, np.nan])
    def test_non_finite_bracket_end_raises(self, end):
        # such a bracket never narrows below its tolerance
        with pytest.raises(DomainError, match="not finite"):
            bisect_array(lambda x: x - 1.0, np.array([0.0, 0.0]), np.array([2.0, end]),
                         f_lo=-1.0, f_hi=1.0)

    def test_nan_residual_at_the_root_raises(self):
        # a NaN residual at an iterate steers like a non-positive one, so both
        # elements close on the NaN region
        with pytest.raises(DomainError, match="NaN at the root"):
            bisect_array(lambda x: np.where(x > 0.5, np.nan, x - 0.75),
                         np.array([0.0, 0.0]), np.array([1.0, 2.0]), f_lo=-1.0, f_hi=1.0)


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


def worst_case(lo, hi, root, computed_ends=0):
    """Steps that halve the bracket below 4 eps |root| + 4 tiny, when every third
    step halves it, plus the end evaluations."""
    halvings = np.floor(np.log2((hi - lo) / (4.0 * EPS * np.abs(root) + 4.0 * TINY))) + 1
    return 3 * halvings + 1 + computed_ends


def longest_stall(log, residual, lo, hi, sign_lo):
    """Per element, the longest run of steps that left the bracket wider than half
    (up to rounding), rebuilt from the abscissae and the residuals' signs."""
    a, b, prev = lo.copy(), hi.copy(), None
    run = best = np.zeros(lo.shape, int)
    for x in log:
        fresh = np.ones(lo.shape, bool) if prev is None else x != prev
        left = (residual(x) > 0) == (sign_lo > 0)
        a_new, b_new = np.where(left, x, a), np.where(left, b, x)
        halved = np.abs(b_new - a_new) <= 0.5 * np.abs(b - a) + 4.0 * EPS * np.abs(x)
        run = np.where(fresh, np.where(halved, 0, run + 1), run)
        best = np.maximum(best, run)
        a, b, prev = a_new, b_new, x
    return best


@pytest.fixture
def solves(monkeypatch):
    """Per-element evaluation counts of each array root solve in ``reaction``."""
    counts = []

    def spy(f, lo, hi, **ends):
        log = []
        root = chandrupatla(counted(f, log), lo, hi, **ends)
        counts.append(evaluations(log))
        return root
    monkeypatch.setattr(reaction, "chandrupatla", spy)
    return counts


class TestChandrupatla:
    def test_evaluations_on_the_reference_path(self, base_params, solves):
        # only the fixed point in d: no time is on a floor or cap branch and no
        # xi2 is clamped, so neither R2's reply nor R1's runs
        constrained_equilibrium(base_params, np.linspace(0.0, base_params.T, 801))
        assert [c.size for c in solves] == [801]
        assert max(int(c.max()) for c in solves) <= 16
        assert int(solves[0].max()) <= 6

    def test_evaluations_on_the_erlang2_path(self, base_params, solves):
        # the fixed point, then R2's reply and R1's reply at the 82 times on the
        # floor branch
        constrained_equilibrium(erlang2_params(base_params),
                                np.linspace(0.0, base_params.T, 801))
        assert [c.size for c in solves] == [801, 82, 82]
        assert max(int(c.max()) for c in solves) <= 16

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
            "step": lambda x: np.where(x < roots, -1.0, 1.0),
            # sign-saturated -1 and +1 plateaus, the right one reaching
            # the root, around a shallow smooth branch
            "plateaus": lambda x: np.where(x >= roots, 1.0, np.where(
                x < roots - 0.1, -1.0, 1e-3 * (x - roots))),
            # infinite slope at the root, where interpolation converges slowly
            "cbrt": lambda x: np.cbrt(x - roots),
            # a triple root, flat
            "cube": lambda x: (x - roots) ** 3,
            # a steep concave branch left of the root, a linear one right of it:
            # interpolation passes Chandrupatla's test yet lands on the root's
            # left, up to 6 steps in a row, unless the halving safeguard bisects
            "skewed": lambda x: np.where(
                x < roots, -np.abs(roots - x) ** np.array([0.023, 1.97, 0.0215, 0.543, 0.0141]),
                np.array([5554.0, 0.0301, 84036.0, 6.51, 68.2]) * (x - roots)),
            "zero_first": lambda x: x - roots,
        }[case]
        log = []
        got = chandrupatla(counted(residual, log), lo, hi, f_lo=-1.0, f_hi=1.0)
        assert np.all((lo < got) & (got < hi))
        assert np.all(np.abs(got - roots) <= 8.0 * EPS * np.abs(roots) + 8.0 * TINY)
        assert np.all(longest_stall(log, residual, lo, hi, -1.0) <= 2)
        assert np.all(evaluations(log) <= worst_case(lo, hi, roots))
        if case == "zero_first":
            assert len(log) == 1 and got.tolist() == roots.tolist()

    def test_sign_only_ends_are_never_evaluated_or_interpolated(self):
        # Computed at the ends, tanh(x - r) would be interpolated through. Given as
        # signs, the ends are never evaluated, and their magnitudes, from 1e-300
        # (smaller than any residual) to 1e300, change no abscissa and no result.
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 1.999])
        lo, hi = np.array([0.0, -1.0, -1.0, 0.0]), np.array([1.0, 7.0, 1.0, 2.0])
        runs = []
        for size in (1e-300, 1.0, 1e300):
            log = []
            got = chandrupatla(counted(lambda x: np.tanh(x - roots), log), lo, hi,
                               f_lo=-size, f_hi=size)
            assert not any(np.any((x == lo) | (x == hi)) for x in log)
            runs.append((got.tolist(), [x.tolist() for x in log]))
        assert runs[0] == runs[1] == runs[2]
        assert np.all(np.abs(np.array(runs[0][0]) - roots) <= 4.0 * EPS * np.abs(roots))

    def test_root_within_an_ulp_of_a_sign_only_end(self):
        # the end a root sits next to keeps its sign-only value, so bisecting
        # towards it never closes in; after 3 such steps the next one probes just
        # inside it (50 evaluations without the probe)
        lo, hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        ends = np.array([1.0, 2.0])
        roots = np.nextafter(ends, 1.5)
        log = []
        got = chandrupatla(counted(lambda x: x - roots, log), lo, hi, f_lo=-1.0, f_hi=1.0)
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
            return np.where(sign_only[i], np.where(x < roots[i], -1.0, 1.0),
                            np.tanh(x - roots[i]))
        whole = chandrupatla(residual, lo, hi, f_lo=-1.0, f_hi=1.0)
        alone = [chandrupatla(lambda x, i=i: residual(x, [i]), lo[[i]], hi[[i]],
                              f_lo=-1.0, f_hi=1.0)[0] for i in range(roots.size)]
        assert whole.tolist() == alone

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

        def spy(f, lo, hi, **ends):
            root = chandrupatla(f, lo, hi, **ends)
            calls.append((f, lo, hi, root))
            return root
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
