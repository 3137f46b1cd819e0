import numpy as np
import pytest

from reinsgame.errors import NoRootError
from reinsgame.roots import bisect, bisect_array


class TestBisectArray:
    def test_matches_scalar_bisect_bit_for_bit(self):
        # one bracket per element; the last three put a midpoint exactly on the root
        roots = np.array([0.3, 1.0 / 3.0, 1e-7, 2.0, 1.0, -1.5])
        lo = np.array([0.0, -1.0, -1.0, 0.0, 0.0, -2.0])
        hi = np.array([1.0, 7.0, 1.0, 4.0, 2.0, -1.0])
        got = bisect_array(lambda x: np.tanh(x - roots), lo, hi)
        want = [bisect(lambda x, r=r: np.tanh(x - r), a, b, xtol=0.0)
                for r, a, b in zip(roots, lo, hi)]
        assert got.tolist() == want
        assert got[3:].tolist() == [2.0, 1.0, -1.5]

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
