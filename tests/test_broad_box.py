"""Property test of the boxed equilibrium over a broad admissible box.

Every point of the box must give either a typed library error or an in-box,
finite equilibrium that is a mutual best response under the general-law
reaction maps, with the raw reaction maps equal to the closed forms and the
array path equal to the scalar one.  The box: gamma_I, gamma_R1, gamma_R2
log-uniform on [1e-3, 10], beta log-uniform on [0.05, 20], theta uniform on
[0.01, 1], eta - theta log-uniform on [1e-3, 5], T log-uniform on [0.1, 50],
a flat rate per party uniform on [0, 0.5] and t uniform on [0, T).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinsgame.errors import ReinsGameError
from reinsgame.expo import constrained_equilibrium, h1_inv, h2
from reinsgame.market import Exponential, MarketParams, RateCurve, admissible_box
from reinsgame.reaction import reaction_xi1, reaction_xi2


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def broad_box_point(u):
    """(params, t) from 11 numbers in [0, 1), in the order of the box above."""
    g_i, g_r1, g_r2 = (_log_uniform(v, 1e-3, 10.0) for v in u[:3])
    theta = 0.01 + u[4] * 0.99
    T = _log_uniform(u[6], 0.1, 50.0)
    rho_i, rho_r1, rho_r2 = (RateCurve.flat(0.5 * v, T) for v in u[7:10])
    params = MarketParams(T=T, lam=1.0, theta=theta, eta=theta + _log_uniform(u[5], 1e-3, 5.0),
                          gamma_I=g_i, gamma_R1=g_r1, gamma_R2=g_r2, rho_I=rho_i,
                          rho_R1=rho_r1, rho_R2=rho_r2,
                          claims=Exponential(_log_uniform(u[3], 0.05, 20.0)))
    return params, u[10] * T


def assert_mutual_best_response(params, t):
    (lo1, hi1), (lo2, hi2) = admissible_box(params)
    eq = constrained_equilibrium(params, t)
    assert math.isfinite(eq.xi1_star) and math.isfinite(eq.xi2_star)
    assert lo1 <= eq.xi1_star <= hi1 and lo2 <= eq.xi2_star <= hi2
    xi2_br = reaction_xi2(eq.xi1_star, params, t)
    xi1_br = reaction_xi1(eq.xi2_star, params, t)
    assert xi2_br == pytest.approx(h2(eq.xi1_star, params, t), rel=1e-12, abs=0.0)
    assert xi1_br == pytest.approx(h1_inv(eq.xi2_star, params, t), rel=1e-8, abs=0.0)
    assert min(max(xi2_br, lo2), hi2) == pytest.approx(eq.xi2_star, rel=1e-8, abs=0.0)
    assert min(max(xi1_br, lo1), hi1) == pytest.approx(eq.xi1_star, rel=1e-8, abs=0.0)
    grid = constrained_equilibrium(params, np.array([t]))
    assert grid.xi1_star[0] == pytest.approx(eq.xi1_star, rel=1e-12, abs=0.0)
    assert grid.xi2_star[0] == pytest.approx(eq.xi2_star, rel=1e-12, abs=0.0)
    assert grid.regime[0] is eq.regime


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=11, max_size=11))
def test_broad_box_point_is_a_mutual_best_response(u):
    params, t = broad_box_point(u)
    try:
        assert_mutual_best_response(params, t)
    except ReinsGameError:
        pass  # a typed error naming the failed condition is an accepted outcome


# Points of the seed-5 draw of 4000 (11 uniforms per point, in the box's
# order) where the reaction maps once disagreed with the closed forms:
# 1: R2's root sits at beta d = 829, where both terms of its FOC underflow
# to 0, and the scan returned 1.0703 for h2 = 1.1238; 2191: the guessed xi2
# bracket reached 6.5e8 and the scan took the exact 0 of two underflowed
# terms at its second node, 1.03e7, for h2 = 0.123; 3655: R1's root sits at
# beta d = 1.6e-6, where the closed-form moments below d had lost every
# digit, and reaction_xi1 returned 8.2e6 for h1_inv = 650.07.
@pytest.mark.parametrize("index", [1, 2191, 3655])
def test_seed5_regressions(index):
    u = np.random.default_rng(5).uniform(size=(4000, 11))[index]
    assert_mutual_best_response(*broad_box_point(u.tolist()))
