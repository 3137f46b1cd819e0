"""``estimate_objectives`` against the textbook form of its sample moments.

It takes the third and fourth central moments as products of the centered
samples; the reference here raises them to the powers 3 and 4.  The two agree
to rounding, which the standard errors carry at 1e-13 relative.
"""
import math

import numpy as np
import pytest

from reinsgame.simulate import SimConfig, TerminalSamples, estimate_objectives, simulate
from reinsgame.valuation import PARTIES, no_reinsurance_path


def reference_estimate(xs, gamma):
    n = xs.size
    mean = float(np.mean(xs))
    var = float(np.var(xs, ddof=1))
    centered = xs - mean
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    var_of_var = max((m4 - (n - 3) / (n - 1) * var * var) / n, 0.0)
    var_j = max(var / n + (0.5 * gamma) ** 2 * var_of_var - gamma * m3 / n, 0.0)
    return mean, var, math.sqrt(var / n), math.sqrt(var_of_var), math.sqrt(var_j)


def sample_sets(base_params, eq_path):
    yield simulate(eq_path, base_params, SimConfig(paths=3000, seed=7))
    yield simulate(no_reinsurance_path(base_params), base_params, SimConfig(paths=2000, seed=3))
    rng = np.random.default_rng(16)  # skewed both ways, far from zero
    yield TerminalSamples(rng.gamma(0.5, 3.0, 5000) + 1e3, 50.0 - rng.gamma(2.0, 1.0, 5000),
                          rng.standard_normal(5000))


def test_matches_power_form(base_params, eq_path):
    for samples in sample_sets(base_params, eq_path):
        est = estimate_objectives(samples, base_params)
        for party in PARTIES:
            mean, var, se_mean, se_var, se_j = reference_estimate(
                samples.by_party(party), base_params.gamma(party))
            got = est[party]
            assert (got.mean, got.variance, got.se_mean) == (mean, var, se_mean)
            assert got.se_variance == pytest.approx(se_var, rel=1e-13, abs=0.0)
            assert got.se_j == pytest.approx(se_j, rel=1e-13, abs=0.0)
