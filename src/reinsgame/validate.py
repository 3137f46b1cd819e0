"""Self-check suite behind the CLI ``validate`` command.

Each check returns (name, passed, detail), and ``run_checks`` adds its wall
time in seconds; tolerances scale with a single multiplier so they can be
loosened for exploratory runs via REINS_TOL without touching the defaults.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import expo, reaction
from .config import default_market_params
from .market import Exponential, MarketParams, PremiumPoint, admissible_box
from .response import indemnity, response
from .simulate import SimConfig, estimate_objectives, simulate
from .valuation import closed_form_objective, equilibrium_path

_VALIDATE_PATHS = 4000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _strictly_monotone(vals, increasing: bool) -> bool:
    diffs = np.diff(vals)
    return bool(np.all(diffs > 0) if increasing else np.all(diffs < 0))


def check_e_g_G_monotone(params: MarketParams, t: float, tol: float) -> CheckResult:
    rng = np.random.default_rng(7)
    c1 = reaction.foc_ratios(PremiumPoint(1.0, 0.0, t), params).c_r1
    xs = np.sort(rng.uniform(1e-4, 12.0, 400))
    ok = (_strictly_monotone([expo.e_fun(x) for x in xs], increasing=True)
          and _strictly_monotone([expo.g_fun(x, c1) for x in xs], increasing=False)
          and _strictly_monotone([expo.G_fun(x, c1) for x in xs], increasing=False))
    return CheckResult("e_g_G_monotone", ok, "e increasing, g and G decreasing")


def check_h1_h2_monotone(params: MarketParams, t: float, tol: float) -> CheckResult:
    lo, hi = expo.h1_domain(params, t)
    xs = np.linspace(lo * (1 + 1e-6), hi * (1 - 1e-6), 100)
    h1v = [expo.h1(x, params, t) for x in xs]
    h2v = [expo.h2(x, params, t) for x in xs]
    ok = _strictly_monotone(h1v, True) and _strictly_monotone(h2v, True)
    return CheckResult("h1_h2_monotone", ok, "both reaction curves increasing in xi1")


def check_indemnity(params: MarketParams, t: float, tol: float) -> CheckResult:
    rng = np.random.default_rng(11)
    (b1, b2), (c1, c2) = admissible_box(params)
    worst = 0.0
    for _ in range(100):
        point = PremiumPoint(rng.uniform(b1, b2), rng.uniform(c1, c2), t)
        resp = response(point, params)
        for y in np.append(rng.uniform(0.0, 4.0 * params.claims.mean, 20), resp.d):
            l1, l2, kept = indemnity(float(y), resp)
            if l1 < 0 or l2 < 0 or l1 + l2 > y + 1e-12:
                return CheckResult("indemnity", False, f"bounds violated at y={y}")
            worst = max(worst, abs(l1 + l2 + kept - y))
        below = indemnity(resp.d, resp)
        above = indemnity(resp.d * (1 + 1e-13) + 1e-300, resp)
        worst = max(worst, max(abs(a - b) for a, b in zip(below, above)))
    ok = worst < 1e-10 * max(1.0, 4.0 * params.claims.mean) * tol
    return CheckResult("indemnity", ok, f"mass balance/continuity defect {worst:.2e}")


def check_foc_cross(params: MarketParams, t: float, tol: float) -> CheckResult:
    lo, hi = expo.h1_domain(params, t)
    beta = params.claims.beta
    worst = 0.0
    for xi1 in np.linspace(lo * 1.02, hi * 0.98, 12):
        worst = max(worst, abs(reaction.reaction_xi2(xi1, params, t)
                               - expo.h2(xi1, params, t)))
    for xi2 in np.linspace(0.15, 0.7, 12):
        worst = max(worst, abs(reaction.reaction_xi1(xi2, params, t)
                               - expo.h1_inv(xi2, params, t)))
    eq = expo.constrained_equilibrium(params, t)
    ratio = reaction.foc_ratios(eq.point(), params).b_r1_ratio
    ident = abs(ratio - expo.G_fun(beta * eq.response.d,
                                   reaction.foc_ratios(eq.point(), params).c_r1))
    ok = worst < 1e-6 * tol and ident < 1e-9 * tol
    return CheckResult("foc_cross_checks", ok,
                       f"reaction-vs-closed-form {worst:.2e}, quadratic identity {ident:.2e}")


def check_regimes(params: MarketParams, t: float, tol: float) -> CheckResult:
    expected = {0.2: expo.Regime.UPPER_RIGHT, 0.4: expo.Regime.XI2_CAP_ONLY,
                1.0: expo.Regime.INTERIOR, 3.0: expo.Regime.XI1_FLOOR_ONLY,
                4.5: expo.Regime.LOWER_LEFT}
    for beta, want in expected.items():
        p = _with_beta(params, beta)
        eq = expo.constrained_equilibrium(p, t)
        if eq.regime is not want:
            return CheckResult("prop_regimes", False,
                               f"beta={beta}: got {eq.regime.value}, want {want.value}")
    return CheckResult("prop_regimes", True, "all five boxed cases tagged as published")


def check_boxed_best_response(params: MarketParams, t: float, tol: float) -> CheckResult:
    worst = 0.0
    for beta in (0.2, 0.31, 0.35, 0.4, 1.0, 2.0, 3.0, 4.5):
        p = _with_beta(params, beta)
        (b1, b2), (c1, c2) = admissible_box(p)
        eq = expo.constrained_equilibrium(p, t)
        br1 = min(max(reaction.reaction_xi1(eq.xi2_star, p, t), b1), b2)
        br2 = min(max(reaction.reaction_xi2(eq.xi1_star, p, t), c1), c2)
        worst = max(worst, abs(br1 - eq.xi1_star), abs(br2 - eq.xi2_star))
    ok = worst < 1e-8 * tol
    return CheckResult("boxed_mutual_best_response", ok, f"max clamp defect {worst:.2e}")


def check_single_crossing(params: MarketParams, t: float, tol: float) -> CheckResult:
    lo, hi = expo.h1_domain(params, t)
    xs = np.linspace(lo * (1 + 1e-9), hi * (1 - 1e-9), 400)
    signs = np.sign([expo.h1(x, params, t) - expo.h2(x, params, t) for x in xs])
    changes = int(np.sum(np.abs(np.diff(signs)) > 0))
    return CheckResult("h1_h2_single_crossing", changes == 1,
                       f"{changes} sign change(s) on the bracket")


def check_time_monotone(params: MarketParams, t: float, tol: float) -> CheckResult:
    ts = np.linspace(0.0, params.T, 33)
    eq = expo.constrained_equilibrium(params, ts)
    ok = bool(np.all(np.diff(eq.xi1_star) <= 1e-12)
              and np.all(np.diff(eq.xi2_star) <= 1e-12))
    return CheckResult("premiums_nonincreasing_in_time", ok,
                       "equilibrium loadings decay toward the horizon")


def check_lambda_invariance(params: MarketParams, t: float, tol: float) -> CheckResult:
    p5 = dataclasses.replace(params, lam=5.0 * max(params.lam, 1.0))
    a = expo.constrained_equilibrium(params, t)
    b = expo.constrained_equilibrium(p5, t)
    diff = max(abs(a.xi1_star - b.xi1_star), abs(a.xi2_star - b.xi2_star))
    return CheckResult("lambda_invariance", diff < 1e-12 * tol,
                       f"equilibrium shift under intensity rescale {diff:.2e}")


def check_mc_vs_closed_form(params: MarketParams, t: float, tol: float) -> CheckResult:
    path = equilibrium_path(params, n_grid=201)
    samples = simulate(path, params, SimConfig(paths=_VALIDATE_PATHS, seed=7))
    estimates = estimate_objectives(samples, params)
    worst_z = 0.0
    for party in ("I", "R1", "R2"):
        cf = closed_form_objective(party, path, params, 0.0, params.x0(party))
        est = estimates[party]
        worst_z = max(worst_z, abs(est.j - cf.j) / max(est.se_j, 1e-300))
    p0 = dataclasses.replace(params, lam=0.0)
    s0 = simulate(equilibrium_path(p0, n_grid=3), p0, SimConfig(paths=2, seed=1))
    det = max(abs(s0.x_i[0] - p0.accum("I", 0.0) * p0.x0_I),
              abs(s0.x_r1[0] - p0.accum("R1", 0.0) * p0.x0_R1),
              abs(s0.x_r2[0] - p0.accum("R2", 0.0) * p0.x0_R2))
    ok = worst_z <= 3.0 * tol and det < 1e-9 * tol
    return CheckResult("mc_vs_closed_form", ok,
                       f"max |z| {worst_z:.2f} (gate 3.0), lam=0 defect {det:.2e}")


def _with_beta(params: MarketParams, beta: float) -> MarketParams:
    return dataclasses.replace(params, claims=Exponential(beta))


_CHECKS = (check_e_g_G_monotone, check_h1_h2_monotone, check_indemnity,
           check_foc_cross, check_regimes, check_boxed_best_response,
           check_single_crossing, check_time_monotone, check_lambda_invariance,
           check_mc_vs_closed_form)


def run_checks(params: MarketParams | None = None, t: float = 0.0,
               tol_scale: float = 1.0) -> list[CheckResult]:
    """Run the full invariant suite; ``tol_scale`` loosens every gate."""
    params = params or default_market_params()
    if not isinstance(params.claims, Exponential):
        raise ValueError("the validation suite assumes exponential claims")
    results = []
    for check in _CHECKS:
        start = time.perf_counter()
        try:
            result = check(params, t, tol_scale)
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(check.__name__.removeprefix("check_"),
                                 False, f"raised {type(exc).__name__}: {exc}")
        results.append(dataclasses.replace(result, seconds=time.perf_counter() - start))
    return results
