"""Closed-form reaction curves for exponential claims, and the boxed equilibrium.

Reinsurer 1's first-order condition reduces to a quadratic whose positive
root is ``G_fun``; composing with the deductible gives the two reaction
curves ``h1`` (reinsurer 1's, via the inverse of G) and ``h2`` (reinsurer
2's, fully explicit).  They are the paper's formulas and the oracles the
solves of :mod:`reinsgame.reaction` are held to; only ``G_inv`` solves here.
``h1_inv`` and ``unconstrained_fixed_point`` name reaction's solves.

``constrained_equilibrium`` clamps the reaction curves' crossing to the
admissibility box by the published three-case construction, with the regime
tagged, for any claim law, at a float time or, in one call, an array of times.
R2's reply runs only on the floor or cap branch, and R1's only where a clamp
binds: elsewhere the fixed point already solves R1's FOC.  On the reference
grid that is 5 residual evaluations per time in all.

Note: contrary to a side remark in the source analysis, h1 is strictly
*increasing* on its domain (it runs from 0 to +inf between the bracket
endpoints), which the property tests assert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, RangeError
from .market import Exponential, MarketParams, PremiumPoint, admissible_box, e_fun
from .reaction import (_fixed_point, _gamma_profiles, _kind, _r1_ratio, _r1_reply, _r2_reply,
                       h1_domain, reaction_xi1)
from .response import ResponseStrategy, layered_response
from .roots import chandrupatla_scalar

_EXP_OVERFLOW = 709.0  # math.exp overflows just above 709.78
_ENDPOINT_SHRINK = 1e-12


class Regime(str, Enum):
    """Which admissibility-box constraints bind at the clamped equilibrium.

    The tag pairs the branch of the published three-case split (the
    unconstrained xi1 below, inside or above the xi1 box: floor, middle,
    cap) with where xi2* landed (its floor, inside, its cap).  Five pairs
    have published names.  OTHER_BOUNDARY covers the four further pairs
    that occur; on 2000 box points drawn as the benchmark's sweep_box draws
    them (seed 1, batches 0-7), 269 were tagged so:

    - cap branch, xi2 inside (156): R2's reply to the capped xi1 is
      interior, and xi1* sat on its cap at every one of them;
    - middle branch, xi2 at its floor (105): the mirror of XI2_CAP_ONLY,
      xi1* inside its box (at its cap once);
    - floor branch, xi2 at its cap (6): the upper-left corner, xi1* on its
      floor;
    - cap branch, xi2 at its floor (2): the lower-right corner, xi1* on its
      cap.

    In every regime xi1* is reinsurer 1's boxed best response to xi2*.
    """

    INTERIOR = "Interior"
    UPPER_RIGHT = "UpperRight"
    XI2_CAP_ONLY = "Xi2CapOnly"
    XI1_FLOOR_ONLY = "Xi1FloorOnly"
    LOWER_LEFT = "LowerLeft"
    OTHER_BOUNDARY = "OtherBoundary"


@dataclass(frozen=True)
class EquilibriumResult:
    """Clamped premium equilibrium with its regime and unconstrained anchor.

    Solved on an array of times, every numeric field is an array over the
    times and ``regime`` is a tuple of one Regime per time.
    """

    xi1_star: float
    xi2_star: float
    response: ResponseStrategy
    regime: Regime
    unconstrained: tuple[float, float]
    t: float = 0.0

    def point(self) -> PremiumPoint:
        return PremiumPoint(self.xi1_star, self.xi2_star, self.t)


def g_fun(x: float, c_r1: float) -> float:
    """Positive root of the reduced quadratic in the FOC ratio, at e-value x.

    Strictly decreasing from g(0) = 1 to 2*c_r1/(2*c_r1+1) as x -> inf.
    """
    if x < 0 or c_r1 <= 0:
        raise DomainError("g_fun requires x >= 0 and c_r1 > 0")
    b = 2.0 * c_r1 - 1.0 + x * (2.0 * c_r1 + 1.0)
    root = math.hypot(b, math.sqrt(8.0 * c_r1 * (x + 1.0)))
    if b > 0:  # rationalized form avoids cancellation for large x
        return 4.0 * c_r1 * (x + 1.0) / (b + root)
    return 0.5 * (-b + root)


def g_range(c_r1: float) -> tuple[float, float]:
    """Open range (lim_{x->inf} g, g(0)) = (2C/(2C+1), 1) of g_fun(., c_r1);
    g(0) = (1 - 2C + sqrt((2C-1)^2 + 8C))/2 = 1 as (2C-1)^2 + 8C = (2C+1)^2."""
    return 2.0 * c_r1 / (2.0 * c_r1 + 1.0), 1.0


def G_fun(x: float, c_r1: float) -> float:
    """g_fun composed with e_fun; continuously decreasing on (0, inf).

    Computed as 2C rho(e(x)), R1's reply in the insurer's ratio rho
    (``reaction._r1_ratio``), which stays accurate where e(x) is huge (the
    composed form overflows there) and is G(inf) once e(x) overflows.
    """
    if not c_r1 > 0:
        raise DomainError("G_fun requires c_r1 > 0")
    rho_lo, delta = _r1_ratio(c_r1)
    e = e_fun(x)
    g = 2.0 * c_r1 * (rho_lo + delta(e))
    # rho overflows only where C is subnormal and e < 1, where the composed form is exact
    return g if g < math.inf else g_fun(e, c_r1)


def G_inv(y: float, c_r1: float) -> float:
    """Inverse of G_fun by ``chandrupatla_scalar`` on [1e-300, 709].

    Raises RangeError when y is not strictly inside G's open range; the
    endpoints are shrunk by 1e-12 relative so boundary values are rejected
    rather than evaluated; that keeps the root below x = 40, and the end
    signs are known (G falls from 1 towards G(inf) < y).
    """
    lim_inf, g0 = g_range(c_r1)
    if not (lim_inf * (1.0 + _ENDPOINT_SHRINK) <= y <= g0 * (1.0 - _ENDPOINT_SHRINK)):
        raise RangeError(f"G_inv argument {y!r} outside open range ({lim_inf}, {g0})")
    return chandrupatla_scalar(lambda x: G_fun(x, c_r1) - y, 1e-300, _EXP_OVERFLOW)[0]


def _beta(params: MarketParams) -> float:
    if not isinstance(params.claims, Exponential):
        raise DomainError("closed-form equilibrium requires exponential claims")
    return params.claims.beta


def h1(xi1: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 1's reaction curve: the xi2 solving its FOC at this xi1."""
    beta = _beta(params)
    a_i, c1, _ = _gamma_profiles(params, t)
    x = G_inv(c1 * a_i / xi1, c1)
    return a_i * x / (beta * (a_i / (2.0 * xi1) + 1.0))


def h2(xi1: float, params: MarketParams, t: float = 0.0) -> float:
    """Reinsurer 2's reaction curve: the xi2 solving its FOC at this xi1."""
    beta = _beta(params)
    a_i, _, c2 = _gamma_profiles(params, t)
    # 1 - a_i/(a_i + 2 xi1) written as 2 xi1/(a_i + 2 xi1): no cancellation
    # when a_i >> xi1
    return (a_i / beta) * (c2 + 2.0 * xi1 / (a_i + 2.0 * xi1))


h1_inv = reaction_xi1  # R1's best response to xi2: the xi1 with h1(xi1) = xi2


def unconstrained_fixed_point(params: MarketParams, t: float = 0.0) -> tuple[float, float]:
    return _fixed_point(params, float(t))  # the reaction curves' positive crossing, no box


# Regime per the published case analysis, at index 3 * branch + landed: the
# branch of the three-case split that fired (0 floor, 1 middle, 2 cap) and
# where xi2* landed (0 inside its box, 1 its floor, 2 its cap).  This
# reproduces the published regime thresholds; inside the cap branch xi1*
# itself may come off the corner (see Regime).
_REGIMES = (Regime.XI1_FLOOR_ONLY, Regime.LOWER_LEFT, Regime.OTHER_BOUNDARY,
            Regime.INTERIOR, Regime.OTHER_BOUNDARY, Regime.XI2_CAP_ONLY,
            Regime.OTHER_BOUNDARY, Regime.OTHER_BOUNDARY, Regime.UPPER_RIGHT)


def _replies(solve, mask, default, arg, params: MarketParams, t, coefs):
    # default, with solve(arg, params, t, coefs) where mask holds: a float time's
    # reply runs or not, an array's runs on the times that need it
    if not isinstance(t, np.ndarray):
        return solve(arg, params, t, coefs) if mask else default
    out = default.copy()
    if mask.any():
        out[mask] = solve(arg[mask], params, t[mask], tuple(c[mask] for c in coefs))
    return out


def constrained_equilibrium(params: MarketParams, t=0.0) -> EquilibriumResult:
    """Premium equilibrium clamped to the admissibility box.

    Follows the published construction verbatim: xi2* is set by a three-way
    split on where the unconstrained xi1 falls against [theta*beta,
    eta*beta] (clamping to [theta, eta]); reinsurer 1 then best-responds
    once, clamped to its own box, a reply that is the unconstrained xi1
    itself where xi2* is the unclamped xi2 of the middle branch.  The regime
    tag records which clamps bound.

    The xi1 box is theta and eta times 2 a_Y/sigma2, for any claim law.  ``t`` may
    be a one-dimensional array of times in [0, T]: the numeric fields are then
    arrays over t, and ``regime`` is a tuple with one Regime per time.
    """
    # np.ndim costs ~1 us on a float; the reinsurers' solves check the range
    t = float(t) if isinstance(t, float) or np.ndim(t) == 0 else np.asarray(t, dtype=float)
    xp = _kind(t)
    if xp is np and t.ndim != 1:
        raise DomainError("equilibrium times must be a scalar or a one-dimensional array")
    (xi1_lo, xi1_hi), (xi2_lo, xi2_hi) = admissible_box(params)
    coefs = _gamma_profiles(params, t)
    xi1_bar, xi2_bar = _fixed_point(params, t, coefs)

    # the published three-case split on the unconstrained xi1: on the floor or cap
    # branch, R2 replies to that edge of the xi1 box; R1 replies where a clamp binds,
    # elsewhere the fixed point's pair solves its FOC, so xi1* = xi1_bar there
    floor, cap = xi1_bar < xi1_lo, xi1_bar > xi1_hi
    xi2_star = _replies(_r2_reply, floor | cap, xi2_bar, xp.where(floor, xi1_lo, xi1_hi),
                        params, t, coefs)
    xi2_star = xp.clip(xi2_star, xi2_lo, xi2_hi)
    xi1_star = _replies(_r1_reply, floor | cap | (xi2_star != xi2_bar), xi1_bar, xi2_star,
                        params, t, coefs)
    xi1_star = xp.clip(xi1_star, xi1_lo, xi1_hi)
    regime = 3 * (1 - floor + cap) + (xi2_star == xi2_lo) + 2 * (xi2_star == xi2_hi)
    regime = (tuple(map(_REGIMES.__getitem__, regime.tolist())) if xp is np
              else _REGIMES[regime])
    resp = layered_response(xi1_star, xi2_star, coefs[0], t)
    return EquilibriumResult(xi1_star, xi2_star, resp, regime, (xi1_bar, xi2_bar), t)
