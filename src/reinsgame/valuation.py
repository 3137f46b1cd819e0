"""Closed-form mean-variance objectives and equilibrium value intercepts.

Terminal surpluses are affine in the accumulation factors, so each party's
objective reduces to time integrals of layer moments: the mean accumulates
net drift (premium flow minus expected claim outgo) and the variance follows
the compound-Poisson isometry, Var = int A(s)^2 lam E[(covered amount)^2] ds.
Equilibrium value functions are V_k(t, x) = A_k(t) x + B_k(t) with B_k the
accumulated optimized running reward; at equilibrium V and the objective J
agree, which the tests use as a cross-module check.

Every one of these integrals runs from t to the horizon, so one reverse
cumulative Simpson from T (``market._tail_integral``, the rule of the claim
laws' moment tables) gives it at every time at once: ``_tail_integrals``
evaluates the path on one node grid aligned with its linear pieces and serves
the objectives, B_k and the premium drift of ``simulate``, for a scalar or an
array of times.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expo import constrained_equilibrium
from .market import (Exponential, MarketParams, _tail_integral, accum_profile,
                     insurer_premium_rate, layer_moments)
from .reaction import general_equilibrium
from .response import ResponseStrategy, layered_response, no_reinsurance

PARTIES = ("I", "R1", "R2")
_DEFAULT_PANELS = 2000
_DEFAULT_PATH_GRID = 801
_PROFILE_BLOCK = 1024  # nodes per path_profile call in _tail_integrals


@dataclass(frozen=True)
class ObjectiveValue:
    """Mean-variance objective split: J = mean - (gamma/2) * variance."""

    party: str
    mean: float
    variance: float
    j: float


class StrategyPath:
    """Deterministic loadings and insurer response over [0, T].

    Loadings are stored on a uniform grid and interpolated linearly; the
    response is recomputed from the interpolated loadings, except for paths
    built around a fixed custom contract (e.g. no reinsurance), which pin the
    response and pay no reinsurance premiums.
    """

    def __init__(self, params: MarketParams, grid: np.ndarray, xi1: np.ndarray,
                 xi2: np.ndarray, fixed_response: ResponseStrategy | None = None):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self._xi1 = np.asarray(xi1, dtype=float)
        self._xi2 = np.asarray(xi2, dtype=float)
        self.fixed_response = fixed_response

    def xi1(self, t):
        return np.interp(t, self.grid, self._xi1)

    def xi2(self, t):
        return np.interp(t, self.grid, self._xi2)

    def response(self, t) -> ResponseStrategy:
        """Insurer's contract at time(s) ``t``; array-valued fields for an array ``t``."""
        return self._contract(t, self.xi1(t), self.xi2(t))

    def _contract(self, t, xi1, xi2) -> ResponseStrategy:
        # the contract at t against the loadings xi1(t), xi2(t)
        if self.fixed_response is not None:
            return dataclasses.replace(self.fixed_response, t=t)
        a_i = self.params.gamma_I * accum_profile(self.params, "I", t)
        return layered_response(xi1, xi2, a_i, t)


def equilibrium_path(params: MarketParams, n_grid: int = _DEFAULT_PATH_GRID) -> StrategyPath:
    """Equilibrium loadings precomputed on a uniform time grid.

    Exponential claims use the closed-form boxed equilibrium, solved for the
    whole grid in one call; other laws use the general-law candidate fixed
    point, one time at a time.
    """
    grid = np.linspace(0.0, params.T, n_grid)
    if isinstance(params.claims, Exponential):
        eq = constrained_equilibrium(params, grid)
        return StrategyPath(params, grid, eq.xi1_star, eq.xi2_star)
    points = [general_equilibrium(params, float(t)) for t in grid]
    return StrategyPath(params, grid, [p.xi1 for p in points], [p.xi2 for p in points])


def constant_path(params: MarketParams, xi1: float, xi2: float) -> StrategyPath:
    """Time-constant loadings (the insurer still responds optimally)."""
    grid = np.array([0.0, params.T])
    return StrategyPath(params, grid, np.full(2, xi1), np.full(2, xi2))


def no_reinsurance_path(params: MarketParams) -> StrategyPath:
    """Degenerate strategy ceding nothing; both premium rates are zero."""
    grid = np.array([0.0, params.T])
    return StrategyPath(params, grid, np.zeros(2), np.zeros(2),
                        fixed_response=no_reinsurance())


@dataclass(frozen=True)
class PathProfile:
    """Layer moments (scalars for a fixed contract) and premium rates on a time grid."""

    s: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    l1: np.ndarray
    l1_sq: np.ndarray
    l2: np.ndarray
    l2_sq: np.ndarray
    retained: np.ndarray
    retained_sq: np.ndarray
    p1: np.ndarray
    p2: np.ndarray


def path_profile(path: StrategyPath, params: MarketParams, s: np.ndarray) -> PathProfile:
    """Evaluate a path's layer moments and premium rates on grid ``s``."""
    s = np.asarray(s, dtype=float)
    xi1, xi2 = np.atleast_1d(path.xi1(s)), np.atleast_1d(path.xi2(s))
    lm = layer_moments(path._contract(s, xi1, xi2), params.claims)
    p1 = params.lam * (lm.l1 + xi1 * lm.l1_sq)
    p2 = (1.0 + xi2) * params.lam * lm.l2
    return PathProfile(s, xi1, xi2, lm.l1, lm.l1_sq, lm.l2, lm.l2_sq, lm.retained,
                       lm.retained_sq, p1, p2)


def _drift_and_covered_sq(profile: PathProfile, params: MarketParams, party: str):
    lam = params.lam
    if party == "I":
        flow = insurer_premium_rate(params) - profile.p1 - profile.p2
        return flow - lam * profile.retained, profile.retained_sq
    if party == "R1":
        return profile.p1 - lam * profile.l1, profile.l1_sq
    if party == "R2":
        return profile.p2 - lam * profile.l2, profile.l2_sq
    raise DomainError(f"unknown party {party!r}")


def _tail_integrals(path: StrategyPath, params: MarketParams, t, panels: int,
                    integrands) -> np.ndarray:
    """int_t^T of each row of ``integrands(profile)`` at every time in ``t``.

    One reverse cumulative Simpson from T over one node grid on [0, T] gives
    the integrals at every node.  Each cell of the path's uniform grid is split
    into an even number of panels, at least ``panels`` in all, so every Simpson
    pair lies inside one linear piece of the path.  A time between two nodes adds
    one Simpson panel of its own, from it to the node above; it stays out of
    the cumulative chain, so the integral at one time does not depend on which
    other times are asked for.  The result has shape ``integrand rows +
    t.shape`` and is exactly 0 at t = T.
    """
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= params.T)  # False for NaN
    if not np.all(inside):
        raise DomainError(f"t = {t[~inside].flat[0]:g} outside [0, T = {params.T:g}]")

    def integrand_at(s):
        return integrands(path_profile(path, params, s))

    cells = max(path.grid.size - 1, 1)
    n_panels = cells * 2 * -(-panels // (2 * cells))
    nodes = np.linspace(0.0, params.T, n_panels + 1)
    # In blocks: one path_profile of all 3201 nodes of the default path raised
    # the trajectory command's peak RSS by about 0.5 MB.
    y_nodes = np.concatenate([integrand_at(nodes[first:first + _PROFILE_BLOCK])
                              for first in range(0, nodes.size, _PROFILE_BLOCK)], axis=-1)
    tail = _tail_integral(y_nodes, params.T / n_panels)

    flat = t.ravel()
    above = np.searchsorted(nodes, flat)  # index of the first node >= t
    between = nodes[above] > flat
    result = tail[..., above]
    if np.any(between):
        # Simpson on [t, node above] for each time between nodes
        lo, hi = flat[between], nodes[above[between]]
        y = integrand_at(np.concatenate([lo, 0.5 * (lo + hi)]))
        result[..., between] += (hi - lo) / 6.0 * (y[..., :lo.size] + 4.0 * y[..., lo.size:]
                                                   + y_nodes[..., above[between]])
    return result.reshape(result.shape[:-1] + t.shape)


def closed_form_objective(party: str, path: StrategyPath, params: MarketParams,
                          t: float, x: float,
                          panels: int = _DEFAULT_PANELS) -> ObjectiveValue:
    """Objective J = E[X(T)] - (gamma/2) Var(X(T)) under a deterministic path.

    The mean and variance integrals over [t, T] come from ``_tail_integrals``
    with ``panels`` panels at least; at t = T the objective is the surplus itself.
    """
    gamma = params.gamma(party)
    a_t = params.accum(party, t)
    if t >= params.T:
        return ObjectiveValue(party, x, 0.0, x)

    def integrands(profile):
        a_s = accum_profile(params, party, profile.s)
        drift, covered_sq = _drift_and_covered_sq(profile, params, party)
        return np.stack([a_s * drift, a_s * a_s * params.lam * covered_sq])

    drift, variance = _tail_integrals(path, params, t, panels, integrands)
    mean = a_t * x + drift
    return ObjectiveValue(party, float(mean), float(variance),
                          float(mean - 0.5 * gamma * variance))


def _running_reward(profile: PathProfile, params: MarketParams, party: str,
                    a_s: np.ndarray) -> np.ndarray:
    lam, a_y = params.lam, params.claims.mean
    if party == "I":
        return lam * (params.theta * a_y - profile.xi1 * profile.l1_sq
                      - profile.xi2 * profile.l2
                      - 0.5 * params.gamma_I * a_s * profile.retained_sq)
    if party == "R1":
        return lam * (profile.xi1 - 0.5 * params.gamma_R1 * a_s) * profile.l1_sq
    if party == "R2":
        return lam * (profile.xi2 * profile.l2
                      - 0.5 * params.gamma_R2 * a_s * profile.l2_sq)
    raise DomainError(f"unknown party {party!r}")


class ValueIntercept:
    """Intercept B_k(t) of the affine value function V_k(t, x) = A_k(t) x + B_k(t).

    B_k(t) accumulates the party's optimized running reward from t to the
    horizon and vanishes at t = T.
    """

    def __init__(self, party: str, params: MarketParams, path: StrategyPath,
                 panels: int = _DEFAULT_PANELS):
        if party not in PARTIES:
            raise DomainError(f"unknown party {party!r}")
        self.party = party
        self.params = params
        self.path = path
        self.panels = panels

    def __call__(self, t):
        """B_k at time(s) ``t`` in [0, T]: a float for a scalar, an array for an array."""
        params, party = self.params, self.party

        def integrand(profile):
            a_s = accum_profile(params, party, profile.s)
            return a_s * _running_reward(profile, params, party, a_s)

        b = _tail_integrals(self.path, params, t, self.panels, integrand)
        return float(b) if b.ndim == 0 else b

    def value(self, t: float, x: float) -> float:
        return self.params.accum(self.party, t) * x + self(t)


def value_intercept(party: str, params: MarketParams, path: StrategyPath,
                    panels: int = _DEFAULT_PANELS) -> ValueIntercept:
    """Value-function intercept for one party along a strategy path."""
    return ValueIntercept(party, params, path, panels)
