"""Closed-form mean-variance objectives and equilibrium value intercepts.

Terminal surpluses are affine in the accumulation factors, so each party's
objective reduces to time integrals of its row of ``market.ledger``: the mean
accumulates the net drift, premium income minus payout lam E[paid], and the
variance follows the compound-Poisson isometry, Var = int A(s)^2 lam E[paid^2] ds.
Equilibrium value functions are V_k(t, x) = A_k(t) x + B_k(t) with B_k the
accumulated optimized running reward, the ledger's reduced HJB margin less the
risk charge (``value_intercepts``); at equilibrium V and the objective J agree,
which the tests use as a cross-module check.

Every one of these integrals runs from t to the horizon, so one reverse
cumulative Simpson from T (``market._tail_integral``, the rule of the claim
laws' moment tables) gives it at every time at once: ``_tail_integrals``
evaluates the path's ledger and accumulation factors (``path_profile``) on one
node grid aligned with its linear pieces and serves the objectives, B_k and the
premium drift of ``simulate``, for a scalar or an array of times.  The node
profile is shared: each ``StrategyPath`` keeps the last one in a single slot
keyed by ``(params, n_panels)``, so the three parties' objectives, B_k and the
Monte Carlo premiums of one path and market profile its nodes once, and a
different market or node count replaces the slot.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .expo import constrained_equilibrium
from .market import (PARTIES, Ledger, MarketParams, _tail_integral, accumulations, ledger,
                     running_reward)
from .response import ResponseStrategy, layered_response, no_reinsurance

_DEFAULT_PANELS = 2000
_DEFAULT_PATH_GRID = 801


@dataclass(frozen=True)
class ObjectiveValue:
    """Mean-variance objective split: J = mean - (gamma/2) * variance."""

    party: str
    mean: float
    variance: float
    j: float


class StrategyPath:
    """Deterministic loadings and insurer response over [0, T].

    Loadings are stored on a time grid, 1-D, finite and strictly increasing
    (one point is a constant path), and interpolated linearly; the response is
    recomputed from the interpolated loadings, except for paths built around a
    fixed custom contract (e.g. no reinsurance), which pin the response and pay
    no reinsurance premiums.  A path is not changed after it is built: it keeps
    the ``path_profile`` of ``_tail_integrals``' last node grid.
    """

    def __init__(self, params: MarketParams, grid: np.ndarray, xi1: np.ndarray,
                 xi2: np.ndarray, fixed_response: ResponseStrategy | None = None):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self._xi1 = np.asarray(xi1, dtype=float)
        self._xi2 = np.asarray(xi2, dtype=float)
        self.fixed_response = fixed_response
        self._node_profile = None  # ((params, n_panels), PathProfile) of _tail_integrals
        grid = self.grid
        if not (grid.ndim == 1 and grid.size and self._xi1.shape == self._xi2.shape == grid.shape
                and np.isfinite(np.concatenate([grid, self._xi1, self._xi2])).all()
                and (grid[1:] > grid[:-1]).all()):
            raise DomainError("a path needs a 1-D, finite, strictly increasing grid and "
                              "finite loadings xi1 and xi2, one of each per node")

    def xi1(self, t):
        return np.interp(t, self.grid, self._xi1)

    def xi2(self, t):
        return np.interp(t, self.grid, self._xi2)

    def response(self, t) -> ResponseStrategy:
        """Insurer's contract at a float time, or at an array of times in fields of its shape."""
        t = t if np.ndim(t) == 0 else np.asarray(t, dtype=float)
        return self._contract(t, *self._loadings(t), self.params.accum("I", t))

    def _loadings(self, t):
        # (xi1(t), xi2(t)).  np.interp searches from the index it found last, so an
        # array of times in random order, such as Monte Carlo event times, is
        # interpolated in order of grid cell and scattered back.  np.interp computes
        # each value from its own time alone, so any order gives the same values and
        # the order only shortens the searches.  The key is a time's cell on the
        # uniform grid with the path's ends and node count, in the smallest unsigned
        # type that holds n - 1, which numpy's stable sort orders by radix in linear
        # time; NaN and times off the grid are keyed to an end cell, with no warning.
        n, start, end = self.grid.size, self.grid[0], self.grid[-1]
        if np.ndim(t) == 0 or n == 1:
            return self.xi1(t), self.xi2(t)
        flat = t.ravel()
        key = np.fmin(np.fmax(flat, start), end)  # NaN -> start
        key -= start
        key *= (n - 1) / (end - start)
        order = np.argsort(key.astype(np.min_scalar_type(n - 1)), kind="stable")
        ts = flat[order]
        xi1, xi2 = np.empty(t.size), np.empty(t.size)
        xi1[order] = np.interp(ts, self.grid, self._xi1)
        xi2[order] = np.interp(ts, self.grid, self._xi2)
        return xi1.reshape(t.shape), xi2.reshape(t.shape)

    def _contract(self, t, xi1, xi2, accum_i) -> ResponseStrategy:
        # the contract at t against the loadings xi1(t), xi2(t) and the
        # insurer's accumulation factor A_I(t)
        if self.fixed_response is not None:
            return dataclasses.replace(self.fixed_response, t=t)
        return layered_response(xi1, xi2, self.params.gamma_I * accum_i, t)


def equilibrium_path(params: MarketParams, n_grid: int = _DEFAULT_PATH_GRID) -> StrategyPath:
    """Equilibrium loadings precomputed on a uniform time grid.

    The boxed equilibrium of every grid time, for every claim law, from one
    array call of ``constrained_equilibrium``.
    """
    grid = np.linspace(0.0, params.T, n_grid)
    eq = constrained_equilibrium(params, grid)
    return StrategyPath(params, grid, eq.xi1_star, eq.xi2_star)


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
    """A path's ``ledger`` on a time grid (scalars for a fixed contract) and the accumulation
    factors (A_I, A_R1, A_R2) there, one row per party of ``PARTIES``."""

    s: np.ndarray
    ledger: Ledger
    accum: tuple


def path_profile(path: StrategyPath, params: MarketParams, s: np.ndarray) -> PathProfile:
    """A path's ledger and the accumulations (``market.accumulations``) on grid ``s``."""
    s = np.asarray(s, dtype=float)
    xi1, xi2 = np.atleast_1d(path.xi1(s)), np.atleast_1d(path.xi2(s))
    accum = accumulations(params, s)
    contract = path._contract(s, xi1, xi2, accum[0])
    return PathProfile(s, ledger(contract, xi1, xi2, params), accum)


def _tail_integrals(path: StrategyPath, params: MarketParams, t, panels: int,
                    integrands) -> np.ndarray:
    """int_t^T of each row of ``integrands(profile)`` at every time in ``t``.

    One reverse cumulative Simpson from T over one node grid on [0, T] gives
    the integrals at every node.  Each cell of the path's uniform grid is split
    into an even number of panels, at least ``panels`` (an integer >= 1) in all,
    so every Simpson pair lies inside one linear piece of the path.  The nodes'
    ``path_profile`` is shared: the path keeps it in one slot keyed by
    ``(params, n_panels)`` and profiles the nodes again only when the slot
    holds another key, so ``integrands`` reads the profile and must not write
    to it.  A time between two nodes adds one Simpson panel of its own, from
    it to the node above, profiled on each call; it stays out of the
    cumulative chain, so the integral at one time does not depend on which
    other times are asked for.  The result has shape ``integrand rows +
    t.shape`` and is exactly 0 at t = T.
    """
    if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)) or panels < 1:
        raise DomainError(f"panels must be an integer of at least 1, got {panels!r}")
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= params.T)  # False for NaN
    if not np.all(inside):
        raise DomainError(f"t = {t[~inside].flat[0]:g} outside [0, T = {params.T:g}]")

    cells = max(path.grid.size - 1, 1)
    n_panels = cells * 2 * -(-panels // (2 * cells))
    key = (params, n_panels)
    if path._node_profile is None or path._node_profile[0] != key:
        path._node_profile = key, path_profile(path, params,
                                               np.linspace(0.0, params.T, n_panels + 1))
    profile = path._node_profile[1]
    nodes, y_nodes = profile.s, integrands(profile)
    tail = _tail_integral(y_nodes, params.T / n_panels)

    flat = t.ravel()
    above = np.searchsorted(nodes, flat)  # index of the first node >= t
    between = nodes[above] > flat
    result = tail[..., above]
    if np.any(between):
        # Simpson on [t, node above] for each time between nodes
        lo, hi = flat[between], nodes[above[between]]
        y = integrands(path_profile(path, params, np.concatenate([lo, 0.5 * (lo + hi)])))
        result[..., between] += (hi - lo) / 6.0 * (y[..., :lo.size] + 4.0 * y[..., lo.size:]
                                                   + y_nodes[..., above[between]])
    return result.reshape(result.shape[:-1] + t.shape)


def closed_form_objective(party: str, path: StrategyPath, params: MarketParams,
                          t: float, x: float,
                          panels: int = _DEFAULT_PANELS) -> ObjectiveValue:
    """Objective J = E[X(T)] - (gamma/2) Var(X(T)) under a deterministic path.

    The mean and variance integrals over [t, T] come from ``_tail_integrals``
    with ``panels`` panels at least, so the objectives of all three parties on
    one path, market and ``panels`` read one shared node profile; at t = T both
    integrals are exactly 0 and A(T) = 1, so the objective is the surplus itself.
    """
    if party not in PARTIES:
        raise DomainError(f"unknown party {party!r}")
    k, gamma = PARTIES.index(party), params.gamma(party)
    a_t = params.accum(party, t)

    def integrands(profile):
        a_s, led = profile.accum[k], profile.ledger
        return np.stack([a_s * (led.income[k] - led.payout[k]), a_s * a_s * led.payout_sq[k]])

    drift, variance = _tail_integrals(path, params, t, panels, integrands)
    mean = a_t * x + drift
    return ObjectiveValue(party, float(mean), float(variance),
                          float(mean - 0.5 * gamma * variance))


def value_intercepts(path: StrategyPath, params: MarketParams, t) -> np.ndarray:
    """(B_I, B_R1, B_R2) at time(s) ``t`` in [0, T]: one row per party of ``PARTIES``
    and ``t``'s shape, from one ``_tail_integrals`` call over the three integrands.
    B_k, the intercept of V_k(t, x) = A_k(t) x + B_k(t), accumulates party k's
    optimized running reward from t to the horizon and vanishes at t = T."""
    def integrands(profile):
        return np.stack([a * running_reward(profile.ledger, params, party, a)
                         for party, a in zip(PARTIES, profile.accum)])

    return _tail_integrals(path, params, t, _DEFAULT_PANELS, integrands)
