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
different market or node count replaces the slot.  The slot also keeps each
integrand integrated on those nodes, up to three, with its node values and its
node tail, so the three objectives, whose integrand is one function of six rows
(``_objective_rows``), evaluate it and run the Simpson once between them; an
integrand must be a pure function of the profile that does not write to it.
The library's three integrands (``_objective_rows``, ``_intercept_rows`` and the
premium flows of ``simulate``) are module functions that read the market from the
profile: each called again on a path reuses its tail, in any order of calls.
A time between nodes adds a Simpson panel of its own; the call that fills the
slot profiles those panels with the nodes, so B_k at the CLI's rows makes one
``path_profile`` call.
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
_KEPT_TAILS = 3  # the library's integrands: _objective_rows, _intercept_rows, premium flows


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
    the ``path_profile`` of ``_tail_integrals``' last node grid, with the node
    tails there of up to three integrands, and the cells ``_loadings`` reads on
    a uniform grid.
    """

    def __init__(self, params: MarketParams, grid: np.ndarray, xi1: np.ndarray,
                 xi2: np.ndarray, fixed_response: ResponseStrategy | None = None):
        self.params = params
        self.grid = np.asarray(grid, dtype=float)
        self._xi1 = np.asarray(xi1, dtype=float)
        self._xi2 = np.asarray(xi2, dtype=float)
        self.fixed_response = fixed_response
        self._node_profile = None  # ((params, n_panels), PathProfile, kept) of _tail_integrals
        self._cells = None  # _uniform_cells of the grid, () where it has none
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
        # (xi1(t), xi2(t)) with np.interp's bits, at a float or at an array of times in
        # any order, such as Monte Carlo event times.  Two kinds of grid:
        # - uniform, one equal to np.linspace(grid[0], grid[-1], n), as every path the
        #   library builds has: each time's cell is found by arithmetic and its value is
        #   np.interp's formula there (``_read_cells``), from per-cell slopes built on the
        #   first array call and kept on the path;
        # - any other, or one whose slopes overflow: np.interp searches from the index it
        #   found last, so the times reach it in order of grid cell and are scattered back;
        #   it computes each value from its own time alone, so the order only shortens the
        #   searches.  The key is a time's cell on the uniform grid with the path's ends
        #   and node count, in the smallest unsigned type that holds n - 1, which numpy's
        #   stable sort orders by radix in linear time; NaN and times off the grid are
        #   keyed to an end cell, with no warning.
        n, start, end = self.grid.size, self.grid[0], self.grid[-1]
        if np.ndim(t) == 0 or n == 1:
            return self.xi1(t), self.xi2(t)
        if self._cells is None:
            self._cells = _uniform_cells(self.grid, self._xi1, self._xi2)
        if self._cells:
            return _read_cells(self._cells, t)
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


def _uniform_cells(grid: np.ndarray, xi1: np.ndarray, xi2: np.ndarray) -> tuple:
    """(g, g[j + 1], ((slope1, xi1), (slope2, xi2))) over the nodes j of a uniform grid of
    two nodes or more, or () for another grid or where a slope overflows.

    The slopes are np.interp's, (xi[j + 1] - xi[j]) / (g[j + 1] - g[j]); the last node
    has slope 0 and g[j + 1] = inf, so that a time on it reads xi there."""
    if not np.array_equal(grid, np.linspace(grid[0], grid[-1], grid.size)):
        return ()
    with np.errstate(over="ignore"):
        slopes = [np.append(np.diff(xi) / np.diff(grid), 0.0) for xi in (xi1, xi2)]
    if not np.isfinite(slopes).all():
        return ()
    return grid, np.append(grid[1:], np.inf), ((slopes[0], xi1), (slopes[1], xi2))


def _read_cells(cells: tuple, t: np.ndarray) -> tuple:
    """np.interp of each loading at the times ``t`` from its ``_uniform_cells``.

    A time clipped to the grid, x, finds its cell j = trunc((x - g0)(n - 1)/(gN - g0)),
    moved by one where rounding misses g[j] <= x < g[j + 1], and reads np.interp's
    slope[j] (x - g[j]) + xi[j]: xi[j] on a node, as the slopes are finite, and an end's
    loading off the grid.  NaN clips to NaN and reads NaN in the last cell."""
    grid, above, lines = cells
    n, start, end = grid.size, grid[0], grid[-1]
    x = np.clip(t, start, end)
    cell = x - start
    cell *= (n - 1) / (end - start)
    np.fmin(cell, n - 1, out=cell)  # NaN -> n - 1
    j = cell.astype(np.intp)
    node = grid.take(j)
    low, high = x < node, x >= above.take(j)
    if low.any() or high.any():
        j += high
        j -= low
        node = grid.take(j)
    x -= node
    loadings = []
    for slope, xi in lines:  # in place, about 10% faster than slope[j] * x + xi[j]
        value = slope.take(j)
        value *= x
        value += xi.take(j)
        loadings.append(value)
    return tuple(loadings)


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
    """A path's ``ledger`` in market ``params`` on a time grid (scalars for a fixed contract)
    and the accumulation factors (A_I, A_R1, A_R2) there, one row per party of ``PARTIES``."""

    s: np.ndarray
    ledger: Ledger
    accum: tuple
    params: MarketParams


def path_profile(path: StrategyPath, params: MarketParams, s: np.ndarray) -> PathProfile:
    """A path's ledger and the accumulations (``market.accumulations``) on grid ``s``."""
    s = np.asarray(s, dtype=float)
    xi1, xi2 = np.atleast_1d(path.xi1(s)), np.atleast_1d(path.xi2(s))
    accum = accumulations(params, s)
    contract = path._contract(s, xi1, xi2, accum[0])
    return PathProfile(s, ledger(contract, xi1, xi2, params), accum, params)


def _tail_integrals(path: StrategyPath, params: MarketParams, t, panels: int,
                    integrands) -> np.ndarray:
    """int_t^T of each row of ``integrands(profile)`` at every time in ``t``.

    One reverse cumulative Simpson from T over one node grid on [0, T] gives
    the integrals at every node.  Each cell of the path's uniform grid is split
    into an even number of panels, at least ``panels`` (an integer >= 1) in all,
    so every Simpson pair lies inside one linear piece of the path.  A time
    between two nodes adds one Simpson panel of its own, from it to the node
    above; it stays out of the cumulative chain, so the integral at one time
    does not depend on which other times are asked for.  ``integrands`` acts
    point by point: each column of its rows is the integrands at one point of
    the profile, so one profile can serve the nodes and the panels, split by
    slicing.  The nodes' ``path_profile`` is shared: the path keeps it in one
    slot keyed by ``(params, n_panels)``.  When the slot is empty or holds
    another key, the nodes are profiled again together with this call's
    off-node panels, and the slot keeps that profile, whose first
    ``n_panels + 1`` points are the nodes; a later call profiles its own
    off-node panels apart.  The slot, ``(key, profile, kept)``, also keeps the
    node values and node tail of each ``integrands`` object evaluated on the
    nodes, in ``kept``, a dict by object, at most three, the oldest dropped: a
    call with a kept object reuses them, and a new key replaces the whole slot,
    so a path holds one profile and up to three tails, one per library
    integrand.  ``integrands`` must therefore be a pure function of the profile,
    and must not write to it.  The result has shape ``integrand rows + t.shape``
    and is exactly 0 at t = T.
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
    slot = path._node_profile
    fresh = slot is None or slot[0] != key
    # the profile in the slot starts with the nodes
    nodes = np.linspace(0.0, params.T, n_panels + 1) if fresh else slot[1].s[:n_panels + 1]
    flat = t.ravel()
    above = np.searchsorted(nodes, flat)  # index of the first node >= t
    between = nodes[above] > flat
    off_node = np.any(between)
    if off_node:  # each such time's Simpson panel, from it to the node above
        lo, hi = flat[between], nodes[above[between]]
        panel = np.concatenate([lo, 0.5 * (lo + hi)])
    h = params.T / n_panels
    if fresh:
        profile = path_profile(path, params,
                               np.concatenate([nodes, panel]) if off_node else nodes)
        y = integrands(profile)
        y_nodes, y = y[..., :nodes.size], y[..., nodes.size:]
        kept = {integrands: (_tail_integral(y_nodes, h), y_nodes)}
    else:
        _, profile, kept = slot
        if integrands not in kept:
            if len(kept) == _KEPT_TAILS:
                del kept[next(iter(kept))]  # the oldest
            y_nodes = integrands(profile)[..., :nodes.size]
            kept[integrands] = _tail_integral(y_nodes, h), y_nodes
        if off_node:
            y = integrands(path_profile(path, params, panel))
    path._node_profile = key, profile, kept
    tail, y_nodes = kept[integrands]

    result = tail[..., above]
    if off_node:
        result[..., between] += (hi - lo) / 6.0 * (y[..., :lo.size] + 4.0 * y[..., lo.size:]
                                                   + y_nodes[..., above[between]])
    return result.reshape(result.shape[:-1] + t.shape)


def _objective_rows(profile) -> np.ndarray:
    """The objectives' integrands, party k's drift A_k (income - payout) and variance
    A_k^2 lam E[paid^2] in rows 2k and 2k + 1, for the parties of ``PARTIES`` in order."""
    led, rows = profile.ledger, []
    for k, a_s in enumerate(profile.accum):
        rows += [a_s * (led.income[k] - led.payout[k]), a_s * a_s * led.payout_sq[k]]
    return np.stack(rows)


def closed_form_objective(party: str, path: StrategyPath, params: MarketParams,
                          t: float, x: float,
                          panels: int = _DEFAULT_PANELS) -> ObjectiveValue:
    """Objective J = E[X(T)] - (gamma/2) Var(X(T)) under a deterministic path.

    The mean and variance integrals over [t, T] come from ``_tail_integrals``
    with ``panels`` panels at least, over the six rows of ``_objective_rows``,
    so the objectives of all three parties on one path, market and ``panels``
    read one node profile and one node tail; at t = T both integrals are
    exactly 0 and A(T) = 1, so the objective is the surplus itself.
    """
    if party not in PARTIES:
        raise DomainError(f"unknown party {party!r}")
    k, gamma = PARTIES.index(party), params.gamma(party)
    a_t = params.accum(party, t)

    drift, variance = _tail_integrals(path, params, t, panels, _objective_rows)[2 * k:2 * k + 2]
    mean = a_t * x + drift
    return ObjectiveValue(party, float(mean), float(variance),
                          float(mean - 0.5 * gamma * variance))


def value_intercepts(path: StrategyPath, params: MarketParams, t) -> np.ndarray:
    """(B_I, B_R1, B_R2) at time(s) ``t`` in [0, T]: one row per party of ``PARTIES``
    and ``t``'s shape, from one ``_tail_integrals`` call over the three integrands.
    B_k, the intercept of V_k(t, x) = A_k(t) x + B_k(t), accumulates party k's
    optimized running reward from t to the horizon and vanishes at t = T."""
    return _tail_integrals(path, params, t, _DEFAULT_PANELS, _intercept_rows)


def _intercept_rows(profile) -> np.ndarray:
    # the intercepts' integrands: A_k times party k's optimized running reward, one row
    # per party of PARTIES
    return np.stack([a * running_reward(profile.ledger, profile.params, party, a)
                     for party, a in zip(PARTIES, profile.accum)])
