"""Monte Carlo terminal surpluses as one discounted sum over claim events.

Between claims each surplus follows a linear ODE, so with the accumulation
factor A_k(t) = exp(int_t^T rho_k) the terminal surplus of party k is

    X_k(T) = A_k(0) x0_k + int_0^T A_k(s) flow_k(s) ds - sum_j A_k(t_j) payout_k(t_j, y_j).

The first two terms are the same on every path and are computed once, the
premium flows, each party's income row of ``market.ledger``, by the
objectives' own Simpson rule (``valuation._tail_integrals`` with their default
panels), so only the claim sum is sampled.  Given the
Poisson(lam*T) claim count, event times are iid uniform on [0, T] and their
order does not matter, so each path's claim term is one array sum.

Paths are drawn in blocks of ``_BLOCK``.  Each block has its own
counter-based Philox stream keyed on (seed, block index) and draws, in this
order, the claim counts of all its paths, the event times and the claim
sizes.  One bit generator is reset to each block's key with counter 0.  A
full block is always drawn and the last one is truncated, so runs are
reproducible bit for bit and ``simulate`` with n paths returns exactly the
first n paths of any longer run with the same seed.

On the reference config (about 8200 events a block; 2-vCPU Xeon, numpy 2.4) a
block takes about 0.85 ms: the draws 0.2 ms, the loadings at the event times
0.29 ms, interpolated in grid-cell order as in ``StrategyPath.response``, and
all the rest about 0.35 ms.  Of that, the accumulation factors at the event
times (``market.accumulations``, one np.exp per distinct rate curve, one on the
reference config) take about 35 us.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .market import PARTIES, MarketParams, accumulations
from .response import indemnity
from .valuation import _DEFAULT_PANELS, StrategyPath, _tail_integrals

_BLOCK = 1024  # paths per random stream; changing it changes every sample


@dataclass(frozen=True)
class SimConfig:
    """``paths`` and ``seed`` are Python or numpy integers, not floats or bools."""

    paths: int
    seed: int = 0

    def __post_init__(self):
        for name in ("paths", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.paths < 1:
            raise DomainError("need at least one path")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class TerminalSamples:
    """Per-path terminal surpluses plus aggregate jump accounting."""

    x_i: np.ndarray
    x_r1: np.ndarray
    x_r2: np.ndarray
    total_claims: float = 0.0
    total_jumps: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def n(self) -> int:
        return len(self.x_i)

    def by_party(self, party: str) -> np.ndarray:
        return {"I": self.x_i, "R1": self.x_r1, "R2": self.x_r2}[party]


def simulate(path: StrategyPath, params: MarketParams, config: SimConfig) -> TerminalSamples:
    """Terminal surplus samples under the given strategy path."""
    T = params.T

    def premium_flows(profile):
        return np.stack([a * flow for a, flow in zip(profile.accum, profile.ledger.income)])

    premiums = _tail_integrals(path, params, 0.0, _DEFAULT_PANELS, premium_flows)
    deterministic = [a * params.x0(party) + premium
                     for party, a, premium in zip(PARTIES, accumulations(params, 0.0), premiums)]

    out = np.empty((3, config.paths))
    total_claims = 0.0
    total_jumps = np.zeros(3)
    # reset for each block to the state Philox(key=[seed, block]) starts in
    # (counter 0, empty buffer): about 1.4 us, where a new Generator(Philox(...))
    # takes about 18 us
    bitgen = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bitgen), bitgen.state
    for block, first in enumerate(range(0, config.paths, _BLOCK)):
        keep = min(_BLOCK, config.paths - first)
        fresh["state"]["key"][1] = block
        bitgen.state = fresh
        counts = rng.poisson(params.lam * T, _BLOCK)
        times = rng.uniform(0.0, T, counts.sum())
        sizes = params.claims.ppf(rng.random(counts.sum()))
        events = counts[:keep].sum()
        times, sizes = times[:events], sizes[:events]
        owner = np.repeat(np.arange(keep), counts[:keep])
        accum = accumulations(params, times)
        l1, l2, retained = indemnity(sizes, path._contract(times, *path._loadings(times),
                                                           accum[0]))
        for k, paid in enumerate((retained, l1, l2)):
            discounted = accum[k] * paid
            out[k, first:first + keep] = deterministic[k] - np.bincount(
                owner, weights=discounted, minlength=keep)
            total_jumps[k] += paid.sum()
        total_claims += float(sizes.sum())
    return TerminalSamples(out[0], out[1], out[2], total_claims,
                           tuple(float(v) for v in total_jumps))


@dataclass(frozen=True)
class ObjectiveEstimate:
    """Sample mean-variance objective with standard errors.

    se_variance uses the fourth-moment formula for Var(s^2); se_j combines
    the two by the delta method including the mean-variance covariance m3/n.
    """

    party: str
    mean: float
    variance: float
    j: float
    se_mean: float
    se_variance: float
    se_j: float


def estimate_objectives(samples: TerminalSamples,
                        params: MarketParams) -> dict[str, ObjectiveEstimate]:
    """Unbiased per-party estimates of (mean, variance, J) with standard errors."""
    if samples.n < 2:
        raise DomainError("objective estimation needs at least 2 paths")
    n = samples.n
    result = {}
    for party in PARTIES:
        xs = samples.by_party(party)
        gamma = params.gamma(party)
        mean = float(np.mean(xs))
        var = float(np.var(xs, ddof=1))
        centered = xs - mean
        # products, not centered**3 and **4: float pow is about 30x slower
        sq = centered * centered
        m3 = float(np.mean(sq * centered))
        m4 = float(np.mean(sq * sq))
        var_of_var = max((m4 - (n - 3) / (n - 1) * var * var) / n, 0.0)
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt(var_of_var)
        var_j = max(var / n + (0.5 * gamma) ** 2 * var_of_var - gamma * m3 / n, 0.0)
        result[party] = ObjectiveEstimate(party, mean, var, mean - 0.5 * gamma * var,
                                          se_mean, se_var, math.sqrt(var_j))
    return result
