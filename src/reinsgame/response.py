"""Insurer's equilibrium best response to a pair of reinsurance loadings.

The optimal contract is layered: a proportional share q of small claims goes
to reinsurer 1 (capped at xi2/(2*xi1)), and the excess over a deductible d
goes to reinsurer 2, leaving the insurer a bounded retention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePremiumError, DomainError
from .market import MarketParams, PremiumPoint


@dataclass(frozen=True)
class ResponseStrategy:
    """Layered reinsurance contract at time t.

    Claims y <= d are shared proportionally (q to reinsurer 1); larger claims
    pay ``cap`` to reinsurer 1, y - d to reinsurer 2, and leave the insurer
    exactly ``retention_limit``.  By construction d = retention_limit + cap,
    which makes the per-claim split continuous at y = d.
    """

    q: float
    d: float
    cap: float
    retention_limit: float
    t: float = 0.0


def response(point: PremiumPoint, params: MarketParams) -> ResponseStrategy:
    """Equilibrium contract for the loadings in ``point``."""
    return layered_response(point.xi1, point.xi2,
                            params.gamma_I * params.accum("I", point.t), point.t)


def layered_response(xi1, xi2, a_i, t) -> ResponseStrategy:
    """Contract for loadings (xi1, xi2) against the insurer's a_i = gamma_I*A_I(t).

    q = a_i / (2*xi1 + a_i), cap = xi2/(2*xi1), retention = xi2/a_i,
    d = retention + cap.  Arguments may be arrays of one shape, which gives
    array-valued fields.
    """
    zero, negative = xi1 == 0.0, (xi1 < 0.0) | (xi2 < 0.0)  # Python bools for floats
    if isinstance(zero, np.ndarray) or isinstance(negative, np.ndarray):
        zero, negative = np.any(zero), np.any(negative)
    if zero:
        raise DegeneratePremiumError("xi1 = 0: proportional layer is unpriced")
    if negative:
        raise DomainError("loadings must be non-negative")
    q = a_i / (2.0 * xi1 + a_i)
    cap = xi2 / (2.0 * xi1)
    retention = xi2 / a_i
    return ResponseStrategy(q=q, d=retention + cap, cap=cap,
                            retention_limit=retention, t=t)


def indemnity(y, resp: ResponseStrategy):
    """Per-claim split (to reinsurer 1, to reinsurer 2, retained).

    A scalar claim gives three floats; an array of claims, with scalar or
    same-shape contract fields, gives three arrays.  The boundary y = d is
    assigned to the proportional branch; the split is continuous there, so
    the choice only fixes determinism.
    """
    if np.any(np.less(y, 0)):
        raise DomainError("claim size must be non-negative")
    below = np.less_equal(y, resp.d)
    split = (np.where(below, resp.q * y, resp.cap),
             np.where(below, 0.0, y - resp.d),
             np.where(below, (1.0 - resp.q) * y, resp.retention_limit))
    if np.ndim(split[0]) == 0:
        return tuple(float(v) for v in split)
    return split


def no_reinsurance(t: float = 0.0) -> ResponseStrategy:
    """Contract ceding nothing: the insurer keeps every claim in full."""
    return ResponseStrategy(q=0.0, d=math.inf, cap=0.0, retention_limit=math.inf, t=t)


def full_cession_to_r2(t: float = 0.0) -> ResponseStrategy:
    """Contract ceding every claim to reinsurer 2 (d = 0, no proportional layer)."""
    return ResponseStrategy(q=0.0, d=0.0, cap=0.0, retention_limit=0.0, t=t)
