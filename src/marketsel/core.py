"""Core domain types for the market-selection game.

A market holds M investors competing for the payoffs of N short-lived
assets.  Wealth is tracked in absolute units (``Y``), as a market total
(``W``) and as relative shares (``r``).  Everything downstream (payoff
models, strategies, engines, diagnostics) builds on the small set of
validated value types defined here.

Tolerance policy: structural identities (weights summing to one, shares
of a unit) are enforced at 1e-12 absolute; quantities accumulated along
paths of ~1e4 steps drift more and are checked at 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

SUM_ATOL = 1e-12
PATH_RTOL = 1e-9

# Norms below this are treated as exactly zero when normalizing, so that
# denormal inputs cannot blow up the division.
NORM_FLOOR = 1e-300


class DomainError(ValueError):
    """A domain-type invariant was violated."""


def as_vector(x, name: str) -> np.ndarray:
    """Coerce to a finite 1-d float array or raise DomainError."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must contain only finite values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def as_simplex(x) -> np.ndarray:
    """A validated, read-only float copy of a point of the standard simplex.

    The point must be a non-empty 1-d vector of finite, non-negative
    weights summing to 1 within ``SUM_ATOL``; otherwise DomainError.
    """
    w = as_vector(x, "weights")
    if w.size == 0:
        raise DomainError("simplex vector needs at least one component")
    if np.any(w < 0.0):
        raise DomainError("simplex components must be non-negative")
    if abs(w.sum() - 1.0) > SUM_ATOL:
        raise DomainError(f"simplex components must sum to 1, got {w.sum()!r}")
    return _freeze(w)


def make_simplex(raw) -> np.ndarray:
    """Normalize a non-negative vector onto the simplex: ``simplex_rows`` of one row, read-only."""
    out = simplex_rows(as_vector(raw, "raw")[None, :])[0]
    out.flags.writeable = False
    return out


def simplex_rows(raw: np.ndarray) -> np.ndarray:
    """Normalize every row of a non-negative (B, N) array onto the simplex.

    A row with (numerically) zero total mass maps to the uniform weights
    ``(1/N, ..., 1/N)``, which is the degenerate branch used when a
    strategy has nothing to normalize.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DomainError(f"raw must be a (B, N) array with N >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("raw must contain only finite values")
    if np.any(arr < 0.0):
        raise DomainError("components must be non-negative")
    total = arr.sum(axis=1)
    empty = total < NORM_FLOOR
    out = arr / np.where(empty, 1.0, total)[:, None]
    out[empty] = 1.0 / arr.shape[1]
    return out


def divergence_rows(alpha: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gibbs divergence of ``alpha`` from each row of ``rows``.

    Returns sum_n alpha_n (ln alpha_n - ln rows_{k,n}) for every row k,
    with the 0*ln 0 terms on {alpha_n = 0} dropped and +inf where a row
    has a zero component that alpha does not share.  ``alpha`` may also
    be a stack (B, N) with ``rows`` (B, K, N), one alpha per stack entry;
    the result then has shape (B, K).  No input validation; callers own
    that.

    On simplices the divergence is never negative, but the sum loses a
    row's -ln r term where r rounds to 1 (a weight next to a tiny one),
    and what is left can be.  Such a row is summed again as the terms
    a (ln a - ln r) - a + r, each at least 0 on its own (and held there
    against rounding), whose sum is the divergence when alpha and the
    row both sum to 1.
    """
    rows = np.atleast_2d(rows)
    a = np.asarray(alpha)[..., None, :]
    pos = a > 0.0
    ok = rows > 0.0
    terms = np.where(pos, a * (np.log(np.where(pos, a, 1.0)) - np.log(np.where(ok, rows, 1.0))), 0.0)
    out = terms.sum(axis=-1)
    out[np.any(pos & ~ok, axis=-1)] = np.inf
    lost = out < 0.0
    if lost.any():
        out[lost] = np.maximum(terms - a + rows, 0.0).sum(axis=-1)[lost]
    return out


@dataclass(frozen=True)
class MarketSpec:
    """Static description of a market: sizes, initial wealth, payoff model."""

    num_investors: int
    num_assets: int
    initial_wealth: np.ndarray
    payoff_model: Any = None

    def __post_init__(self):
        object.__setattr__(self, "num_investors", int(self.num_investors))
        object.__setattr__(self, "num_assets", int(self.num_assets))
        object.__setattr__(
            self, "initial_wealth", _freeze(np.asarray(self.initial_wealth, dtype=float))
        )


@dataclass
class Trajectory:
    """Recorded path of one simulation run.

    Index k runs over recorded states (k = 0 is the initial state); the
    event arrays describe the interval between record k and record k+1.
    A discrete interval is one payoff step (``is_jump`` is always set).  A
    continuous interval is a jump-free segment, ended by a jump where
    ``is_jump`` is set: its ``dx``/``dv`` add the segment's drift and
    consumption rate to the jump's payoff and fraction, so ``dv`` may
    exceed 1 there.  Both engines fill the running arrays (``cum_x``,
    ``cum_v``, ``retention`` and the three integrals below) by adding or
    multiplying the per-interval increments in record order.
    ``pressure`` is the selection-pressure clock (the integral of
    |claim + drift| / W against operational time), ``gap_integral`` the
    per-investor Gibbs-gap integral against it, and ``closeness`` the
    per-investor integral of the squared distance to the survival
    candidate.  ``z_cont``/``z_jump`` hold the increments of the
    total-wealth log-exponent used for reconstruction checks, and
    ``retention`` the pure-consumption wealth floor factor.

    No per-record weights are kept: the artifacts and diagnostics read
    them only through the integrals above and three running summaries
    of them.  ``support_violations`` counts, per investor, the records
    whose weights leave out an asset the candidate weights;
    ``weight_floor`` is each investor's smallest weight over all records
    and ``candidate_floor`` the candidate's (both +inf with no records).
    A record's weights are those of its step, or of a continuous
    segment's first point, or of its jump.
    """

    mode: str
    times: np.ndarray
    wealth: np.ndarray
    total: np.ndarray
    rel: np.ndarray
    dx: np.ndarray
    dv: np.ndarray
    is_jump: np.ndarray
    cum_x: np.ndarray
    cum_v: np.ndarray
    retention: np.ndarray
    pressure: np.ndarray
    gap_integral: np.ndarray
    closeness: np.ndarray
    z_cont: np.ndarray
    z_jump: np.ndarray
    weight_floor: np.ndarray
    candidate_floor: float
    support_violations: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def num_investors(self) -> int:
        return self.wealth.shape[1]

    @property
    def num_assets(self) -> int:
        return self.dx.shape[1] if self.dx.ndim == 2 else 0

    @property
    def n_records(self) -> int:
        return self.times.size - 1

    def validate(self) -> list[str]:
        """Check recording invariants; returns a list of violations."""
        violations = []
        if np.any(np.diff(self.times) <= 0.0):
            violations.append("record times must be strictly increasing")
        # the wealth rule of discrete_step: an investor's wealth may
        # underflow to 0, but every row is finite with a positive total
        for name, rows in (("wealth", self.wealth), ("relative wealth", self.rel)):
            valid = np.isfinite(rows).all() and (rows >= 0.0).all()
            if not (valid and (rows.sum(axis=1) > 0.0).all()):
                violations.append(f"{name} must be non-negative and finite with a positive total")
        if np.any(np.abs(self.wealth.sum(axis=1) - self.total) > 1e-10 * np.abs(self.total)):
            violations.append("total wealth must match the sum of investor wealth")
        for name in ("pressure", "gap_integral", "closeness"):
            arr = getattr(self, name)
            # an accumulator stuck at +inf differences to nan; that is not
            # a monotonicity violation
            with np.errstate(invalid="ignore"):
                if np.any(np.diff(arr, axis=0) < -SUM_ATOL):
                    violations.append(f"{name} must be non-decreasing")
        if np.any(np.diff(self.cum_x, axis=0) < 0.0) or np.any(np.diff(self.cum_v) < 0.0):
            violations.append("cumulative payoff/consumption must be non-decreasing")
        return violations
