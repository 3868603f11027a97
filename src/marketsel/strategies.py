"""Strategy constructors and evaluation.

A strategy maps (time, regime, pre-event total wealth) to simplex weights
over the assets.  Strategies never see competitors' wealth or actions;
total wealth is fair game because it is a function of the exogenous
payoff/consumption processes alone.

The survival candidate weights an asset by its expected payoff share
after the proportional division discount.  In discrete time this is an
exact enumeration over the model's support; in continuous time it is the
kernel's expected claim rate plus the payoff drift, normalized.  A Monte
Carlo variant of the discrete construction is provided for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, SimplexVector, as_vector, make_simplex, simplex_rows
from .payoffs import (
    DiscreteIIDModel,
    KernelSpec,
    MarkovModulatedModel,
    expected_claim_rates,
)


def _support(model, regime_state):
    if isinstance(model, MarkovModulatedModel):
        return model.support_arrays(regime_state)
    if isinstance(model, DiscreteIIDModel):
        return model.support_arrays()
    raise DomainError(f"model of type {type(model).__name__} has no finite support")


def discrete_claim_vector(model, regime_state, w_prev) -> np.ndarray:
    """Expected discounted payoff claim per asset, by exact enumeration.

    For each support atom the post-event total wealth is
    (1 - delta) * w_prev + |payoff|, so the claim of asset n is
    w_prev * E[payoff_n / post-event total].  ``w_prev`` may be a scalar
    (result shape (N,)) or a vector of B wealth levels (result (B, N)).
    """
    w = np.asarray(w_prev, dtype=float)
    if not np.all(w > 0.0):
        raise DomainError("total wealth must be positive")
    probs, payoffs, abs_payoffs, deltas = _support(model, regime_state)
    post_total = (1.0 - deltas) * w[..., None] + abs_payoffs
    # The sum over atoms runs along a non-contiguous axis, so it adds in
    # atom order whatever the leading shape: scalar and vector W agree.
    return w[..., None] * ((probs / post_total)[..., None] * payoffs).sum(axis=-2)


def survival_discrete_exact(model, regime_state, w_prev: float) -> SimplexVector:
    """Survival candidate weights for a finite-support discrete model."""
    return make_simplex(discrete_claim_vector(model, regime_state, w_prev))


def mc_claim(model, regime_state, w_prev, uniforms: np.ndarray) -> np.ndarray:
    """Monte Carlo estimate of ``discrete_claim_vector`` from given uniforms.

    ``uniforms`` has shape (..., S): S draws for each entry of ``w_prev``
    (a scalar, or a vector matching the leading shape).
    """
    probs, payoffs, abs_payoffs, deltas = _support(model, regime_state)
    idx = np.searchsorted(np.cumsum(probs), uniforms, side="right")
    idx = np.minimum(idx, probs.size - 1)
    w = np.asarray(w_prev, dtype=float)
    post_total = (1.0 - deltas[idx]) * w[..., None] + abs_payoffs[idx]
    claims = payoffs[idx] / post_total[..., None]
    return w[..., None] * claims.mean(axis=-2)


def survival_discrete_mc(
    model, regime_state, w_prev: float, rng: np.random.Generator, n_samples: int
) -> SimplexVector:
    """Monte Carlo estimate of the survival candidate.

    Draws atoms from the model's one-step distribution and averages the
    discounted payoff claims; converges to the exact construction at the
    usual 1/sqrt(n) rate.
    """
    if not w_prev > 0.0:
        raise DomainError("total wealth must be positive")
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return make_simplex(mc_claim(model, regime_state, w_prev, rng.random(n_samples)))


def survival_continuous(kernel: KernelSpec, w_minus: float) -> SimplexVector:
    """Survival candidate weights for a jump kernel with payoff drift.

    The continuous consumption rate plays no role here; only the jump
    claims and the payoff drift enter.  A kernel with no jumps and no
    drift yields the uniform weights.
    """
    return make_simplex(expected_claim_rates(kernel, w_minus) + kernel.drift)


def representative(weights, rel_prev, excluded: int) -> SimplexVector:
    """Wealth-weighted average strategy of all investors except ``excluded``.

    The weights are the competitors' relative wealths renormalized to the
    coalition, so the output is itself a simplex vector.
    """
    lam = np.atleast_2d(np.asarray(weights, dtype=float))
    rel = as_vector(rel_prev, "rel_prev")
    if lam.shape[0] != rel.size:
        raise DomainError("need one weight vector per investor")
    coalition = 1.0 - rel[excluded]
    if not coalition > 0.0:
        raise DomainError("the excluded investor holds all wealth; coalition is empty")
    mask = np.ones(rel.size, dtype=bool)
    mask[excluded] = False
    return SimplexVector((rel[mask] @ lam[mask]) / coalition)


@dataclass(frozen=True)
class PerturbationSchedule:
    """Time profile of the blend fraction toward a target strategy.

    Kinds: "zero" (no perturbation), "constant" (fraction = coefficient),
    "inverse_t" (fraction = coefficient / t, clipped into [0, 1]).  The
    inverse_t profile has square-summable fractions, which keeps the
    perturbed strategy within the survival sufficient condition; a
    constant fraction does not.
    """

    kind: str
    coefficient: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "inverse_t"):
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        c = float(self.coefficient)
        if not np.isfinite(c) or c < 0.0:
            raise DomainError("schedule coefficient must be finite and >= 0")
        if self.kind == "constant" and c > 1.0:
            raise DomainError("constant blend fraction must lie in [0, 1]")
        object.__setattr__(self, "coefficient", c)

    def epsilon(self, t):
        """Blend fraction at time ``t``: a float, or an array for an array of times."""
        c = self.coefficient
        if np.ndim(t):
            if self.kind == "inverse_t":
                clipped = np.asarray(t) <= c
                # where t > c, t > 0 too, so the division is safe
                return np.where(clipped, 1.0, c / np.where(clipped, 1.0, t))
            return np.full(np.shape(t), 0.0 if self.kind == "zero" else c)
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return c
        if t <= c:
            return 1.0
        return c / t


@dataclass(frozen=True)
class StrategyHandle:
    """Immutable description of one investor's strategy.

    Kinds:
      constant        fixed weights
      survival_exact  the model-based survival candidate
      survival_mc     Monte Carlo estimate of the candidate
      perturbed       blend of a base handle toward a target
      table           piecewise-constant in time, optionally per regime
    """

    kind: str
    weights: Optional[SimplexVector] = None
    n_samples: int = 0
    base: Optional["StrategyHandle"] = None
    schedule: Optional[PerturbationSchedule] = None
    target: Optional[SimplexVector] = None
    table: Optional[tuple] = None


def constant_strategy(weights) -> StrategyHandle:
    w = weights if isinstance(weights, SimplexVector) else SimplexVector(np.asarray(weights, float))
    return StrategyHandle(kind="constant", weights=w)


def survival_strategy() -> StrategyHandle:
    return StrategyHandle(kind="survival_exact")


def survival_mc_strategy(n_samples: int) -> StrategyHandle:
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return StrategyHandle(kind="survival_mc", n_samples=int(n_samples))


def perturbed(base: StrategyHandle, schedule: PerturbationSchedule, target) -> StrategyHandle:
    """Blend ``base`` toward ``target`` by the schedule's fraction."""
    t = target if isinstance(target, SimplexVector) else SimplexVector(np.asarray(target, float))
    return StrategyHandle(kind="perturbed", base=base, schedule=schedule, target=t)


def table_strategy(default, per_regime=None) -> StrategyHandle:
    """Piecewise-constant weights: ``default`` is a list of (t_from, weights)
    breakpoints; ``per_regime`` optionally overrides it per regime index."""

    def norm(entries):
        rows = []
        last = -np.inf
        for t_from, w in entries:
            t_from = float(t_from)
            if t_from <= last:
                raise DomainError("table breakpoints must be strictly increasing")
            last = t_from
            wv = w if isinstance(w, SimplexVector) else SimplexVector(np.asarray(w, float))
            rows.append((t_from, wv))
        if not rows:
            raise DomainError("table needs at least one entry")
        return tuple(rows)

    regimes = None
    if per_regime is not None:
        regimes = tuple(sorted((int(k), norm(v)) for k, v in dict(per_regime).items()))
    return StrategyHandle(kind="table", table=(norm(default), regimes))


def _table_entries(table, regime):
    default, regimes = table
    if regimes is not None and regime is not None:
        for k, v in regimes:
            if k == int(regime):
                return v
    return default


def _table_index(entries, t):
    """Index of the entry in force at time(s) ``t``: the last breakpoint at
    or before it, or the first entry before every breakpoint."""
    starts = [t_from for t_from, _ in entries]
    return np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)


def _table_lookup(table, t: float, regime) -> SimplexVector:
    entries = _table_entries(table, regime)
    return entries[int(_table_index(entries, t))][1]


def evaluate(
    handle: StrategyHandle,
    env,
    t: float,
    regime,
    w_minus: float,
    rng: Optional[np.random.Generator] = None,
    candidate: Optional[SimplexVector] = None,
) -> SimplexVector:
    """Resolve a handle to concrete weights at one decision point.

    ``env`` is the payoff model (discrete/Markov) or kernel the market
    runs on; ``candidate`` lets callers that already computed the survival
    candidate at this state pass it in instead of recomputing.
    """
    if handle.kind == "constant":
        return handle.weights
    if handle.kind == "survival_exact":
        if candidate is not None:
            return candidate
        if isinstance(env, KernelSpec):
            return survival_continuous(env, w_minus)
        return survival_discrete_exact(env, regime, w_minus)
    if handle.kind == "survival_mc":
        if rng is None:
            raise DomainError("survival_mc evaluation needs a random generator")
        return survival_discrete_mc(env, regime, w_minus, rng, handle.n_samples)
    if handle.kind == "perturbed":
        base = evaluate(handle.base, env, t, regime, w_minus, rng, candidate)
        eps = handle.schedule.epsilon(t)
        if eps == 0.0:
            return base
        if eps == 1.0:
            return handle.target
        blend = (1.0 - eps) * base.weights + eps * handle.target.weights
        blend.flags.writeable = False
        return SimplexVector._trusted(blend)
    if handle.kind == "table":
        return _table_lookup(handle.table, t, regime)
    raise DomainError(f"unknown strategy kind {handle.kind!r}")


def mc_samples(handle: StrategyHandle) -> int:
    """Uniforms one evaluation of ``handle`` draws: its survival_mc samples."""
    if handle.kind == "survival_mc":
        return handle.n_samples
    if handle.kind == "perturbed":
        return mc_samples(handle.base)
    return 0


def regime_groups(regimes):
    """(regime, selector) pairs splitting a block's steps by emitting regime.

    ``regimes`` is None for an i.i.d. model, whose steps form one group.
    """
    if regimes is None:
        return [(None, slice(None))]
    return [(int(r), regimes == r) for r in np.unique(regimes)]


def block_weights(handles, model, t, regimes, w, candidate, uniforms, out) -> None:
    """``evaluate`` every handle at every step of a block of a discrete run.

    Step b decides at time ``t[b]`` in emitting regime ``regimes[b]``
    (``regimes`` is None for an i.i.d. model) with pre-step total wealth
    ``w[b]`` and survival candidate ``candidate[b]``; ``uniforms[b]``
    holds the step's Monte Carlo uniforms, consumed in investor order.
    Writes the (B, M, N) weights into ``out``.  Constant and exact
    survival handles are filled one array operation per kind.
    """
    kinds = [h.kind for h in handles]
    const = [m for m, k in enumerate(kinds) if k == "constant"]
    if const:
        out[:, const] = np.array([handles[m].weights.weights for m in const])
    exact = [m for m, k in enumerate(kinds) if k == "survival_exact"]
    if exact:
        out[:, exact] = candidate[:, None, :]
    offset = 0
    for m, handle in enumerate(handles):
        n = mc_samples(handle)
        if kinds[m] not in ("constant", "survival_exact"):
            out[:, m] = _handle_block(
                handle, model, t, regimes, w, candidate, uniforms[:, offset : offset + n]
            )
        offset += n


def _handle_block(handle, model, t, regimes, w, candidate, uniforms) -> np.ndarray:
    kind = handle.kind
    if kind == "constant":
        return handle.weights.weights
    if kind == "survival_exact":
        return candidate
    if kind == "perturbed":
        base = _handle_block(handle.base, model, t, regimes, w, candidate, uniforms)
        eps = handle.schedule.epsilon(t)[:, None]
        return (1.0 - eps) * base + eps * handle.target.weights
    out = np.empty(candidate.shape)
    for r, sel in regime_groups(regimes):
        if kind == "table":
            entries = _table_entries(handle.table, r)
            out[sel] = np.array([v.weights for _, v in entries])[_table_index(entries, t[sel])]
        elif kind == "survival_mc":
            out[sel] = simplex_rows(mc_claim(model, r, w[sel], uniforms[sel]))
        else:
            raise DomainError(f"unknown strategy kind {kind!r}")
    return out
