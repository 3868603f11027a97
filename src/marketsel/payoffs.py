"""Exogenous payoff environments.

Three model classes drive the simulations: finite-support i.i.d. draws of
(payoff vector, consumption fraction) pairs for the discrete-time market,
a Markov-modulated variant whose regime selects the emission model, and a
compound-Poisson jump kernel (plus deterministic payoff drift and
consumption rate) for the continuous-time market.

All models are immutable after construction and enumerable, so one-step
conditional expectations can be computed exactly.  Sampling uses
counter-based Philox streams keyed by (seed, stream), which makes every
draw sequence bit-reproducible and lets parallel workers own independent
streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, SUM_ATOL, as_vector


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream identified by (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = int(getattr(self, name))
            if not 0 <= v < 2**64:
                raise DomainError(f"{name} must fit in an unsigned 64-bit integer")
            object.__setattr__(self, name, v)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _payoff(x, name: str, n: Optional[int] = None) -> np.ndarray:
    """The payoff-vector rule of every model: 1-d, finite, non-negative and, given ``n``, of length n."""
    vec = as_vector(x, name)
    if np.any(vec < 0.0):
        raise DomainError(f"{name} must be non-negative")
    if n is not None and vec.size != n:
        msg = f"{name} has {vec.size}, expected {n}"
        raise DomainError(f"all payoff vectors must have the same length ({msg})")
    return vec


@dataclass(frozen=True)
class DiscreteIIDModel:
    """Finite-support i.i.d. draws of (payoff vector, consumption fraction)."""

    atoms: tuple
    probabilities: tuple

    def __post_init__(self):
        payoffs, deltas = [], []
        for i, (x, delta) in enumerate(self.atoms):
            payoffs.append(_payoff(x, f"atoms[{i}].payoff", payoffs[0].size if payoffs else None))
            deltas.append(float(delta))
            if not 0.0 <= deltas[-1] < 1.0:
                raise DomainError(f"atoms[{i}]: delta must lie in [0, 1)")
        if not payoffs:
            raise DomainError("model needs at least one atom")
        atoms = tuple(zip(payoffs, deltas))
        payoffs, deltas = np.array(payoffs, dtype=float), np.array(deltas, dtype=float)
        probs = as_vector(self.probabilities, "probabilities")
        if probs.size != payoffs.shape[0]:
            raise DomainError("need one probability per atom")
        if np.any(probs <= 0.0):
            raise DomainError("probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > SUM_ATOL:
            raise DomainError("probabilities must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probabilities", tuple(probs.tolist()))
        object.__setattr__(self, "_payoffs", payoffs)
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_abs_payoffs", payoffs.sum(axis=1))
        object.__setattr__(self, "_cum_probs", np.cumsum(probs))

    @property
    def num_assets(self) -> int:
        return self._payoffs.shape[1]

    def support_arrays(self):
        """(probabilities, payoffs, |payoffs|, deltas) as stacked arrays."""
        return self._probs, self._payoffs, self._abs_payoffs, self._deltas


@dataclass(frozen=True)
class MarkovModulatedModel:
    """Regime-switching emissions: the regime occupied at the start of a
    step emits that step's payoff, then transitions.  Strategies may
    condition on the emitting regime (it is known one step ahead)."""

    states: tuple
    transition: np.ndarray
    regimes: tuple
    initial_state: int = 0

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        regimes = tuple(self.regimes)
        if len(states) != len(regimes) or not states:
            raise DomainError("need one emission model per regime label")
        try:
            trans = np.asarray(self.transition, dtype=float)
        except ValueError:  # ragged rows, or entries that are not numbers
            trans = np.empty(0)
        if trans.shape != (len(states), len(states)):
            raise DomainError("transition matrix shape must match the number of regimes")
        if np.any(trans < 0.0) or np.any(np.abs(trans.sum(axis=1) - 1.0) > SUM_ATOL):
            raise DomainError("transition matrix rows must be distributions summing to 1")
        n_assets = {m.num_assets for m in regimes}
        if len(n_assets) != 1:
            raise DomainError("all regimes must share the same number of assets")
        if not 0 <= int(self.initial_state) < len(states):
            raise DomainError("initial state out of range")
        trans = trans.copy()
        trans.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "regimes", regimes)
        object.__setattr__(self, "initial_state", int(self.initial_state))
        object.__setattr__(self, "_cum_rows", np.cumsum(trans, axis=1))

    @property
    def num_assets(self) -> int:
        return self.regimes[0].num_assets


@dataclass(frozen=True)
class KernelSpec:
    """Compound-Poisson jump kernel with payoff drift and consumption rate.

    Each atom is a joint jump (payoff vector x, consumption fraction v)
    arriving with intensity rho per unit time; ``drift`` is the continuous
    payoff rate per asset and ``v_rate`` the continuous consumption rate.
    The operational clock is wall time, so all rates are constant.
    ``gamma_v`` bounds every jump's v below 1; omitted, it is the largest
    jump v (0 without jumps).
    """

    jump_atoms: tuple
    drift: np.ndarray
    v_rate: float = 0.0
    gamma_v: Optional[float] = None

    def __post_init__(self):
        atoms = tuple(self.jump_atoms)
        for i, (_, v, _) in enumerate(atoms):
            if not 0.0 <= float(v) < 1.0:
                raise DomainError(f"jump_atoms[{i}]: v must lie in [0, 1)")
        largest_v = max((float(v) for _, v, _ in atoms), default=0.0)
        gamma = float(largest_v if self.gamma_v is None else self.gamma_v)
        if not 0.0 <= gamma < 1.0:
            raise DomainError("gamma_v, by default the largest jump v, must lie in [0, 1)")
        drift = _payoff(self.drift, "drift")
        v_rate = float(self.v_rate)
        if v_rate < 0.0 or not np.isfinite(v_rate):
            raise DomainError("v_rate must be finite and >= 0")
        xs, vs, rhos = [], [], []
        for i, (x, v, rho) in enumerate(atoms):
            vec = _payoff(x, f"jump_atoms[{i}].payoff", drift.size)
            v = float(v)
            if not 0.0 <= v <= gamma:
                raise DomainError(f"jump_atoms[{i}]: v must lie in [0, gamma_v]")
            if not 0.0 <= float(rho) < np.inf:
                raise DomainError(f"jump_atoms[{i}]: intensity must be finite and >= 0")
            if vec.sum() == 0.0 and v == 0.0:
                raise DomainError(f"jump_atoms[{i}]: (x, v) must not be the zero jump")
            xs.append(vec)
            vs.append(v)
            rhos.append(float(rho))
        xs = np.array(xs, dtype=float) if xs else np.zeros((0, drift.size))
        vs = np.array(vs, dtype=float)
        rhos = np.array(rhos, dtype=float)
        drift = drift.copy()
        drift.flags.writeable = False
        object.__setattr__(self, "jump_atoms", tuple(zip(map(tuple, xs.tolist()), vs.tolist(), rhos.tolist())))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "v_rate", v_rate)
        object.__setattr__(self, "gamma_v", gamma)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_vs", vs)
        object.__setattr__(self, "_rhos", rhos)
        object.__setattr__(self, "_abs_xs", xs.sum(axis=1))
        object.__setattr__(self, "_total_intensity", float(rhos.sum()))
        object.__setattr__(self, "_cum_rho", np.cumsum(rhos))

    @property
    def num_assets(self) -> int:
        return self.drift.size


def _atom_index(model: DiscreteIIDModel, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(model._cum_probs, u, side="right")
    return np.minimum(idx, model._deltas.size - 1, out=idx)


def _sample_arrays(model, regime_state, u: np.ndarray):
    """Engine-internal draw of a block of B steps from given uniforms.

    ``u`` is (B, 1) for an i.i.d. model and (B, 2) for a Markov model:
    column 0 picks each step's atom and column 1 the regime it moves to.
    Returns (payoff rows (B, N), deltas, |payoffs|, emitting regimes (B,)
    or None, regime after the block).
    """
    if not isinstance(model, MarkovModulatedModel):
        idx = _atom_index(model, u[:, 0])
        return model._payoffs[idx], model._deltas[idx], model._abs_payoffs[idx], None, regime_state
    last = len(model.states) - 1
    # the regime each regime would move to at every step, as Python ints
    moves = [
        np.minimum(np.searchsorted(row, u[:, 1], side="right"), last).tolist()
        for row in model._cum_rows
    ]
    path = []
    for i in range(len(u)):
        path.append(regime_state)
        regime_state = moves[regime_state][i]
    regimes = np.array(path, dtype=int)
    rows = np.empty((len(u), model.num_assets))
    deltas, sizes = np.empty(len(u)), np.empty(len(u))
    for r in np.unique(regimes):
        sel = regimes == r
        emit = model.regimes[r]
        idx = _atom_index(emit, u[sel, 0])
        rows[sel], deltas[sel], sizes[sel] = emit._payoffs[idx], emit._deltas[idx], emit._abs_payoffs[idx]
    return rows, deltas, sizes, regimes, regime_state


def _emitter(model, regime_state) -> DiscreteIIDModel:
    """The i.i.d. model that emits in ``regime_state`` (None for an i.i.d. model)."""
    if isinstance(model, MarkovModulatedModel):
        n = len(model.states)
        if regime_state not in range(n):
            raise DomainError(f"regime must lie in range({n}), got {regime_state!r}")
        return model.regimes[regime_state]
    if isinstance(model, DiscreteIIDModel):
        return model
    raise DomainError(f"model of type {type(model).__name__} has no finite support")


def enumerate_support(model, regime_state=None):
    """Exact one-step conditional distribution of (payoff, delta).

    Returns a list of (probability, payoff vector, delta) triples for the
    model's current regime.  Only finite-support models are accepted.
    """
    probs, payoffs, _, deltas = _emitter(model, regime_state).support_arrays()
    return [(float(p), payoffs[i].copy(), float(deltas[i])) for i, p in enumerate(probs)]


def next_jump(kernel: KernelSpec, rng: np.random.Generator, t_now: float):
    """Draw the next jump of the kernel after ``t_now``.

    Returns (jump_time, (payoff vector, v)) with the inter-arrival time
    exponential at the total intensity and the atom chosen proportionally
    to its intensity, or None when the kernel has zero total intensity.
    """
    total = kernel._total_intensity
    if total <= 0.0:
        return None
    wait = rng.exponential(1.0 / total)
    u = rng.random() * total
    idx = int(np.searchsorted(kernel._cum_rho, u, side="right"))
    idx = min(idx, kernel._rhos.size - 1)
    return t_now + wait, (kernel._xs[idx].copy(), float(kernel._vs[idx]))


def expected_claim_rates(kernel: KernelSpec, w_minus) -> np.ndarray:
    """Expected payoff claimed per asset and unit time at total wealth ``w_minus``.

    Every jump atom contributes its intensity times the payoff discounted
    by the post-event division factor 1 - v + |x| / W.  The discount is
    bounded away from zero because v <= gamma_v < 1, so the result is
    always finite.  ``w_minus`` may be a scalar (result shape (N,)) or a
    vector of K wealth levels (result (K, N)).
    """
    w = np.asarray(w_minus, dtype=float)
    if not np.all(w > 0.0):
        raise DomainError("total wealth must be positive")
    denom = 1.0 - kernel._vs + kernel._abs_xs / w[..., None]
    # The sum over atoms runs along a non-contiguous axis, so it adds in
    # atom order whatever the leading shape: scalar and vector W agree.
    return ((kernel._rhos / denom)[..., None] * kernel._xs).sum(axis=-2)
