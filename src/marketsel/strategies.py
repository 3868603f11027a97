"""Strategy constructors and the batched policy stage.

A strategy maps (time, regime, pre-event total wealth) to simplex weights
over the assets.  Strategies never see competitors' wealth or actions;
total wealth is fair game because it is a function of the exogenous
payoff/consumption processes alone.

The survival candidate weights an asset by its expected payoff share
after the proportional division discount.  In discrete time the claim is
an exact enumeration over the model's support (``discrete_claim_vector``);
in continuous time it is the kernel's expected claim rate plus the payoff
drift.  The engine forms that claim and normalizes it; ``block_weights``
resolves every strategy handle at a block of decision points, and the
``survival_mc`` handle estimates the discrete claim from drawn atoms
(``mc_claim``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, as_simplex, simplex_rows
from .payoffs import DiscreteIIDModel, KernelSpec, MarkovModulatedModel, _atom_index, _emitter


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
    probs, payoffs, abs_payoffs, deltas = _emitter(model, regime_state).support_arrays()
    post_total = (1.0 - deltas) * w[..., None] + abs_payoffs
    # The sum over atoms runs along a non-contiguous axis, so it adds in
    # atom order whatever the leading shape: scalar and vector W agree.
    return w[..., None] * ((probs / post_total)[..., None] * payoffs).sum(axis=-2)


def fold_words(n_samples: int, n_assets: int) -> int:
    """Words per decision point that ``mc_claim``'s fold over ``n_samples``
    samples holds at most: 2 S (N + 1)."""
    return 2 * n_samples * (n_assets + 1)


def mc_claim(emit: DiscreteIIDModel, w, idx, cols) -> list:
    """Monte Carlo estimates of ``discrete_claim_vector`` from drawn atoms.

    ``w`` holds B wealth levels and ``idx`` (B, U) the atoms drawn from
    ``emit`` for them (``_atom_index`` of their uniforms).  Each entry of
    ``cols`` is an (S, H) array of column indices: handle h of that entry
    averages the S samples in columns ``cols[:, h]``.  Returns one
    (B, H, N) claim array per entry.

    The per-atom claims payoff / ((1 - delta) W + |payoff|) are formed
    once per wealth level and gathered sample-major, then folded over the
    samples in order, as a mean over the sample axis adds them.  A chunk
    of c samples holds (c + 3) H (N + 1) words per level -- its claims and
    atom indices, and the carried, old and new sums -- so c is sized to
    keep that within ``fold_words(S, N)``, whatever B is.
    """
    n_atoms, n = emit._deltas.size, emit.num_assets
    post_total = (1.0 - emit._deltas) * w[:, None] + emit._abs_payoffs
    per_atom = (emit._payoffs / post_total[..., None]).reshape(-1, n)
    first_atom = n_atoms * np.arange(w.size)[:, None, None]  # level b's rows of per_atom
    claims = []
    for c in cols:
        s, h = c.shape
        chunk = max(1, fold_words(s, n) // (h * (n + 1)) - 3)
        for s0 in range(0, s, chunk):
            rows = idx[:, c[s0 : s0 + chunk]]
            rows += first_atom
            part = np.take(per_atom, rows.transpose(1, 0, 2), axis=0, mode="clip")
            if s0:
                part[0] += acc  # the carried sum comes first, as in one in-order sum
            acc = np.add.reduce(part, axis=0)
        claims.append(w[:, None, None] * (acc / s))
    return claims


@dataclass(frozen=True)
class PerturbationSchedule:
    """Time profile of the blend fraction toward a target strategy.

    Kinds: "zero" (no perturbation), "constant" (fraction = coefficient),
    "inverse_t" (fraction = coefficient / t, clipped into [0, 1]; 0 at
    every t, t = 0 included, when the coefficient is 0).  The inverse_t
    profile has square-summable fractions, which keeps the perturbed
    strategy within the survival sufficient condition; a constant
    fraction does not.
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
        if self.kind == "inverse_t" and c > 0.0:
            clipped = np.asarray(t) <= c
            # where t > c, t > 0 too, so the division is safe
            eps = np.where(clipped, 1.0, c / np.where(clipped, 1.0, t))
        else:
            eps = np.full(np.shape(t), c if self.kind == "constant" else 0.0)
        return eps if np.ndim(t) else float(eps)


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
    weights: Optional[np.ndarray] = None
    n_samples: int = 0
    base: Optional["StrategyHandle"] = None
    schedule: Optional[PerturbationSchedule] = None
    target: Optional[np.ndarray] = None
    table: Optional[tuple] = None


def constant_strategy(weights) -> StrategyHandle:
    return StrategyHandle(kind="constant", weights=as_simplex(weights))


def survival_strategy() -> StrategyHandle:
    return StrategyHandle(kind="survival_exact")


def survival_mc_strategy(n_samples: int) -> StrategyHandle:
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return StrategyHandle(kind="survival_mc", n_samples=int(n_samples))


def perturbed(base: StrategyHandle, schedule: PerturbationSchedule, target) -> StrategyHandle:
    """Blend ``base`` toward ``target`` by the schedule's fraction."""
    return StrategyHandle(kind="perturbed", base=base, schedule=schedule, target=as_simplex(target))


def table_strategy(default, per_regime=None) -> StrategyHandle:
    """Piecewise-constant weights: ``default`` is a list of (t_from, weights)
    entries, their breakpoints t_from finite and strictly increasing;
    ``per_regime`` optionally overrides it per regime index."""

    def norm(entries):
        rows = []
        last = -np.inf
        for t_from, w in entries:
            t_from = float(t_from)
            if not last < t_from < np.inf:  # also a NaN or +inf breakpoint, which no time reaches
                raise DomainError("table breakpoints must be finite and strictly increasing")
            last = t_from
            rows.append((t_from, as_simplex(w)))
        if not rows:
            raise DomainError("table needs at least one entry")
        return tuple(rows)

    regimes = None
    if per_regime is not None:
        regimes = {}
        for k, v in dict(per_regime).items():
            if int(k) in regimes:
                raise DomainError(f"table regime {int(k)} is given twice")
            regimes[int(k)] = norm(v)
        regimes = tuple(sorted(regimes.items()))
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


def mc_samples(handle: StrategyHandle) -> int:
    """Uniforms one evaluation of ``handle`` draws: its survival_mc samples."""
    if handle.kind == "survival_mc":
        return handle.n_samples
    if handle.kind == "perturbed":
        return mc_samples(handle.base)
    return 0


def handle_errors(handle: StrategyHandle, model) -> list:
    """Why ``handle`` cannot run on ``model``: (path, message) pairs, paths relative to the handle.

    A Monte Carlo leaf needs a finite-support model, every weight vector
    one weight per asset, and a table's per-regime entries a regime of a
    Markov model.  Paths follow the config layout.
    """
    n = model.num_assets
    n_regimes = len(model.states) if isinstance(model, MarkovModulatedModel) else 0

    def length(path, weights):
        if weights.size == n:
            return []
        return [(path, f"need one weight per asset (got {weights.size}, expected {n})")]

    errors = []
    if isinstance(model, KernelSpec) and mc_samples(handle):
        errors.append(("", "survival_mc needs a finite-support discrete model"))
    path = ""
    while handle.kind == "perturbed":
        errors += length(f"{path}.target", handle.target)
        path, handle = f"{path}.base", handle.base
    if handle.kind == "constant":
        errors += length(f"{path}.weights", handle.weights)
    if handle.kind == "table":
        default, regimes = handle.table
        for j, (_, w) in enumerate(default):
            errors += length(f"{path}.default[{j}][1]", w)
        for r, entries in regimes or ():
            if r not in range(n_regimes):
                msg = f"no regime {r}: the payoff model has {n_regimes} regimes"
                errors.append((f"{path}.regimes.{r}", msg))
            for j, (_, w) in enumerate(entries):
                errors += length(f"{path}.regimes.{r}[{j}][1]", w)
    return errors


def regime_groups(regimes):
    """(regime, selector) pairs splitting a block's steps by emitting regime.

    ``regimes`` is None for an i.i.d. model, whose steps form one group.
    """
    if regimes is None:
        return [(None, slice(None))]
    return [(int(r), regimes == r) for r in np.unique(regimes)]


class Policy:
    """A profile's handles sorted by kind for ``block_weights``, once per run.

    Every handle is a leaf -- constant, survival_exact, survival_mc or
    table -- inside zero or more perturbed blends.  Leaves are grouped by
    kind (Monte Carlo leaves also by sample count), and the blends by
    their distance from the leaf, so each group is one array operation.
    """

    def __init__(self, handles):
        self.size = len(handles)
        leaves, levels = [], []
        for m, handle in enumerate(handles):
            chain = []
            while handle.kind == "perturbed":
                chain.append(handle)
                handle = handle.base
            for depth, blend in enumerate(reversed(chain)):
                if depth == len(levels):
                    levels.append([])
                levels[depth].append((m, blend))
            if handle.kind not in ("constant", "survival_exact", "survival_mc", "table"):
                raise DomainError(f"unknown strategy kind {handle.kind!r}")
            leaves.append(handle)

        def of(kind):
            return [m for m, leaf in enumerate(leaves) if leaf.kind == kind]

        self.constant = of("constant")
        self.constant_weights = np.array([leaves[m].weights for m in self.constant])
        self.exact = of("survival_exact")
        self.tables = of("table")
        self._table_defs = [leaves[m].table for m in self.tables]
        self._stacks = {}
        # a Monte Carlo leaf of S samples reads uniform columns offset + 0..S-1
        offsets = np.cumsum([0] + [mc_samples(h) for h in handles])
        mc = of("survival_mc")
        self.mc = []
        for s in sorted({leaves[m].n_samples for m in mc}):
            ms = [m for m in mc if leaves[m].n_samples == s]
            self.mc.append((ms, offsets[ms] + np.arange(s)[:, None]))
        self.levels = [
            (
                [m for m, _ in level],
                [blend.schedule for _, blend in level],
                np.array([blend.target for _, blend in level]),
            )
            for level in levels
        ]

    def table_stack(self, regime):
        """The tables in force in ``regime``, stacked: (breakpoints, entry, weights).

        ``breakpoints`` is the sorted union of every table's breakpoints;
        at a time with p of them at or before it, table h uses row
        ``entry[p, h]`` of ``weights``.
        """
        if regime not in self._stacks:
            entries = [_table_entries(table, regime) for table in self._table_defs]
            breaks = np.unique([t_from for e in entries for t_from, _ in e])
            # the time at which each union interval starts; -inf before them all
            probes = np.concatenate(([-np.inf], breaks))
            first = np.cumsum([0] + [len(e) for e in entries])
            entry = np.column_stack(
                [first[h] + _table_index(e, probes) for h, e in enumerate(entries)]
            )
            weights = np.array([w for e in entries for _, w in e])
            self._stacks[regime] = (breaks, entry, weights)
        return self._stacks[regime]


def block_weights(policy: Policy, model, t, groups, w, candidate, uniforms, out) -> None:
    """Every handle's weights at every step of a block, one array pass per kind.

    Step b decides at time ``t[b]`` with pre-step total wealth ``w[b]`` and
    survival candidate ``candidate[b]``; ``groups`` is ``regime_groups`` of
    the block's emitting regimes.  ``uniforms[b]`` holds the step's Monte
    Carlo uniforms, consumed in investor order.  Writes the (B, M, N)
    weights into ``out``: every leaf kind in one array operation (Monte
    Carlo and table leaves one per regime group), then the perturbed
    blends, innermost first, one operation per nesting level.
    """
    n = out.shape[2]
    if policy.constant:
        out[:, policy.constant] = policy.constant_weights
    if policy.exact:
        out[:, policy.exact] = candidate[:, None, :]
    if policy.tables:
        vals = np.empty((len(t), len(policy.tables), n))
        for r, sel in groups:
            breaks, entry, weights = policy.table_stack(r)
            vals[sel] = weights[entry[np.searchsorted(breaks, t[sel], side="right")]]
        out[:, policy.tables] = vals
    if policy.mc:
        vals = [np.empty((len(t), len(ms), n)) for ms, _ in policy.mc]
        cols = [c for _, c in policy.mc]
        for r, sel in groups:
            emit = _emitter(model, r)
            idx = _atom_index(emit, uniforms[sel])
            claims = mc_claim(emit, w[sel], idx, cols)
            for v, claim in zip(vals, claims):
                v[sel] = simplex_rows(claim.reshape(-1, n)).reshape(claim.shape)
        for (ms, _), v in zip(policy.mc, vals):
            out[:, ms] = v
    for ms, schedules, targets in policy.levels:
        eps = np.array([s.epsilon(t) for s in schedules]).T[..., None]
        out[:, ms] = (1.0 - eps) * out[:, ms] + eps * targets
