"""Per-handle reference of the policy stage, shared by the oracle tests.

It resolves one strategy handle at a time, recursively, from the handle's
definition, outside the package's batched ``block_weights``: a constant
is its weights, the survival handle is the candidate it is given, a
perturbed blend mixes its base toward its target, a table looks up the
entry in force, and a Monte Carlo handle averages the claims of the atoms
its uniforms select.
"""

import numpy as np

from marketsel import MarkovModulatedModel
from marketsel.core import simplex_rows
from marketsel.strategies import _table_entries, _table_index, mc_samples, regime_groups


def reference_mc_claim(model, regime, w, uniforms):
    """The per-handle Monte Carlo claim: (B, S) uniforms, mean over the samples."""
    emit = model.regimes[regime] if isinstance(model, MarkovModulatedModel) else model
    probs, payoffs, abs_payoffs, deltas = emit.support_arrays()
    idx = np.searchsorted(np.cumsum(probs), uniforms, side="right")
    idx = np.minimum(idx, probs.size - 1)
    post_total = (1.0 - deltas[idx]) * w[..., None] + abs_payoffs[idx]
    claims = payoffs[idx] / post_total[..., None]
    return w[..., None] * claims.mean(axis=-2)


def reference_handle_block(handle, model, t, regimes, w, candidate, uniforms):
    """One handle's (B, N) weights over a block, resolved recursively."""
    kind = handle.kind
    if kind == "constant":
        return np.broadcast_to(handle.weights.weights, candidate.shape)
    if kind == "survival_exact":
        return candidate
    if kind == "perturbed":
        base = reference_handle_block(handle.base, model, t, regimes, w, candidate, uniforms)
        eps = handle.schedule.epsilon(t)[:, None]
        return (1.0 - eps) * base + eps * handle.target.weights
    out = np.empty(candidate.shape)
    for r, sel in regime_groups(regimes):
        if kind == "table":
            entries = _table_entries(handle.table, r)
            out[sel] = np.array([v.weights for _, v in entries])[_table_index(entries, t[sel])]
        else:
            out[sel] = simplex_rows(reference_mc_claim(model, r, w[sel], uniforms[sel]))
    return out


def reference_weights(handles, model, t, regime, w, candidate, rng=None):
    """Every handle's weights (M, N) at one decision point, each a one-row block.

    Handles draw their Monte Carlo uniforms from ``rng`` in investor
    order, one row of ``mc_samples(handle)`` each.
    """
    regimes = None if regime is None else np.array([regime])
    rows = []
    for handle in handles:
        n = mc_samples(handle)
        uniforms = rng.random((1, n)) if n else np.empty((1, 0))
        rows.append(reference_handle_block(
            handle, model, np.array([float(t)]), regimes, np.array([float(w)]),
            np.asarray(candidate, dtype=float)[None, :], uniforms,
        )[0])
    return np.array(rows)
