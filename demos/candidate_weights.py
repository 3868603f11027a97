"""Constructing the survival candidate.

The candidate weights each asset by its expected payoff claim after the
proportional-division discount, then normalizes.  This script builds it
three ways — exact enumeration, Monte Carlo, and the continuous-time
kernel integral — and shows the invariances that make it well defined.
"""

import numpy as np

from marketsel import (
    DiscreteIIDModel,
    KernelSpec,
    RngStream,
    evaluate,
    expected_claim_rates,
    survival_mc_strategy,
    survival_strategy,
)
from marketsel.scenarios import two_point_model


def candidate(env, w):
    """The survival candidate on a model or kernel at total wealth ``w``."""
    return evaluate(survival_strategy(), env, 0.0, None, w)


print("=" * 70)
print("SURVIVAL CANDIDATE WEIGHTS")
print("=" * 70)

# ── Two-outcome market: the candidate is the outcome distribution ──────
print()
print("Two-outcome model: asset 1 pays 1 w.p. p, else asset 2 pays 1.")
print("Because both outcomes deliver the same total payoff, the division")
print("discount cancels and the candidate is (p, 1-p) for ANY wealth and")
print("any reinvestment fraction delta:")
print()
for p in (0.3, 0.6):
    for w in (0.1, 1.0, 100.0):
        out = candidate(two_point_model(p, 0.5), w)
        print(f"  p={p}, W={w:>6}: candidate = ({out[0]:.12f}, {out[1]:.12f})")

# ── Asymmetric payoffs: the discount matters ────────────────────────────
print()
print("Asymmetric payoffs break the cancellation.  Atoms (2,0) and (0,1)")
print("each w.p. 1/2 at W = 1: claims are (1/3, 1/4), candidate (4/7, 3/7):")
model = DiscreteIIDModel(atoms=(((2.0, 0.0), 0.0), ((0.0, 1.0), 0.0)), probabilities=(0.5, 0.5))
out = candidate(model, 1.0)
print(f"  candidate = ({out[0]:.12f}, {out[1]:.12f})   [4/7 = {4/7:.12f}]")
print()
print("The same candidate depends on wealth once payoffs are asymmetric:")
for w in (0.5, 1.0, 10.0):
    out = candidate(model, w)
    print(f"  W={w:>5}: candidate = ({out[0]:.6f}, {out[1]:.6f})")

# ── Monte Carlo route ───────────────────────────────────────────────────
print()
print("Monte Carlo construction converges to the exact one at 1/sqrt(n):")
rng = RngStream(seed=2024).generator()
exact = candidate(model, 1.0)
for n in (100, 10_000, 1_000_000):
    mc = evaluate(survival_mc_strategy(n), model, 0.0, None, 1.0, rng)
    err = np.max(np.abs(mc - exact))
    print(f"  n={n:>9,}: estimate = ({mc[0]:.6f}, {mc[1]:.6f}), err = {err:.2e}")

# ── Continuous time: kernel claims plus drift ──────────────────────────
print()
print("Continuous time: jump atoms (payoff, consumption jump, intensity)")
print("plus a payoff drift.  The consumption RATE never enters.")
kernel = KernelSpec(
    jump_atoms=(((1.0, 0.0), 0.0, 1.0), ((0.0, 1.0), 0.0, 2.0)),
    drift=(0.0, 0.0),
)
print(f"  claim rates at W=1: {expected_claim_rates(kernel, 1.0)}")
print(f"  candidate:          {candidate(kernel, 1.0)}  [= (1/3, 2/3)]")

drifty = KernelSpec(jump_atoms=(), drift=(3.0, 1.0))
print(f"  pure drift (3,1):   {candidate(drifty, 1.0)}  [= (3/4, 1/4)]")

# ── Invariance under the operational-clock choice ──────────────────────
print()
print("Rescaling all intensities and the drift by a common factor c is a")
print("change of operational clock; the candidate must not move:")
for c in (1e-3, 1.0, 1e3):
    kernel_c = KernelSpec(
        jump_atoms=(((1.0, 0.0), 0.1, 1.0 * c), ((0.0, 2.0), 0.0, 0.5 * c)),
        drift=(0.2 * c, 0.4 * c),
        gamma_v=0.2,
    )
    out = candidate(kernel_c, 1.7)
    print(f"  c={c:>6}: candidate = ({out[0]:.15f}, {out[1]:.15f})")
