"""The closeness dichotomy.

Survivors cluster around the candidate: a surviving strategy must keep a
finite integral of its squared distance to the candidate against the
selection clock.  A strategy at fixed distance accumulates that integral
linearly and is driven out; a perturbation whose distance shrinks like
1/t keeps the integral finite and survives.  The one-step submartingale
drift is the mechanism: it is non-negative for the candidate player and
the deficit of a competitor is priced by its Gibbs gap.
"""

import numpy as np

from marketsel import (
    MarketSpec,
    ProfileRun,
    RngStream,
    check_survival_conditions,
    constant_strategy,
    evaluate,
    gibbs_gap,
    perturbed,
    run_discrete,
    submartingale_check,
    survival_strategy,
    survival_verdict,
)
from marketsel.strategies import PerturbationSchedule
from marketsel.scenarios import two_point_model

print("=" * 70)
print("CLOSENESS DICHOTOMY: fixed distance vs vanishing distance")
print("=" * 70)

model = two_point_model(0.6, 0.95)
spec = MarketSpec(3, 2, [1.0, 1.0, 1.0], payoff_model=model)
handles = [
    survival_strategy(),
    constant_strategy([0.5, 0.5]),
    perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 1.0), [0.5, 0.5]),
]
traj = run_discrete(ProfileRun(spec, handles, 2000, RngStream(3)))

print()
print("Three investors: candidate, constant (0.5,0.5), 1/t-perturbed candidate.")
print()
print("Closeness integrals (squared distance to the candidate, dH-weighted):")
for t in (100, 500, 1000, 2000):
    c = traj.closeness[t]
    print(f"  t={t:>5}: candidate {c[0]:.4f} | constant {c[1]:8.3f} | perturbed {c[2]:.6f}")

print()
print("The constant investor's integral grows linearly; the perturbed one is")
print(f"Cauchy: increase over [1000, 2000] = {traj.closeness[-1,2] - traj.closeness[1000,2]:.2e}")

print()
print("Survival sufficient conditions, per investor:")
for m, label in ((0, "candidate "), (1, "constant  "), (2, "perturbed ")):
    rep = check_survival_conditions(traj, m)
    print(
        f"  {label}: support violations {rep.support_violations:>4}, "
        f"gap integral {rep.gap_total:8.3f}, "
        f"tail slope {rep.tail_slope:+.2e}  ->  "
        f"(a) {'ok' if rep.condition_a else 'VIOLATED'}, "
        f"(b) {'ok' if rep.condition_b else 'VIOLATED'}, "
        f"(c) {'ok' if rep.condition_c else 'VIOLATED'}"
    )

print()
print("Verdicts at the horizon:")
for m, label in ((0, "candidate "), (1, "constant  "), (2, "perturbed ")):
    v = survival_verdict(traj, m, floor=0.05)
    print(f"  {label}: min r = {v.min_rel:.4f}, terminal r = {v.terminal_rel:.4f}  ->  "
          f"{'SURVIVES' if v.survives else 'extinct'}")

print()
print("Mechanism: the exact one-step drift of ln r + gap * dH, enumerated")
print("over the model's outcomes, is non-negative.  At even shares:")
w = float(traj.total[0])
cand = evaluate(survival_strategy(), model, 0.0, None, w)
lam = np.array([cand, [0.5, 0.5], cand])
y = np.full(3, w / 3)
for m, label in ((0, "candidate"), (1, "constant ")):
    drift = submartingale_check(model, lam, y, tracked=m)
    print(f"  tracked {label}: drift = {drift:+.6f}  (gap to candidate: "
          f"{gibbs_gap(cand, lam[m]):.6f})")
