"""Market selection in action: survival and dominance.

One investor plays the survival candidate, the other a fixed (0.5, 0.5).
Near-full reinvestment keeps total wealth bounded, so every step exerts
selection pressure and the candidate's share of the market climbs to one
at a rate set by the divergence between the two strategies.
"""

import numpy as np

from marketsel import (
    MarketSpec,
    ProfileRun,
    RngStream,
    constant_strategy,
    growth_comparison,
    run_discrete,
    survival_strategy,
    survival_verdict,
)
from marketsel.cli import parse_config_dict, run_batch
from marketsel.scenarios import get_scenario, two_point_model

print("=" * 70)
print("SURVIVAL AND DOMINANCE: candidate vs constant (0.5, 0.5)")
print("=" * 70)

model = two_point_model(0.6, 0.95)
spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
handles = [survival_strategy(), constant_strategy([0.5, 0.5])]

print()
print("Single path (seed 7), share of investor 1 over time:")
traj = run_discrete(ProfileRun(spec, handles, 2000, RngStream(7)))
for t in (0, 10, 50, 100, 250, 500, 1000, 2000):
    print(f"  t={t:>5}: r1 = {traj.rel[t, 0]:.6f}   (log odds {np.log(traj.rel[t,0]/traj.rel[t,1]):+8.3f})")

print()
verdict_1 = survival_verdict(traj, 0, floor=0.05)
verdict_2 = survival_verdict(traj, 1, floor=0.05)
print(f"Survival proxy, investor 1: min r = {verdict_1.min_rel:.4f}, "
      f"tail slope = {verdict_1.tail_slope:+.2e}  ->  {'SURVIVES' if verdict_1.survives else 'fails'}")
print(f"Survival proxy, investor 2: min r = {verdict_2.min_rel:.4f}, "
      f"terminal r = {verdict_2.terminal_rel:.2e}  ->  {'SURVIVES' if verdict_2.survives else 'fails'}")

growth = growth_comparison(traj)
print(f"Terminal growth rates: candidate {growth['terminal_rates'][0]:+.5f}, "
      f"constant {growth['terminal_rates'][1]:+.5f}  (leader: investor {growth['leader'] + 1})")

print()
print("The gap integral is the selection budget the constant investor burns:")
print(f"  pressure clock H_T        = {traj.pressure[-1]:.2f}")
print(f"  gap integral, investor 2  = {traj.gap_integral[-1, 1]:.2f}")
print(f"  closeness integral        = {traj.closeness[-1, 1]:.2f}")
print(f"  (per unit pressure: gap = {traj.gap_integral[-1,1]/traj.pressure[-1]:.5f}, "
      f"KL(0.6||0.5) = {0.6*np.log(1.2) + 0.4*np.log(0.8):.5f})")

print()
print("Seed batch (the dominance-2pt scenario, 100 seeds):")
result = run_batch(parse_config_dict(get_scenario("dominance-2pt").config), jobs=2)
rows = [r["summary"]["investors"][0] for r in result["per_seed"]]
min_ok = sum(1 for r in rows if r["min_rel"] >= 0.05)
dominant = sum(1 for r in rows if r["terminal_rel"] >= 0.95)
agg = result["aggregate"]["investors"][0]
lo, hi = agg["survives_ci95"]
print(f"  min share >= 0.05:   {min_ok}/100 seeds")
print(f"  terminal r >= 0.95:  {dominant}/100 seeds")
print(f"  survival proxy:      {agg['survives_count']}/100  (95% CI [{lo:.3f}, {hi:.3f}])")
