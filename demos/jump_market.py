"""The continuous-time market: jumps, drift, and bookkeeping identities.

Payoffs arrive as a compound-Poisson stream of (payoff vector, consumption
jump) atoms, optionally with a smooth payoff drift and consumption rate.
At every jump the same proportional-division rule as in discrete time
applies; between jumps wealth follows the interacting drift ODE.  This
script shows the jump/discrete equivalence, the wealth envelope, and the
reconstruction of total wealth through the stochastic exponent.
"""

import numpy as np

from marketsel import (
    KernelSpec,
    MarketSpec,
    ProfileRun,
    RngStream,
    constant_strategy,
    discrete_step,
    evaluate,
    identity_report,
    next_jump,
    run_continuous,
    survival_strategy,
)

print("=" * 70)
print("EVENT-DRIVEN CONTINUOUS MARKET")
print("=" * 70)

kernel = KernelSpec(
    jump_atoms=(((1.0, 0.0), 0.10, 1.0), ((0.0, 1.0), 0.05, 2.0)),
    drift=(0.0, 0.0),
    v_rate=0.0,
    gamma_v=0.2,
)
print()
print("Kernel: atom A = (payoff (1,0), v=0.10) at intensity 1;")
print("        atom B = (payoff (0,1), v=0.05) at intensity 2.")
rng = RngStream(seed=5).generator()
t, jumps = 0.0, []
while True:
    nxt = next_jump(kernel, rng, t)
    if nxt[0] > 3.0:
        break
    t = nxt[0]
    jumps.append(nxt)
print(f"First jumps up to t = 3: {[round(t, 3) for t, _ in jumps]}")

print()
print("Running two investors (candidate vs constant) to t = 5:")
spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
handles = [survival_strategy(), constant_strategy([0.5, 0.5])]
traj = run_continuous(ProfileRun(spec, handles, 5.0, RngStream(5), record_dt=0.5))
print(f"  records: {traj.times.size}, of which jumps: {int(traj.is_jump.sum())}")
print(f"  terminal wealth: {np.round(traj.wealth[-1], 6)}, shares {np.round(traj.rel[-1], 4)}")

print()
print("Each jump is exactly one discrete division step (replay check):")
# Strategies read the time and the exogenous total wealth W, which has no
# drift or consumption rate here: it changes only at a jump, to (1 - v) W + |x|.
y, w = traj.wealth[0].copy(), float(traj.total[0])
worst = 0.0
for k in np.where(traj.is_jump)[0]:
    t, x, v = traj.times[k + 1], traj.dx[k], traj.dv[k]
    weights = [evaluate(h, kernel, t, None, w) for h in handles]
    y = discrete_step(y, weights, x, v)
    w = (1.0 - v) * w + float(x.sum())
    worst = max(worst, float(np.max(np.abs(y - traj.wealth[k + 1]))))
print(f"  max replay discrepancy over {int(traj.is_jump.sum())} jumps: {worst:.2e}")

print()
print("Bookkeeping identities along the path:")
rep = identity_report(traj)
print(f"  wealth envelope margins: lower {rep.lower_bound_margin:+.2e}, upper {rep.upper_bound_margin:+.2e}")
print(f"  W_T recorded by the engine: {traj.total[-1]:.12f}")
print(f"  W_T rebuilt through the stochastic exponent: rel err {rep.exponent_rel_err:.2e}")

print()
print("With payoff drift the inter-jump dynamics interact (RK4 between jumps):")
kernel2 = KernelSpec(
    jump_atoms=(((0.5, 0.0), 0.1, 0.6), ((0.0, 0.7), 0.0, 0.8)),
    drift=(0.4, 0.2),
    v_rate=0.3,
    gamma_v=0.2,
)
spec2 = MarketSpec(2, 2, [1.0, 1.5], payoff_model=kernel2)
handles2 = [survival_strategy(), constant_strategy([0.3, 0.7])]


def terminal(dt):
    return run_continuous(
        ProfileRun(spec2, handles2, 10.0, RngStream(11), dt=dt, record_dt=1.0)
    ).wealth[-1]


coarse, fine = terminal(0.01), terminal(0.005)
print(f"  terminal wealth at dt=0.01:  {np.round(coarse, 9)}")
print(f"  halving the step changes it by {np.max(np.abs(coarse - fine) / fine):.2e} (relative)")
print(f"  identities: {identity_report(run_continuous(ProfileRun(spec2, handles2, 10.0, RngStream(11), record_dt=1.0)))}")
