"""The staged engines against per-step reference loops.

``reference_run_discrete`` is the discrete engine as a plain per-step
loop: every strategy resolved at each step by the per-handle reference
of ``reference_policy`` (a one-row block per handle, its Monte Carlo
uniforms drawn in investor order), the step's payoff drawn from scalar
uniforms one at a time (``reference_sample``), one ``discrete_step``,
then the diagnostics added one step at a time.
Strategies read the pre-step total wealth from the exogenous recursion
W' = (1 - delta) W + |payoff|, as the staged engine does.  Random i.i.d.
and Markov models with profiles mixing all five strategy kinds (or, in a
market with an asset nobody holds, the three kinds that can leave it
out) are run through both, over horizons of 0, 1 and lengths that cross block
boundaries (the block byte budget is shrunk so blocks are a few steps).

``reference_run_continuous`` is the continuous engine as it stood before
its stages were split: each RK4 stage resolves every strategy through
the same per-handle reference and the share rule at that stage's state,
the diagnostic rates ride along as RK4 on the augmented system, and
every running sum advances one record at a time inside the event loop.
Strategies read the closed-form total wealth, as the staged engine
does, so the two differ only in the order of floating-point
operations.  Random kernels (with and without drift, consumption rate
and jumps) and profiles of the four kinds a kernel admits run through
both, with the chunk byte budget shrunk so segments cross chunk
boundaries.
"""

import math
from dataclasses import fields
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketsel import (
    DiscreteIIDModel,
    KernelSpec,
    MarketSpec,
    MarkovModulatedModel,
    PerturbationSchedule,
    ProfileRun,
    RngStream,
    constant_strategy,
    discrete_claim_vector,
    discrete_step,
    make_simplex,
    perturbed,
    run_continuous,
    run_discrete,
    survival_mc_strategy,
    survival_strategy,
    table_strategy,
)
from marketsel import engine
from marketsel.core import PATH_RTOL, divergence_rows
from marketsel.payoffs import expected_claim_rates, next_jump
from marketsel.strategies import mc_samples
from recording import recorded
from reference_policy import reference_weights

RTOL = 1e-12
CONTINUOUS_RTOL = 1e-10


def reference_sample(model, regime, rng: np.random.Generator):
    """One step's draw, two scalar uniforms at most: (payoff, delta, |payoff|, next regime)."""
    emit = model.regimes[regime] if isinstance(model, MarkovModulatedModel) else model
    idx = min(int(np.searchsorted(emit._cum_probs, rng.random(), side="right")), emit._deltas.size - 1)
    if emit is not model:
        row = model._cum_rows[regime]
        regime = min(int(np.searchsorted(row, rng.random(), side="right")), len(model.states) - 1)
    return emit._payoffs[idx], emit._deltas[idx], emit._abs_payoffs[idx], regime


def _on_clock(rate, clock):
    """The gap increment: rate * clock, and 0 where the clock does not move."""
    return rate * clock if clock > 0.0 else np.zeros_like(rate)


def reference_run_discrete(run: ProfileRun, rng: np.random.Generator):
    """The per-step loop the staged engine replaces; also returns every step's weights and candidate."""
    market, model = run.market, run.market.payoff_model
    t_end = int(run.horizon)
    m_inv, n_assets = market.num_investors, market.num_assets
    regime = getattr(model, "initial_state", None)
    traj = engine._alloc(t_end, m_inv, n_assets, "discrete")
    weights, candidate = np.zeros((t_end, m_inv, n_assets)), np.zeros((t_end, n_assets))
    y = market.initial_wealth.copy()
    w = float(y.sum())
    traj.wealth[0] = y
    traj.total[0] = w
    traj.rel[0] = y / w
    for t in range(1, t_end + 1):
        claim = discrete_claim_vector(model, regime, w)
        cand = make_simplex(claim)
        cand_w = cand
        lam = reference_weights(run.strategies, model, t, regime, w, cand_w, rng)
        dx, dv, abs_dx, regime = reference_sample(model, regime, rng)
        y = discrete_step(y, lam, dx, dv)
        k = t - 1
        traj.times[t] = float(t)
        traj.wealth[t] = y
        traj.total[t] = float(y.sum())
        traj.rel[t] = y / traj.total[t]
        traj.dx[k] = dx
        traj.dv[k] = dv
        traj.is_jump[k] = True
        traj.cum_x[t] = traj.cum_x[k] + dx
        traj.cum_v[t] = traj.cum_v[k] + dv
        traj.retention[t] = traj.retention[k] * (1.0 - dv)
        weights[k], candidate[k] = lam, cand_w
        traj.weight_floor = np.minimum(traj.weight_floor, lam.min(axis=1))
        traj.candidate_floor = min(traj.candidate_floor, float(cand_w.min()))
        traj.z_jump[k] = abs_dx / w - dv
        d_pressure = float(claim.sum()) / w
        traj.pressure[t] = traj.pressure[k] + d_pressure
        gaps = divergence_rows(cand_w, lam)
        traj.gap_integral[t] = traj.gap_integral[k] + _on_clock(gaps, d_pressure)
        traj.closeness[t] = traj.closeness[k] + ((lam - cand_w) ** 2).sum(axis=1) * d_pressure
        traj.support_violations += np.any(
            (lam <= 0.0) & (cand_w > engine.SUPPORT_TOL)[None, :], axis=1
        )
        w = (1.0 - dv) * w + abs_dx
    return traj, weights, candidate


class _Handout:
    """Stands in for an RngStream and keeps the generator it hands out."""

    def __init__(self, seed):
        self.gen = RngStream(seed).generator()

    def generator(self):
        return self.gen


def _simplex(draw, n, dead=None):
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if dead is not None:
        raw[dead] = 0.0
    if raw.sum() <= 0.0:
        raw[(dead + 1) % n if dead is not None else draw(st.integers(0, n - 1))] = 1.0
    return make_simplex(raw)


def _iid(draw, n):
    k = draw(st.integers(1, 4))
    atoms = tuple(
        (
            tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 3.0),
                                min_size=n, max_size=n))),
            draw(st.floats(0.0, 0.95)),
        )
        for _ in range(k)
    )
    probs = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return DiscreteIIDModel(atoms=atoms, probabilities=tuple(probs / probs.sum()))


def _schedule(draw):
    kind = draw(st.sampled_from(["zero", "constant", "inverse_t"]))
    hi = 1.0 if kind == "constant" else 6.0
    return PerturbationSchedule(kind, draw(st.floats(0.0, hi)))


def _handle(draw, n, n_regimes, dead=None, depth=0):
    # with a dead asset, leave out the survival kinds, which may weight it:
    # then nobody holds it and its payoff splits 1/M
    kinds = ["constant", "table"]
    if dead is None:
        kinds += ["survival_exact", "survival_mc"]
    if depth < 2:  # perturbed handles nest up to two deep
        kinds.append("perturbed")
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return constant_strategy(_simplex(draw, n, dead))
    if kind == "survival_exact":
        return survival_strategy()
    if kind == "survival_mc":
        return survival_mc_strategy(draw(st.integers(1, 6)))
    if kind == "perturbed":
        base = _handle(draw, n, n_regimes, dead, depth + 1)
        return perturbed(base, _schedule(draw), _simplex(draw, n, dead))

    def entries():
        starts = sorted(set(draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))))
        return [(float(s), _simplex(draw, n, dead)) for s in starts]

    per_regime = None
    if n_regimes > 1 and draw(st.booleans()):
        per_regime = {r: entries() for r in range(n_regimes) if draw(st.booleans())}
    return table_strategy(entries(), per_regime)


@st.composite
def profile_runs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    if draw(st.booleans()):
        model, n_regimes = _iid(draw, n), 1
    else:
        n_regimes = draw(st.integers(1, 3))
        rows = np.array(
            [draw(st.lists(st.floats(0.0, 1.0), min_size=n_regimes, max_size=n_regimes))
             for _ in range(n_regimes)]
        )
        rows[rows.sum(axis=1) <= 0.0, 0] = 1.0
        model = MarkovModulatedModel(
            states=tuple(f"s{r}" for r in range(n_regimes)),
            transition=rows / rows.sum(axis=1, keepdims=True),
            regimes=tuple(_iid(draw, n) for _ in range(n_regimes)),
            initial_state=draw(st.integers(0, n_regimes - 1)),
        )
    dead = draw(st.integers(0, n - 1)) if n > 1 and draw(st.integers(0, 2)) == 0 else None
    handles = [_handle(draw, n, n_regimes, dead) for _ in range(m)]
    y0 = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    block_bytes = draw(st.integers(1, 6000))
    block = max(1, block_bytes // (8 * engine._point_words(model, m, [mc_samples(h) for h in handles])))
    horizon = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1, 3 * block]))
    spec = MarketSpec(m, n, y0, payoff_model=model)
    return spec, handles, horizon, block_bytes, draw(st.integers(0, 2**32))


@given(profile_runs())
@settings(max_examples=150, deadline=None)
def test_staged_engine_matches_per_step_reference(case):
    spec, handles, horizon, block_bytes, seed = case
    staged_rng, ref_rng = _Handout(seed), _Handout(seed)
    with mock.patch.object(engine, "BLOCK_BYTES", block_bytes):
        got, *got_policy = recorded(run_discrete, ProfileRun(spec, handles, horizon, staged_rng))
    ref, *ref_policy = reference_run_discrete(ProfileRun(spec, handles, horizon, ref_rng), ref_rng.gen)

    for name, a, b in _compared(got, got_policy, ref, ref_policy):
        if np.asarray(a).dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=0, err_msg=name)
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)
    for k in range(got.n_records):
        replay = discrete_step(got.wealth[k], got_policy[0][k], got.dx[k], got.dv[k])
        assert np.array_equal(got.wealth[k + 1], replay), k
    assert _same_state(staged_rng.gen.bit_generator.state, ref_rng.gen.bit_generator.state)


def _compared(got, got_policy, ref, ref_policy):
    """(name, staged, reference) for every ``Trajectory`` field, then the weights and the candidate."""
    pairs = [(f.name, getattr(got, f.name), getattr(ref, f.name)) for f in fields(got)]
    return pairs + list(zip(("weights", "candidate"), got_policy, ref_policy))


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _reference_drift_rates(kernel, handles, t, y, w):
    """State derivative and diagnostic rates at (t, y), with total wealth w.

    Returns (dy, rates, lam, cand) where rates stacks the selection-clock
    rate, per-investor gap and closeness rates, and the ln W drift rate.
    """
    claim = expected_claim_rates(kernel, w)
    cand = make_simplex(claim + kernel.drift)
    cand_w = cand
    m_inv = y.size
    lam = reference_weights(handles, kernel, t, None, w, cand_w)
    b = kernel.drift
    # an asset is claimed when someone holds a positive weight on it; its
    # column is scaled to a largest weight of 1 so y @ lam cannot underflow
    top = lam.max(axis=0)
    claimed = top > 0.0
    scaled = lam / np.where(claimed, top, 1.0)
    safe = np.where(claimed, y @ scaled, 1.0)
    shares = np.where(claimed[None, :], scaled * y[:, None] / safe[None, :], 1.0 / m_inv)
    dy = shares @ b - kernel.v_rate * y
    rate_pressure = float((claim + b).sum()) / w
    gaps = divergence_rows(cand_w, lam)
    rate_gap = _on_clock(gaps, rate_pressure)
    rate_close = ((lam - cand_w) ** 2).sum(axis=1) * rate_pressure
    rate_logw = float(b.sum()) / w - kernel.v_rate
    rates = np.concatenate(([rate_pressure], rate_gap, rate_close, [rate_logw]))
    return dy, rates, lam, cand_w


def _reference_integrate_segment(kernel, handles, t0, t1, y, w0, dt):
    """Advance the state over a jump-free interval [t0, t1].

    Stage j/2 of a substep sits at offset j h / 2 from t0 and reads the
    total wealth there, computed as the engine computes it.
    """
    span = t1 - t0
    acc = np.zeros(2 * y.size + 2)
    if span <= 0.0:
        _, _, lam0, cand0 = _reference_drift_rates(kernel, handles, t0, y, w0)
        return y.copy(), acc, lam0, cand0
    n_steps = max(1, int(math.ceil(span / dt)))
    h = span / n_steps

    def stage(j, y_stage):
        s = j * (0.5 * h)
        return _reference_drift_rates(
            kernel, handles, t0 + s, y_stage, engine._total_wealth(kernel, w0, s)
        )

    has_drift = float(kernel.drift.sum()) > 0.0
    if not has_drift:
        _, r_left, lam0, cand0 = stage(0, y)
        for i in range(n_steps):
            _, r_mid, _, _ = stage(2 * i + 1, y)
            _, r_right, _, _ = stage(2 * i + 2, y)
            acc += (h / 6.0) * (r_left + 4.0 * r_mid + r_right)
            r_left = r_right
        return y * math.exp(-kernel.v_rate * span), acc, lam0, cand0
    lam0 = cand0 = None
    for i in range(n_steps):
        k1, r1, lam, cand = stage(2 * i, y)
        if lam0 is None:
            lam0, cand0 = lam, cand
        k2, r2, _, _ = stage(2 * i + 1, y + 0.5 * h * k1)
        k3, r3, _, _ = stage(2 * i + 1, y + 0.5 * h * k2)
        k4, r4, _, _ = stage(2 * i + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc += (h / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
    return y, acc, lam0, cand0


def _closed_form_w(kernel, w0, s):
    v, b = kernel.v_rate, float(kernel.drift.sum())
    return w0 + b * s if v == 0.0 else w0 * math.exp(-v * s) - b * math.expm1(-v * s) / v


def reference_run_continuous(run: ProfileRun, rng: np.random.Generator):
    """The per-stage event loop; also returns each record's weights, candidate and closed-form W."""
    market, kernel = run.market, run.market.payoff_model
    handles, b, v_rate, grid = run.strategies, kernel.drift, kernel.v_rate, run.record_dt
    m_inv = market.num_investors
    t, y = 0.0, market.initial_wealth.copy()
    w = float(y.sum())
    closed = [w]
    times, wealth, events = [t], [y], []
    cum_x, cum_v, retention = [np.zeros(market.num_assets)], [0.0], [1.0]
    pressure, gap, close = [0.0], [np.zeros(m_inv)], [np.zeros(m_inv)]
    support = np.zeros(m_inv, dtype=int)
    k_grid = 1
    pending = next_jump(kernel, rng, t)

    def tol(x):
        return engine.GRID_ULPS * math.ulp(x)

    def segment(t_to, jump=None):
        nonlocal t, y, w
        span = t_to - t
        y1, acc, lam, cand = _reference_integrate_segment(kernel, handles, t, t_to, y, w, run.dt)
        w1 = engine._total_wealth(kernel, w, span)
        closed.append(_closed_form_w(kernel, closed[-1], span))
        dx, dv, zj = b * span, v_rate * span, 0.0
        retention_factor = math.exp(-v_rate * span)
        if jump is not None:
            x, v = jump
            claim = expected_claim_rates(kernel, w1)
            cand_vec = make_simplex(claim + b)
            lam = reference_weights(handles, kernel, t_to, None, w1, cand_vec)
            cand = cand_vec
            y1 = discrete_step(y1, lam, x, v)
            zj = float(x.sum()) / w1 - v
            w1 = (1.0 - v) * w1 + float(x.sum())
            closed[-1] = (1.0 - v) * closed[-1] + float(x.sum())
            dx, dv = dx + x, dv + v
            retention_factor *= 1.0 - v
        times.append(t_to)
        wealth.append(y1)
        events.append((dx, dv, jump is not None, acc[-1], zj, lam, cand))
        cum_x.append(cum_x[-1] + dx)
        cum_v.append(cum_v[-1] + dv)
        retention.append(retention[-1] * retention_factor)
        pressure.append(pressure[-1] + acc[0])
        gap.append(gap[-1] + acc[1 : 1 + m_inv])
        close.append(close[-1] + acc[1 + m_inv : 1 + 2 * m_inv])
        support[...] += np.any((lam <= 0.0) & (cand > engine.SUPPORT_TOL)[None, :], axis=1)
        t, y, w = t_to, y1, w1

    while t < run.horizon:
        t_jump = pending[0] if pending is not None else math.inf
        t_stop = min(t_jump, run.horizon)
        while grid is not None and k_grid * grid < t_stop - tol(t_stop):
            if k_grid * grid > t + tol(t):
                segment(k_grid * grid)
            k_grid += 1
        if t_jump > run.horizon:
            if run.horizon > t:
                segment(run.horizon)
            break
        segment(t_jump, pending[1])
        pending = next_jump(kernel, rng, t)

    traj = engine._alloc(len(events), m_inv, market.num_assets, "continuous")
    traj.times[:], traj.wealth[:] = times, wealth
    traj.total[:] = [float(y.sum()) for y in wealth]
    traj.rel[:] = [y / y.sum() for y in wealth]
    traj.cum_x[:], traj.cum_v[:], traj.retention[:] = cum_x, cum_v, retention
    traj.pressure[:], traj.gap_integral[:], traj.closeness[:] = pressure, gap, close
    traj.support_violations = support
    weights = np.zeros((len(events), m_inv, market.num_assets))
    candidate = np.zeros((len(events), market.num_assets))
    for k, (dx, dv, is_jump, zc, zj, lam, cand) in enumerate(events):
        traj.dx[k], traj.dv[k], traj.is_jump[k] = dx, dv, is_jump
        traj.z_cont[k], traj.z_jump[k] = zc, zj
        weights[k], candidate[k] = lam, cand
    if events:
        traj.weight_floor, traj.candidate_floor = weights.min(axis=(0, 2)), float(candidate.min())
    return traj, weights, candidate, np.array(closed)


def _kernel(draw, n, dead):
    k = draw(st.integers(0, 3))
    gamma = draw(st.floats(0.0, 0.9))
    atoms = []
    for _ in range(k):
        x = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0), min_size=n, max_size=n))
        v = draw(st.floats(0.0, gamma))
        if sum(x) == 0.0 and v == 0.0:
            x[0] = 1.0
        atoms.append((tuple(x), v, draw(st.sampled_from([0.0, 2.0]) | st.floats(0.3, 4.0))))
    if draw(st.integers(0, 2)) == 0:
        drift = [0.0] * n
    else:
        drift = draw(st.lists(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
        if dead is not None:
            drift[dead] = max(drift[dead], 0.2)  # drift nobody claims
    v_rate = draw(st.sampled_from([0.0, 0.0, 0.3]) | st.floats(0.05, 0.6))
    return KernelSpec(jump_atoms=tuple(atoms), drift=tuple(drift), v_rate=v_rate, gamma_v=gamma)


def _continuous_handle(draw, n, dead, depth=0):
    # with a dead asset, leave out the candidate, which weights it when it
    # has drift: then nobody holds it and its drift splits 1/M
    kinds = (["perturbed"] if depth == 0 else []) + ["table", "constant"]
    if dead is None:
        kinds.insert(1 - depth, "survival_exact")
    kind = draw(st.sampled_from(kinds))

    def weights():
        raw = np.array(draw(st.lists(st.sampled_from([5e-324, 1e-310]) | st.floats(0.0, 1.0),
                                     min_size=n, max_size=n)))
        if dead is not None:
            raw[dead] = 0.0
        if raw.sum() <= 0.0:
            raw[(dead + 1) % n if dead is not None else 0] = 1.0
        return make_simplex(raw)

    if kind == "constant":
        return constant_strategy(weights())
    if kind == "survival_exact":
        return survival_strategy()
    if kind == "perturbed":
        # coefficients below the horizons, so that inverse_t blends vary in time
        kind = draw(st.sampled_from(["inverse_t", "constant", "zero"]))
        schedule = PerturbationSchedule(kind, draw(st.floats(0.05, 1.0)))
        return perturbed(_continuous_handle(draw, n, dead, depth + 1), schedule, weights())
    # breakpoints off every grid the runs below can lay down, so that the
    # engines cannot disagree on which side of one a decision time falls
    starts = sorted(set(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))))
    return table_strategy([(0.5 * s + 1.0 / math.pi, weights()) for s in starts])


@st.composite
def continuous_runs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([3, 2, 4, 1]))
    dead = draw(st.integers(0, n - 1) | st.none()) if n > 1 else None
    kernel = _kernel(draw, n, dead)
    handles = [_continuous_handle(draw, n, dead) for _ in range(m)]
    y0 = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    spec = MarketSpec(m, n, y0, payoff_model=kernel)
    return (
        spec,
        handles,
        draw(st.sampled_from([2.5, 1.0, 0.37, 0.0])),
        # RK4 keeps sum(y) on the closed-form W within PATH_RTOL only while
        # v_rate * dt is small: (0.6 * 0.02)^4 / 120 per unit time
        draw(st.sampled_from([0.01, 0.02])),
        draw(st.sampled_from([0.25, 0.5, 0.1]) | st.none()),
        draw(st.integers(1, 20000)),
        draw(st.integers(0, 2**32)),
    )


def _subnormal_gap_case():
    """A drift of 5e-324 on asset 0 gives every point a subnormal gap rate
    whose per-substep increments round to 0 in the reference."""
    kernel = KernelSpec(jump_atoms=(), drift=np.array([5e-324, 0.3]))
    to = PerturbationSchedule(kind="inverse_t", coefficient=1.0)
    handles = [survival_strategy()] + [
        perturbed(survival_strategy(), to, target) for target in ([0.5, 0.5], [0.5, 0.5], [2.04623062e-263, 1.0])
    ]
    return MarketSpec(4, 2, [1.0] * 4, payoff_model=kernel), handles, 2.5, 0.01, None, 3200, 0


@given(continuous_runs())
@example(_subnormal_gap_case())
@settings(max_examples=150, deadline=None)
def test_staged_continuous_engine_matches_per_stage_reference(case):
    spec, handles, horizon, dt, record_dt, block_bytes, seed = case
    staged_rng, ref_rng = _Handout(seed), _Handout(seed)
    replays = []

    def spy(y, lam, x, v):
        out = discrete_step(y, lam, x, v)
        replays.append((y.copy(), lam.copy(), x.copy(), v, out))
        return out

    with mock.patch.object(engine, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(engine, "discrete_step", spy):
        got, *got_policy = recorded(
            run_continuous, ProfileRun(spec, handles, horizon, staged_rng, dt=dt, record_dt=record_dt)
        )
    ref, *ref_policy, closed_w = reference_run_continuous(
        ProfileRun(spec, handles, horizon, ref_rng, dt=dt, record_dt=record_dt), ref_rng.gen
    )

    for name, a, b in _compared(got, got_policy, ref, ref_policy):
        if np.asarray(a).dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=CONTINUOUS_RTOL, atol=0, err_msg=name)
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)
    # every jump row is discrete_step of the pre-jump state, bit for bit
    jump_rows = np.flatnonzero(got.is_jump)
    assert len(replays) == jump_rows.size
    weights = got_policy[0]
    for k, (y, lam, x, v, out) in zip(jump_rows, replays):
        assert np.array_equal(lam, weights[k])
        assert np.array_equal(got.wealth[k + 1], out)
        assert np.array_equal(discrete_step(y, weights[k], x, v), out)
    np.testing.assert_allclose(got.total, closed_w, rtol=PATH_RTOL, atol=0)
    assert _same_state(staged_rng.gen.bit_generator.state, ref_rng.gen.bit_generator.state)
