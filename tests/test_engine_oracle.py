"""The staged discrete engine against the per-step reference loop.

``reference_run_discrete`` is the discrete engine as a plain per-step
loop: every strategy evaluated by ``evaluate`` at each step, one step of
the division rule, then the diagnostics added one step at a time.
Strategies read the pre-step total wealth from the exogenous recursion
W' = (1 - delta) W + |payoff|, as the staged engine does.  Random i.i.d.
and Markov models with profiles mixing all five strategy kinds are run
through both, over horizons of 0, 1 and lengths that cross block
boundaries (the block byte budget is shrunk so blocks are a few steps).
"""

from dataclasses import fields
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsel import (
    DiscreteIIDModel,
    MarketSpec,
    MarkovModulatedModel,
    PerturbationSchedule,
    ProfileRun,
    RngStream,
    constant_strategy,
    discrete_claim_vector,
    discrete_step,
    evaluate,
    make_simplex,
    perturbed,
    run_discrete,
    survival_mc_strategy,
    survival_strategy,
    table_strategy,
)
from marketsel import engine
from marketsel.core import divergence_rows
from marketsel.payoffs import _sample_arrays
from marketsel.strategies import mc_samples

RTOL = 1e-12


def reference_run_discrete(run: ProfileRun, rng: np.random.Generator):
    """The per-step loop the staged engine replaces."""
    market, model = run.market, run.market.payoff_model
    t_end = int(run.horizon)
    m_inv, n_assets = market.num_investors, market.num_assets
    regime = getattr(model, "initial_state", None)
    traj = engine._alloc(t_end, m_inv, n_assets, "discrete")
    y = market.initial_wealth.copy()
    w = float(y.sum())
    traj.wealth[0] = y
    traj.total[0] = w
    traj.rel[0] = y / w
    lam = np.empty((m_inv, n_assets))
    for t in range(1, t_end + 1):
        claim = discrete_claim_vector(model, regime, w)
        cand = make_simplex(claim)
        cand_w = cand.weights
        for m, handle in enumerate(run.strategies):
            lam[m] = evaluate(handle, model, t, regime, w, rng, candidate=cand).weights
        dx, dv, abs_dx, regime = _sample_arrays(model, regime, rng)
        y = engine._step_core(y, lam, dx, dv)
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
        traj.weights[k] = lam
        traj.candidate[k] = cand_w
        traj.z_jump[k] = abs_dx / w - dv
        d_pressure = float(claim.sum()) / w
        traj.pressure[t] = traj.pressure[k] + d_pressure
        if run.track_diagnostics:
            gaps = divergence_rows(cand_w, lam)
            traj.gap_integral[t] = traj.gap_integral[k] + gaps * d_pressure
            traj.closeness[t] = (
                traj.closeness[k] + ((lam - cand_w) ** 2).sum(axis=1) * d_pressure
            )
            traj.support_violations += np.any(
                (lam <= 0.0) & (cand_w > engine.SUPPORT_TOL)[None, :], axis=1
            )
        w = (1.0 - dv) * w + abs_dx
    return traj


class _Handout:
    """Stands in for an RngStream and keeps the generator it hands out."""

    def __init__(self, seed):
        self.gen = RngStream(seed).generator()

    def generator(self):
        return self.gen


def _simplex(draw, n, zeros=True):
    lo = 0.0 if zeros else 0.05
    raw = np.array(draw(st.lists(st.floats(lo, 1.0), min_size=n, max_size=n)))
    if raw.sum() <= 0.0:
        raw[draw(st.integers(0, n - 1))] = 1.0
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


def _handle(draw, n, n_regimes, depth=0):
    kinds = ["constant", "survival_exact", "survival_mc", "table"]
    if depth == 0:
        kinds.append("perturbed")
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return constant_strategy(_simplex(draw, n))
    if kind == "survival_exact":
        return survival_strategy()
    if kind == "survival_mc":
        return survival_mc_strategy(draw(st.integers(1, 6)))
    if kind == "perturbed":
        return perturbed(_handle(draw, n, n_regimes, depth + 1), _schedule(draw), _simplex(draw, n))

    def entries():
        starts = sorted(set(draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))))
        return [(float(s), _simplex(draw, n)) for s in starts]

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
    handles = [_handle(draw, n, n_regimes) for _ in range(m)]
    y0 = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    block_bytes = draw(st.integers(1, 6000))
    with mock.patch.object(engine, "BLOCK_BYTES", block_bytes):
        block = engine._block_steps(m, n, [mc_samples(h) for h in handles])
    horizon = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1, 3 * block]))
    spec = MarketSpec(m, n, y0, payoff_model=model)
    return spec, handles, horizon, block_bytes, draw(st.integers(0, 2**32)), draw(st.booleans())


@given(profile_runs())
@settings(max_examples=150, deadline=None)
def test_staged_engine_matches_per_step_reference(case):
    spec, handles, horizon, block_bytes, seed, diagnostics = case
    staged_rng, ref_rng = _Handout(seed), _Handout(seed)
    with mock.patch.object(engine, "BLOCK_BYTES", block_bytes):
        got = run_discrete(
            ProfileRun(spec, handles, horizon, staged_rng, track_diagnostics=diagnostics)
        )
    ref = reference_run_discrete(
        ProfileRun(spec, handles, horizon, ref_rng, track_diagnostics=diagnostics), ref_rng.gen
    )

    for f in fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray) and a.dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=RTOL, atol=0, err_msg=f.name)
        else:
            np.testing.assert_array_equal(a, b, err_msg=f.name)
    for k in range(got.n_records):
        replay = discrete_step(got.wealth[k], got.weights[k], got.dx[k], got.dv[k])
        assert np.array_equal(got.wealth[k + 1], replay), k
    assert _same_state(staged_rng.gen.bit_generator.state, ref_rng.gen.bit_generator.state)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)
