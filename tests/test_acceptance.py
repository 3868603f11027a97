"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with ``pytest -s`` to see them inline).

Heavy seed batches are shared through module-scoped fixtures; every
batch records per-seed bookkeeping identities, which criterion 7 then
checks across all of them.
"""

import math
import time

import numpy as np
import pytest

from marketsel import (
    DiscreteIIDModel,
    KernelSpec,
    MarketSpec,
    ProfileRun,
    RngStream,
    constant_strategy,
    discrete_step,
    evaluate,
    gibbs_gap,
    identity_report,
    run_continuous,
    submartingale_check,
    survival_mc_strategy,
    survival_strategy,
)
from marketsel.cli import build_run, parse_config_dict, run_batch
from marketsel.scenarios import get_scenario, two_point_model
from recording import recorded

GAP_SLACK = 1e-12
DRIFT_SLACK = -1e-12
CLOSED_FORM_TOL = 1e-12
JUMP_REPLAY_TOL = 1e-12
LINEAR_GROWTH_TOL = 1e-8
HALVING_RTOL = 1e-6
IDENTITY_STEP_TOL = 1e-12
IDENTITY_PATH_RTOL = 1e-9
SCALE_TOL = 1e-12

JOBS = 2


def _timed_batch(name):
    start = time.monotonic()
    result = run_batch(parse_config_dict(get_scenario(name).config), jobs=JOBS)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def dominance_batch():
    return _timed_batch("dominance-2pt")


@pytest.fixture(scope="module")
def perturbed_batch():
    return _timed_batch("survival-perturbed")


@pytest.fixture(scope="module")
def growth_batch():
    return _timed_batch("growth-rates")


@pytest.fixture(scope="module")
def jump_equivalence_runs():
    info = get_scenario("continuous-jump-equivalence")
    cfg = parse_config_dict(info.config)
    return [recorded(run_continuous, build_run(cfg, seed)) for seed in cfg.seeds]


def _rows(batch, investor):
    return [r["summary"]["investors"][investor] for r in batch["per_seed"]]


def test_criterion_1_gibbs_gap_lower_bound():
    """Gap >= quarter squared distance on 1e5 random pairs per dimension."""
    start = time.monotonic()
    worst = math.inf
    for dim in (2, 3, 4, 8):
        rng = np.random.default_rng(1000 + dim)
        alpha = rng.dirichlet(np.ones(dim), size=100_000)
        beta = rng.dirichlet(np.ones(dim), size=100_000)
        gaps = gibbs_gap(alpha, beta)
        dist_sq = ((alpha - beta) ** 2).sum(axis=1)
        worst = min(worst, float(np.min(gaps - dist_sq / 4.0)))
    elapsed = time.monotonic() - start
    assert worst >= -GAP_SLACK
    assert elapsed < 5.0
    print(f"PASS criterion 1: gibbs gap bound, worst slack {worst:.3e}, {elapsed:.2f}s")


def three_atom_model(delta: float) -> DiscreteIIDModel:
    """Three-outcome model with asymmetric payoff sizes."""
    return DiscreteIIDModel(
        atoms=(((2.0, 0.0), delta), ((0.0, 1.0), delta), ((1.0, 1.0), delta)),
        probabilities=(0.3, 0.5, 0.2),
    )


def test_criterion_2_one_step_submartingale():
    """Enumerated drift of the candidate player >= -1e-12 on random states."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = math.inf
    checked = 0
    for make_model in (two_point_model, lambda d: three_atom_model(d)):
        for delta in (0.0, 0.3):
            model = make_model(0.6, delta) if make_model is two_point_model else make_model(delta)
            for _ in range(250):
                rel = rng.dirichlet((1.0, 1.0))
                total = rng.uniform(0.5, 5.0)
                cand = evaluate(survival_strategy(), model, 1.0, None, total)
                weights = np.array([cand, rng.dirichlet((1.0, 1.0))])
                drift = submartingale_check(model, weights, rel * total, tracked=0)
                worst = min(worst, drift)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 1000
    assert worst >= DRIFT_SLACK
    assert elapsed < 10.0
    print(f"PASS criterion 2: submartingale drift, worst {worst:.3e} over 1000 states, {elapsed:.2f}s")


def test_criterion_3_closed_form_candidate():
    """Two-outcome candidate equals (p, 1-p) exactly; MC agrees to 5 SE."""
    for p in (0.1, 0.3, 0.5, 0.9):
        for w_prev in (0.1, 1.0, 100.0):
            for delta in (0.0, 0.5):
                out = evaluate(survival_strategy(), two_point_model(p, delta), 1.0, None, w_prev)
                err = np.max(np.abs(out - [p, 1.0 - p]))
                assert err <= CLOSED_FORM_TOL, (p, w_prev, delta, err)
    n = 100_000
    worst_sigmas = 0.0
    for i, p in enumerate((0.1, 0.3, 0.5, 0.9)):
        rng = RngStream(seed=300 + i).generator()
        mc = evaluate(survival_mc_strategy(n), two_point_model(p, 0.0), 1.0, None, 1.0, rng)
        se = math.sqrt(p * (1.0 - p) / n)
        worst_sigmas = max(worst_sigmas, abs(mc[0] - p) / se)
    assert worst_sigmas <= 5.0
    print(f"PASS criterion 3: closed form exact; MC within {worst_sigmas:.2f} SE at n=1e5")


def test_criterion_4_survival_and_dominance(dominance_batch):
    """Candidate keeps a share in >= 95% of seeds and dominates in >= 80%."""
    result, elapsed = dominance_batch
    rows = _rows(result, 0)
    n = len(rows)
    assert n == 100
    min_share_ok = sum(1 for r in rows if r["min_rel"] >= 0.05)
    dominant = sum(1 for r in rows if r["terminal_rel"] >= 0.95)
    # enumerated one-step log-odds drift at even shares and stationary wealth
    w_stat = 1.0 / 0.95
    lam = np.array([[0.6, 0.4], [0.5, 0.5]])
    y = np.array([0.5, 0.5]) * w_stat
    odds_drift = 0.0
    for prob, payoff in ((0.6, [1.0, 0.0]), (0.4, [0.0, 1.0])):
        y_next = discrete_step(y, lam, payoff, 0.95)
        odds_drift += prob * math.log(y_next[0] / y_next[1])
    assert min_share_ok >= 95, f"min-share floor held in only {min_share_ok}/100 seeds"
    assert dominant >= 80, f"terminal dominance in only {dominant}/100 seeds"
    assert elapsed < 30.0
    print(
        f"PASS criterion 4: min share ok {min_share_ok}/100, dominant {dominant}/100, "
        f"log-odds drift ~{odds_drift:.4f} nats/step, {elapsed:.1f}s"
    )


def test_criterion_5_closeness_dichotomy(dominance_batch, perturbed_batch):
    """Constant competitor's closeness integral diverges linearly; the 1/t
    perturbation's integral is Cauchy and that strategy survives."""
    dom, _ = dominance_batch
    const_rows = _rows(dom, 1)
    min_slope = min(r["closeness_tail_slope"] for r in const_rows)
    assert min_slope >= 0.001, f"constant investor's closeness slope {min_slope:.2e}"

    pert, _ = perturbed_batch
    pert_rows = _rows(pert, 0)
    max_increase = max(r["closeness_increase_last_half"] for r in pert_rows)
    surviving = sum(1 for r in pert_rows if r["survives"])
    n = len(pert_rows)
    assert max_increase <= 1e-3, f"perturbed closeness still growing: {max_increase:.2e}"
    assert surviving >= math.ceil(0.95 * n), f"perturbed survival in only {surviving}/{n} seeds"
    print(
        f"PASS criterion 5: constant slope >= {min_slope:.4f}/step, perturbed tail "
        f"increase {max_increase:.2e}, survival {surviving}/{n}"
    )


def test_criterion_6_growth_rate_ordering(growth_batch):
    """Candidate's terminal growth rate leads every competitor's in every seed."""
    result, elapsed = growth_batch
    worst_margin = math.inf
    for entry in result["per_seed"]:
        rows = entry["summary"]["investors"]
        margin = rows[0]["growth_terminal"] - rows[1]["growth_terminal"]
        worst_margin = min(worst_margin, margin)
    assert worst_margin >= -1e-3, f"growth ordering violated by {worst_margin:.2e}"
    print(
        f"PASS criterion 6: growth ordering in all {len(result['per_seed'])} seeds, "
        f"worst margin {worst_margin:.3e}, {elapsed:.1f}s"
    )


def test_criterion_7_engine_identities(
    dominance_batch, perturbed_batch, growth_batch, jump_equivalence_runs
):
    """Per-step wealth identity, wealth envelope and exponent reconstruction
    hold on every acceptance run."""
    worst_step = 0.0
    worst_margin = math.inf
    worst_exp = 0.0
    n_runs = 0
    for batch, _ in (dominance_batch, perturbed_batch, growth_batch):
        for entry in batch["per_seed"]:
            ident = entry["summary"]["identities"]
            worst_step = max(worst_step, ident["total_wealth_max_rel_err"])
            worst_margin = min(
                worst_margin, ident["lower_bound_margin"], ident["upper_bound_margin"]
            )
            worst_exp = max(worst_exp, ident["exponent_rel_err"])
            n_runs += 1
    for traj, _, _ in jump_equivalence_runs:
        report = identity_report(traj)
        worst_margin = min(
            worst_margin, report.lower_bound_margin, report.upper_bound_margin
        )
        worst_exp = max(worst_exp, report.exponent_rel_err)
        n_runs += 1
    assert worst_step <= IDENTITY_STEP_TOL
    assert worst_margin >= -IDENTITY_PATH_RTOL
    assert worst_exp <= IDENTITY_PATH_RTOL
    print(
        f"PASS criterion 7: identities on {n_runs} runs, step err {worst_step:.2e}, "
        f"envelope margin {worst_margin:.2e}, exponent err {worst_exp:.2e}"
    )


def test_criterion_8_continuous_discrete_equivalence(jump_equivalence_runs):
    """Pure-jump updates replay through the discrete step; drift-only total
    wealth is linear; refining the integrator step is inert."""
    worst_replay = 0.0
    n_jumps = 0
    for traj, lam, _ in jump_equivalence_runs:
        y = traj.wealth[0].copy()
        for k in np.where(traj.is_jump)[0]:
            y = discrete_step(y, lam[k], traj.dx[k], traj.dv[k])
            worst_replay = max(worst_replay, float(np.max(np.abs(y - traj.wealth[k + 1]))))
            n_jumps += 1
    assert worst_replay <= JUMP_REPLAY_TOL

    kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0), v_rate=0.0)
    spec = MarketSpec(1, 2, [1.0], payoff_model=kernel)
    traj = run_continuous(
        ProfileRun(spec, [constant_strategy([0.5, 0.5])], 10.0, RngStream(0), record_dt=1.0)
    )
    linear_err = float(np.max(np.abs(traj.total - (1.0 + 2.0 * traj.times))))
    assert linear_err <= LINEAR_GROWTH_TOL

    kernel2 = KernelSpec(
        jump_atoms=(((0.5, 0.0), 0.1, 0.6), ((0.0, 0.7), 0.0, 0.8)),
        drift=(0.4, 0.2),
        v_rate=0.3,
        gamma_v=0.2,
    )
    spec2 = MarketSpec(2, 2, [1.0, 1.5], payoff_model=kernel2)
    handles = [survival_strategy(), constant_strategy([0.3, 0.7])]

    def terminal(dt):
        return run_continuous(
            ProfileRun(spec2, handles, 10.0, RngStream(11), dt=dt, record_dt=1.0)
        ).wealth[-1]

    coarse, fine = terminal(0.01), terminal(0.005)
    halving = float(np.max(np.abs(coarse - fine) / fine))
    assert halving < HALVING_RTOL
    print(
        f"PASS criterion 8: replay err {worst_replay:.2e} over {n_jumps} jumps, "
        f"linear growth err {linear_err:.2e}, halving change {halving:.2e}"
    )


def test_criterion_9_candidate_scale_invariance():
    """Joint scaling of jump intensities and drift leaves the candidate fixed."""
    base_atoms = (((1.0, 0.0), 0.1, 1.0), ((0.0, 2.0), 0.0, 0.5))
    base_drift = np.array([0.2, 0.4])
    worst = 0.0
    reference = None
    for c in (1e-3, 1.0, 1e3):
        kernel = KernelSpec(
            jump_atoms=tuple((x, v, rho * c) for x, v, rho in base_atoms),
            drift=base_drift * c,
            gamma_v=0.2,
        )
        out = evaluate(survival_strategy(), kernel, 0.0, None, 1.7)
        if reference is None:
            reference = out
        worst = max(worst, float(np.max(np.abs(out - reference))))
    assert worst <= SCALE_TOL
    print(f"PASS criterion 9: candidate scale invariance, worst change {worst:.2e}")
