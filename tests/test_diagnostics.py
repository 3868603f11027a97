"""Diagnostics tests.

Two kinds of oracle appear here.  Hand values: the Gibbs gap of simple
pairs, the pressure increment 1/(W+1) of the unit-payoff two-outcome
model.  Dual routes: the engine accumulates the pressure, gap and
closeness integrals step by step, and these tests recompute all three
from the recorded weight series with standalone functions (the closeness
integral from ``reference_closeness``).  The submartingale check is itself an enumeration oracle; its
own arithmetic is cross-checked against an explicit two-outcome
expectation written out by hand.
"""

import dataclasses
import functools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsel import (
    DiscreteIIDModel,
    DomainError,
    KernelSpec,
    MarketSpec,
    ProfileRun,
    RngStream,
    check_survival_conditions,
    constant_strategy,
    discrete_claim_vector,
    discrete_step,
    evaluate,
    gibbs_gap,
    growth_comparison,
    growth_rate,
    perturbed,
    run_continuous,
    run_discrete,
    submartingale_check,
    sufficient_condition_check,
    survival_strategy,
    survival_verdict,
    wilson_interval,
)
from marketsel.strategies import PerturbationSchedule
from marketsel.scenarios import two_point_model
from recording import recorded
from reference_closeness import closeness_integral

EXACT_TOL = 1e-12
ACCUM_RTOL = 1e-9


def _dominance_run(horizon=400, delta=0.95, seed=1, strategies=None):
    model = two_point_model(0.6, delta)
    spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
    handles = strategies or [survival_strategy(), constant_strategy([0.5, 0.5])]
    return run_discrete(ProfileRun(spec, handles, horizon, RngStream(seed)))


class TestGibbsGap:
    def test_identical_inputs_give_zero(self):
        assert gibbs_gap([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_hand_value(self):
        gap = gibbs_gap([0.5, 0.5], [0.25, 0.75])
        assert gap == pytest.approx(0.5 * math.log(4 / 3), abs=EXACT_TOL)
        assert gap >= 0.03125  # ||alpha - beta||^2 / 4

    def test_zero_component_of_alpha_drops(self):
        assert gibbs_gap([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=EXACT_TOL)

    def test_unmatched_zero_in_beta_is_infinite(self):
        assert gibbs_gap([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_matched_zeros_are_fine(self):
        assert gibbs_gap([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_rejects_non_simplex(self):
        with pytest.raises(DomainError):
            gibbs_gap([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(DomainError):
            gibbs_gap([0.5, 0.5], [-0.5, 1.5])

    def test_stacked_rows(self):
        alpha = np.array([[0.5, 0.5], [1.0, 0.0]])
        beta = np.array([[0.25, 0.75], [0.5, 0.5]])
        out = gibbs_gap(alpha, beta)
        np.testing.assert_allclose(
            out, [0.5 * math.log(4 / 3), math.log(2)], atol=EXACT_TOL, rtol=0
        )

    def test_broadcast_matches_row_by_row(self):
        rng = np.random.default_rng(5)
        beta = rng.dirichlet(np.ones(9), size=(3, 4))
        beta[0, :, 2] = 0.0  # alpha weights asset 2: those gaps are +inf
        beta /= beta.sum(axis=-1, keepdims=True)
        alpha = rng.dirichlet(np.ones(9))
        out = gibbs_gap(alpha, beta)
        assert out.shape == (3, 4) and np.all(np.isinf(out[0])) and np.all(np.isfinite(out[1:]))
        for i, j in np.ndindex(3, 4):
            one = gibbs_gap(alpha, beta[i, j])
            assert type(one) is float and one == out[i, j]

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_quarter_distance_lower_bound(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.dirichlet(np.ones(dim), size=10_000)
        b = rng.dirichlet(np.ones(dim), size=10_000)
        gaps = gibbs_gap(a, b)
        dist_sq = ((a - b) ** 2).sum(axis=1)
        assert np.min(gaps - dist_sq / 4.0) >= -EXACT_TOL

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_positivity_away_from_equality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        gap = gibbs_gap(a, b)
        assert gap >= 0.0
        if float(((a - b) ** 2).sum()) > 1e-6:
            assert gap > 0.0


class TestAccumulatePressure:
    def test_unit_payoff_increment(self):
        # two-outcome model with |payoff| = 1 and delta = 0 at wealth W:
        # total claim is W/(W+1), so the clock advances by 1/(W+1)
        model = two_point_model(0.6, 0.0)
        for w in (0.5, 1.0, 7.0):
            d_pressure = discrete_claim_vector(model, None, w).sum() / w
            assert d_pressure == pytest.approx(1.0 / (w + 1.0), abs=EXACT_TOL)

    def test_zero_environment_keeps_clock_constant(self):
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 0.0))
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 3.0, RngStream(0), record_dt=1.0)
        )
        np.testing.assert_array_equal(traj.pressure, np.zeros_like(traj.pressure))

    def test_monotone_along_paths(self):
        traj = _dominance_run()
        assert np.all(np.diff(traj.pressure) >= 0.0)

    def test_matches_engine_accumulation(self):
        # dual route: replay the clock from recorded totals
        traj = _dominance_run(horizon=200)
        model = two_point_model(0.6, 0.95)
        h = sum(
            discrete_claim_vector(model, None, traj.total[k]).sum() / traj.total[k]
            for k in range(traj.n_records)
        )
        assert h == pytest.approx(traj.pressure[-1], rel=ACCUM_RTOL)


class TestSubmartingaleCheck:
    def test_identical_candidate_players_have_zero_drift(self):
        model = two_point_model(0.6, 0.0)
        lam = np.array([[0.6, 0.4], [0.6, 0.4]])
        drift = submartingale_check(model, lam, [1.0, 1.0], tracked=0)
        assert abs(drift) < 1e-14

    def test_identical_investors_leave_only_the_gap_term(self):
        # shares never move, so the drift reduces to gap * pressure increment
        model = two_point_model(0.6, 0.0)
        lam = np.array([[0.7, 0.3], [0.7, 0.3]])
        w = 2.0
        drift = submartingale_check(model, lam, [1.0, 1.0], tracked=0)
        gap = gibbs_gap([0.6, 0.4], [0.7, 0.3])
        dh = discrete_claim_vector(model, None, w).sum() / w
        assert drift == pytest.approx(gap * dh, abs=EXACT_TOL)

    def test_candidate_drift_strictly_positive_against_divergent_opponent(self):
        model = two_point_model(0.6, 0.0)
        lam = np.array([[0.6, 0.4], [0.5, 0.5]])
        drift = submartingale_check(model, lam, [0.5, 0.5], tracked=0)
        assert drift > 1e-6

    def test_arithmetic_against_hand_enumeration(self):
        # independent two-outcome expectation, written out longhand
        model = two_point_model(0.6, 0.0)
        y = np.array([0.5, 0.5])
        lam = np.array([[0.6, 0.4], [0.5, 0.5]])
        up = discrete_step(y, lam, [1.0, 0.0], 0.0)
        down = discrete_step(y, lam, [0.0, 1.0], 0.0)
        expected = (
            0.6 * math.log(up[0] / up.sum())
            + 0.4 * math.log(down[0] / down.sum())
            - math.log(0.5)
        )
        drift = submartingale_check(model, lam, y, tracked=0)
        assert drift == pytest.approx(expected, abs=EXACT_TOL)

    def test_gap_compensation_uses_tracked_strategy(self):
        # a non-candidate tracked investor picks up a positive gap term
        model = two_point_model(0.6, 0.0)
        lam = np.array([[0.5, 0.5], [0.6, 0.4]])
        y = np.array([0.5, 0.5])
        w = float(y.sum())
        gap = gibbs_gap([0.6, 0.4], [0.5, 0.5])
        claim = discrete_claim_vector(model, None, w)
        dh = claim.sum() / w
        up = discrete_step(y, lam, [1.0, 0.0], 0.0)
        down = discrete_step(y, lam, [0.0, 1.0], 0.0)
        raw = (
            0.6 * math.log(up[0] / up.sum())
            + 0.4 * math.log(down[0] / down.sum())
            - math.log(0.5)
        )
        drift = submartingale_check(model, lam, y, tracked=0)
        assert drift == pytest.approx(raw + gap * dh, abs=EXACT_TOL)

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_candidate_drift_nonnegative_on_random_states(self, delta):
        model = two_point_model(0.6, delta)
        rng = np.random.default_rng(17)
        for _ in range(100):
            r = rng.dirichlet((1.0, 1.0))
            w = rng.uniform(0.5, 5.0)
            cand = evaluate(survival_strategy(), model, 1.0, None, w)
            lam = np.array([cand, rng.dirichlet((1.0, 1.0))])
            drift = submartingale_check(model, lam, r * w, tracked=0)
            assert drift >= -EXACT_TOL

    def test_infinite_support_rejected(self):
        kernel = KernelSpec(jump_atoms=(((1.0, 0.0), 0.0, 1.0),), drift=(0.0, 0.0))
        with pytest.raises(DomainError):
            submartingale_check(kernel, [[0.5, 0.5]] * 2, [1.0, 1.0], tracked=0)

    def test_markov_regime_conditioning(self):
        from marketsel import MarkovModulatedModel

        model = MarkovModulatedModel(
            states=("a", "b"),
            transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
            regimes=(two_point_model(0.3, 0.0), two_point_model(0.8, 0.0)),
        )
        rng = np.random.default_rng(23)
        for regime in (0, 1):
            cand = evaluate(survival_strategy(), model, 1.0, regime, 2.0)
            for _ in range(50):
                lam = np.array([cand, rng.dirichlet((1.0, 1.0))])
                drift = submartingale_check(model, lam, [1.0, 1.0], tracked=0, regime=regime)
                assert drift >= -EXACT_TOL


class TestClosenessIntegral:
    def test_zero_for_matching_series(self):
        lam = np.tile([0.6, 0.4], (10, 1))
        assert closeness_integral(lam, lam, np.ones(10)) == 0.0

    def test_constant_distance_lower_bound(self):
        # with a pressure floor h the integral grows at least dist^2 * h * T
        traj, lam, cand = recorded(_dominance_run, horizon=300)
        dh = np.diff(traj.pressure)
        floor = dh.min()
        assert floor > 0.0
        total = closeness_integral(lam[:, 1, :], cand, dh)
        assert total >= 0.02 * floor * traj.n_records - EXACT_TOL

    def test_inverse_t_perturbation_partial_sums_cauchy(self):
        handles = [
            perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 1.0), [0.5, 0.5]),
            constant_strategy([0.5, 0.5]),
        ]
        traj = _dominance_run(horizon=1000, strategies=handles)
        closeness = traj.closeness[:, 0]
        assert closeness[-1] - closeness[500] < 1e-3

    def test_recomputation_matches_engine(self):
        # dual route for the engine's closeness accumulator
        traj, lam, cand = recorded(_dominance_run, horizon=250)
        recomputed = closeness_integral(lam[:, 1, :], cand, np.diff(traj.pressure))
        assert recomputed == pytest.approx(traj.closeness[-1, 1], rel=ACCUM_RTOL)

    def test_gap_integral_recomputation_matches_engine(self):
        traj, lam, cand = recorded(_dominance_run, horizon=250)
        gaps = gibbs_gap(cand, lam[:, 1, :])
        recomputed = float((gaps * np.diff(traj.pressure)).sum())
        assert recomputed == pytest.approx(traj.gap_integral[-1, 1], rel=ACCUM_RTOL)

    def test_misaligned_series_rejected(self):
        with pytest.raises(DomainError):
            closeness_integral(np.ones((5, 2)) / 2, np.ones((4, 2)) / 2, np.ones(5))


class TestSurvivalVerdict:
    def test_symmetric_market_min_share_is_exact(self):
        model = two_point_model(0.6, 0.3)
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
        traj = run_discrete(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 200, RngStream(3))
        )
        verdict = survival_verdict(traj, 0, floor=0.05)
        assert verdict.min_rel == 0.5
        assert verdict.survives

    def test_dominated_investor_fails_proxy(self):
        traj = _dominance_run(horizon=2000)
        loser = survival_verdict(traj, 1, floor=0.05)
        assert not loser.survives
        winner = survival_verdict(traj, 0, floor=0.05)
        assert winner.survives

    def test_terminal_share_reported(self):
        traj = _dominance_run(horizon=100)
        verdict = survival_verdict(traj, 0, floor=0.05)
        assert verdict.terminal_rel == pytest.approx(traj.rel[-1, 0])


class TestGrowthRate:
    def test_deterministic_recursion_oracle(self):
        model = DiscreteIIDModel(atoms=(((2.0, 1.0), 0.25),), probabilities=(1.0,))
        spec = MarketSpec(2, 2, [1.0, 2.0], payoff_model=model)
        lam = [[0.7, 0.3], [0.2, 0.8]]
        traj = run_discrete(
            ProfileRun(spec, [constant_strategy(w) for w in lam], 60, RngStream(4))
        )
        series = growth_rate(traj, 0)
        # independent recursion for investor 0's wealth
        y = [1.0, 2.0]
        for _ in range(60):
            invested = [sum(lam[k][j] * y[k] for k in range(2)) for j in range(2)]
            y = [
                0.75 * y[i]
                + sum(lam[i][j] * y[i] / invested[j] * (2.0, 1.0)[j] for j in range(2))
                for i in range(2)
            ]
        assert series.terminal == pytest.approx(math.log(y[0]) / 60.0, rel=1e-12)

    def test_identical_investors_share_rates(self):
        model = two_point_model(0.6, 0.3)
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
        traj = run_discrete(
            ProfileRun(spec, [constant_strategy([0.6, 0.4])] * 2, 150, RngStream(5))
        )
        a, b = growth_rate(traj, 0), growth_rate(traj, 1)
        np.testing.assert_array_equal(a.rates, b.rates)

    def test_comparison_identifies_leader(self):
        traj = _dominance_run(horizon=1500)
        report = growth_comparison(traj)
        assert report["leader"] == 0
        assert report["terminal_rates"][0] >= report["terminal_rates"][1]


class TestSurvivalConditions:
    def test_candidate_player_is_clean(self):
        traj = _dominance_run(horizon=300)
        report = check_survival_conditions(traj, 0)
        assert report.support_violations == 0
        assert report.gap_total == 0.0
        assert report.max_crossing_increment == 0.0
        assert report.condition_a and report.condition_b and report.condition_c

    def test_zero_component_strategy_violates_support(self):
        handles = [constant_strategy([1.0, 0.0]), constant_strategy([0.5, 0.5])]
        traj = _dominance_run(horizon=50, strategies=handles)
        report = check_survival_conditions(traj, 0)
        assert report.support_violations == 50
        assert not report.condition_a
        assert report.gap_total == math.inf

    def test_vanishing_perturbation_satisfies_integral_condition(self):
        handles = [
            perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 1.0), [0.5, 0.5]),
            constant_strategy([0.5, 0.5]),
        ]
        traj = _dominance_run(horizon=1500, strategies=handles)
        report = check_survival_conditions(traj, 0)
        assert report.condition_a and report.condition_b
        assert report.gap_total < 0.1

    def test_constant_divergent_strategy_fails_integral_condition(self):
        traj = _dominance_run(horizon=1500)
        report = check_survival_conditions(traj, 1)
        assert report.condition_a  # interior weights never abandon an asset
        assert not report.condition_b  # but the gap integral keeps growing
        assert report.gap_total > 1.0
        assert report.condition_c

    def test_crossing_increments_bounded_by_step_size(self):
        traj = _dominance_run(horizon=1500)
        report = check_survival_conditions(traj, 1)
        steps = np.diff(traj.gap_integral[:, 1])
        assert report.max_crossing_increment <= steps.max() + EXACT_TOL


    # A recorded gap integral starts finite (at 0), so the first +inf
    # record is always reached by an infinite increment.
    @given(
        st.floats(-3.0, 40.0),
        st.lists(st.floats(-3.0, 40.0) | st.just(math.inf), max_size=40),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_crossing_increment_matches_level_loop(self, first, rest, as_increments):
        values = [first] + rest
        uh = np.abs(np.cumsum(values)) if as_increments else np.array(values)
        report = check_survival_conditions(_with_gap(uh), 0)
        assert report.max_crossing_increment == _level_loop_max_increment(uh)

    def test_cost_does_not_grow_with_the_gap_value(self):
        uh = np.array([0.0, 0.5, 1e9, 1e9 + 3.0])

        def expire(signum, frame):
            raise TimeoutError("check_survival_conditions took over 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            report = check_survival_conditions(_with_gap(uh), 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert report.max_crossing_increment == 1e9 - 0.5
        assert report.condition_c


def _level_loop_max_increment(uh):
    """The largest increment of ``uh`` over a step that crosses an integer level, one level at a time."""
    max_increment = 0.0
    level = 1
    for k in range(1, uh.size):
        while uh[k] >= level:
            inc = float(uh[k] - uh[k - 1])
            max_increment = max(max_increment, inc)
            level += 1
            if not math.isfinite(inc):
                break
        if not math.isfinite(max_increment):
            break
    return max_increment


@functools.lru_cache(maxsize=None)
def _path_of_length(n_records):
    return _dominance_run(horizon=n_records)


def _with_gap(uh):
    """A recorded path whose gap integral is ``uh`` for both investors."""
    traj = _path_of_length(uh.size - 1)
    return dataclasses.replace(traj, gap_integral=np.column_stack((uh, uh)))


class TestSufficientCondition:
    def test_interior_strategies_satisfy_bound(self):
        traj = _dominance_run(horizon=800)
        report = sufficient_condition_check(traj, 1)
        assert report.applicable
        assert report.strategy_floor == 0.5
        assert report.candidate_floor == pytest.approx(0.4, abs=EXACT_TOL)
        assert report.bound_holds

    def test_not_applicable_with_zero_components(self):
        handles = [constant_strategy([1.0, 0.0]), constant_strategy([0.5, 0.5])]
        traj = _dominance_run(horizon=50, strategies=handles)
        report = sufficient_condition_check(traj, 0)
        assert not report.applicable


class TestLedgerAndHelpers:
    def test_wilson_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(80, 100)
        assert lo < 0.8 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_wilson_interval_edge_cases(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.85 and hi == 1.0
