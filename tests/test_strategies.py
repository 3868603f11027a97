"""Strategy-construction tests.

The load-bearing closed form, verified symbolically before coding: on a
two-outcome model where each outcome pays one unit of a single asset and
consumption is a common delta, the post-event total wealth
(1 - delta) W + 1 is the same for both outcomes, so it cancels under
normalization and the survival candidate equals the outcome distribution
(p, 1 - p) regardless of W and delta.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsel import (
    DiscreteIIDModel,
    DomainError,
    KernelSpec,
    PerturbationSchedule,
    RngStream,
    constant_strategy,
    discrete_step,
    evaluate,
    perturbed,
    survival_continuous,
    survival_discrete_exact,
    survival_discrete_mc,
    survival_strategy,
    table_strategy,
)
from marketsel.scenarios import two_point_model

EXACT_TOL = 1e-12


class TestSurvivalDiscreteExact:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("w_prev", [0.1, 1.0, 100.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_two_point_closed_form(self, p, w_prev, delta):
        out = survival_discrete_exact(two_point_model(p, delta), None, w_prev)
        np.testing.assert_allclose(out.weights, [p, 1.0 - p], atol=EXACT_TOL, rtol=0)

    def test_asymmetric_payoffs_hand_value(self):
        # atoms ((2,0) wp 1/2, (0,1) wp 1/2) at W=1: claims (1/3, 1/4) -> (4/7, 3/7)
        model = DiscreteIIDModel(
            atoms=(((2.0, 0.0), 0.0), ((0.0, 1.0), 0.0)), probabilities=(0.5, 0.5)
        )
        out = survival_discrete_exact(model, None, 1.0)
        np.testing.assert_allclose(out.weights, [4 / 7, 3 / 7], atol=EXACT_TOL, rtol=0)

    def test_symmetric_support_gives_uniform(self):
        model = DiscreteIIDModel(
            atoms=(((2.0, 1.0), 0.1), ((1.0, 2.0), 0.1)), probabilities=(0.5, 0.5)
        )
        out = survival_discrete_exact(model, None, 3.0)
        np.testing.assert_allclose(out.weights, [0.5, 0.5], atol=EXACT_TOL, rtol=0)

    @pytest.mark.parametrize("c", [1e-3, 0.7, 1.0, 13.0, 1e4])
    def test_joint_payoff_wealth_scaling_invariance(self, c):
        atoms = (((2.0, 0.5), 0.2), ((0.1, 1.5), 0.2), ((1.0, 1.0), 0.0))
        probs = (0.25, 0.5, 0.25)
        base = DiscreteIIDModel(atoms=atoms, probabilities=probs)
        scaled = DiscreteIIDModel(
            atoms=tuple((tuple(c * np.asarray(a)), d) for a, d in atoms), probabilities=probs
        )
        w = 2.7
        out_base = survival_discrete_exact(base, None, w)
        out_scaled = survival_discrete_exact(scaled, None, c * w)
        np.testing.assert_allclose(out_scaled.weights, out_base.weights, atol=1e-13, rtol=0)

    def test_rejects_nonpositive_wealth(self):
        with pytest.raises(DomainError):
            survival_discrete_exact(two_point_model(0.5, 0.0), None, 0.0)


class TestSurvivalDiscreteMC:
    def test_converges_to_exact(self):
        # with common |payoff| and delta the estimate reduces to empirical
        # outcome frequencies, so its standard error is sqrt(p(1-p)/n)
        model = two_point_model(0.3, 0.0)
        rng = RngStream(seed=11).generator()
        out = survival_discrete_mc(model, None, 1.0, rng, 100_000)
        se = np.sqrt(0.3 * 0.7 / 100_000)
        assert abs(out.weights[0] - 0.3) <= 5 * se

    def test_single_atom_is_exact_at_n_one(self):
        model = DiscreteIIDModel(atoms=(((2.0, 1.0), 0.3),), probabilities=(1.0,))
        rng = RngStream(seed=12).generator()
        out = survival_discrete_mc(model, None, 1.0, rng, 1)
        exact = survival_discrete_exact(model, None, 1.0)
        np.testing.assert_allclose(out.weights, exact.weights, atol=EXACT_TOL, rtol=0)

    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_estimate_is_valid_simplex(self, n):
        model = two_point_model(0.6, 0.3)
        rng = RngStream(seed=13).generator()
        out = survival_discrete_mc(model, None, 5.0, rng, n)
        assert np.all(out.weights >= 0.0)
        assert abs(out.weights.sum() - 1.0) <= EXACT_TOL


class TestSurvivalContinuous:
    def test_pure_jump_hand_value(self):
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.0, 1.0), ((0.0, 1.0), 0.0, 2.0)),
            drift=(0.0, 0.0),
        )
        out = survival_continuous(kernel, 1.0)
        np.testing.assert_allclose(out.weights, [1 / 3, 2 / 3], atol=EXACT_TOL, rtol=0)

    def test_pure_drift_normalization(self):
        kernel = KernelSpec(jump_atoms=(), drift=(3.0, 1.0))
        out = survival_continuous(kernel, 1.0)
        np.testing.assert_allclose(out.weights, [0.75, 0.25], atol=EXACT_TOL, rtol=0)

    def test_empty_environment_gives_uniform(self):
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 0.0))
        out = survival_continuous(kernel, 1.0)
        np.testing.assert_array_equal(out.weights, [0.5, 0.5])

    def test_consumption_rate_plays_no_role(self):
        atoms = (((1.0, 0.5), 0.1, 2.0),)
        lo = KernelSpec(jump_atoms=atoms, drift=(0.3, 0.0), v_rate=0.0, gamma_v=0.2)
        hi = KernelSpec(jump_atoms=atoms, drift=(0.3, 0.0), v_rate=5.0, gamma_v=0.2)
        np.testing.assert_array_equal(
            survival_continuous(lo, 2.0).weights, survival_continuous(hi, 2.0).weights
        )

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_joint_intensity_drift_scaling_invariance(self, c):
        base = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0), ((0.0, 2.0), 0.0, 0.5)),
            drift=(0.2, 0.4),
            gamma_v=0.2,
        )
        scaled = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, c), ((0.0, 2.0), 0.0, 0.5 * c)),
            drift=(0.2 * c, 0.4 * c),
            gamma_v=0.2,
        )
        w = 1.7
        np.testing.assert_allclose(
            survival_continuous(scaled, w).weights,
            survival_continuous(base, w).weights,
            atol=EXACT_TOL,
            rtol=0,
        )


class TestPerturbed:
    def test_zero_schedule_is_base(self):
        base = constant_strategy([0.6, 0.4])
        handle = perturbed(base, PerturbationSchedule("zero"), [0.5, 0.5])
        model = two_point_model(0.6, 0.0)
        out = evaluate(handle, model, 5.0, None, 1.0)
        np.testing.assert_array_equal(out.weights, [0.6, 0.4])

    def test_full_schedule_is_target(self):
        base = constant_strategy([0.6, 0.4])
        handle = perturbed(base, PerturbationSchedule("constant", 1.0), [0.5, 0.5])
        out = evaluate(handle, two_point_model(0.6, 0.0), 5.0, None, 1.0)
        np.testing.assert_array_equal(out.weights, [0.5, 0.5])

    def test_inverse_t_distance_is_square_summable(self):
        # ||base - blend||^2 = eps_t^2 * ||base - target||^2 = 0.02 / t^2
        base = constant_strategy([0.6, 0.4])
        handle = perturbed(base, PerturbationSchedule("inverse_t", 1.0), [0.5, 0.5])
        model = two_point_model(0.6, 0.0)
        for t in (1, 2, 5, 40):
            out = evaluate(handle, model, float(t), None, 1.0)
            dist_sq = float(((out.weights - np.array([0.6, 0.4])) ** 2).sum())
            assert dist_sq == pytest.approx(0.02 / t**2, rel=1e-12)

    def test_inverse_t_clips_to_one_at_small_times(self):
        sched = PerturbationSchedule("inverse_t", 2.0)
        assert sched.epsilon(1.0) == 1.0
        assert sched.epsilon(4.0) == 0.5

    @pytest.mark.parametrize(
        "kind, c", [("inverse_t", 0.0), ("inverse_t", 2.0), ("constant", 0.3), ("zero", 0.0)]
    )
    def test_array_rule_matches_scalar_rule_without_warnings(self, kind, c):
        # the continuous engine's decision grid starts at t = 0
        sched = PerturbationSchedule(kind, c)
        t = np.array([0.0, 0.5, 1.0, 2.0, 2.0000000000000004, 3.0, 40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sched.epsilon(t)
        np.testing.assert_array_equal(got, [sched.epsilon(float(v)) for v in t])

    def test_constant_fraction_above_one_rejected(self):
        with pytest.raises(DomainError):
            PerturbationSchedule("constant", 1.5)


class TestRepresentative:
    """A coalition acts on the investor it excludes as one representative
    investor: it holds the coalition's wealth and plays the wealth-weighted
    average of its members' weights.  The division rule sees the others
    only through what they invest, so merging them changes no one's step."""

    PAY, DELTA = np.array([1.0, 2.0]), 0.1

    def _merged_step(self, y, lam, shared):
        """Investor 0 and the coalition's total after one step, unmerged and
        merged into one investor playing ``shared``."""
        y = np.asarray(y, dtype=float)
        out = discrete_step(y, lam, self.PAY, self.DELTA)
        merged = discrete_step([y[0], y[1:].sum()], [lam[0], shared], self.PAY, self.DELTA)
        return [out[0], out[1:].sum()], merged

    def test_two_investors_reduces_to_opponent(self):
        weights = np.array([[0.6, 0.4], [0.1, 0.9]])
        out, merged = self._merged_step([0.3, 0.7], weights, weights[1])
        np.testing.assert_array_equal(merged, out)

    def test_weighted_average(self):
        # the coalition's average of [1, 0] and [0, 1] at equal wealth
        weights = np.array([[0.6, 0.4], [1.0, 0.0], [0.0, 1.0]])
        out, merged = self._merged_step([0.5, 0.25, 0.25], weights, [0.5, 0.5])
        np.testing.assert_allclose(merged, out, rtol=EXACT_TOL, atol=0)

    def test_identical_coalition_returns_shared_weights(self):
        weights = np.array([[0.6, 0.4], [0.2, 0.8], [0.2, 0.8]])
        out, merged = self._merged_step([0.4, 0.4, 0.2], weights, [0.2, 0.8])
        np.testing.assert_allclose(merged, out, rtol=EXACT_TOL, atol=0)

    @given(
        rel=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100)
    def test_output_is_valid_simplex(self, rel, seed):
        rng = np.random.default_rng(seed)
        rel = np.asarray(rel) / np.sum(rel)
        weights = rng.dirichlet(np.ones(2), size=rel.size)
        shared = rel[1:] @ weights[1:] / rel[1:].sum()
        assert np.all(shared >= 0.0) and abs(shared.sum() - 1.0) <= EXACT_TOL
        out, merged = self._merged_step(rel, weights, shared)
        np.testing.assert_allclose(merged, out, rtol=1e-10, atol=0)
        shares = merged / merged.sum()
        assert np.all(shares > 0.0) and abs(shares.sum() - 1.0) <= EXACT_TOL


class TestHandlesAndTables:
    def test_survival_handle_uses_model(self):
        out = evaluate(survival_strategy(), two_point_model(0.7, 0.2), 1.0, None, 4.0)
        np.testing.assert_allclose(out.weights, [0.7, 0.3], atol=EXACT_TOL, rtol=0)

    def test_table_breakpoints(self):
        handle = table_strategy(default=[(0.0, [0.5, 0.5]), (10.0, [0.8, 0.2])])
        model = two_point_model(0.5, 0.0)
        np.testing.assert_array_equal(evaluate(handle, model, 3.0, None, 1.0).weights, [0.5, 0.5])
        np.testing.assert_array_equal(evaluate(handle, model, 10.0, None, 1.0).weights, [0.8, 0.2])

    def test_table_regime_override(self):
        handle = table_strategy(
            default=[(0.0, [0.5, 0.5])], per_regime={1: [(0.0, [0.9, 0.1])]}
        )
        model = two_point_model(0.5, 0.0)
        np.testing.assert_array_equal(evaluate(handle, model, 1.0, 0, 1.0).weights, [0.5, 0.5])
        np.testing.assert_array_equal(evaluate(handle, model, 1.0, 1, 1.0).weights, [0.9, 0.1])

    def test_non_increasing_breakpoints_rejected(self):
        with pytest.raises(DomainError):
            table_strategy(default=[(5.0, [0.5, 0.5]), (5.0, [0.6, 0.4])])

    def test_mc_handle_requires_rng(self):
        from marketsel import survival_mc_strategy

        with pytest.raises(DomainError):
            evaluate(survival_mc_strategy(10), two_point_model(0.5, 0.0), 1.0, None, 1.0)
