"""Strategy-construction tests.

The load-bearing closed form, verified symbolically before coding: on a
two-outcome model where each outcome pays one unit of a single asset and
consumption is a common delta, the post-event total wealth
(1 - delta) W + 1 is the same for both outcomes, so it cancels under
normalization and the survival candidate equals the outcome distribution
(p, 1 - p) regardless of W and delta.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsel import (
    DiscreteIIDModel,
    DomainError,
    KernelSpec,
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
    run_continuous,
    survival_mc_strategy,
    survival_strategy,
    table_strategy,
)
from marketsel.cli import trajectory_csv
from marketsel.core import simplex_rows
from marketsel.scenarios import two_point_model
from marketsel.strategies import Policy, block_weights, mc_samples, regime_groups
from reference_policy import reference_handle_block, reference_mc_claim

EXACT_TOL = 1e-12


def candidate(env, w):
    """The survival handle's weights on ``env`` at total wealth ``w``."""
    return evaluate(survival_strategy(), env, 1.0, None, w)


def mc_estimate(model, w, rng, n_samples):
    """A Monte Carlo handle's weights on ``model`` at total wealth ``w``."""
    return evaluate(survival_mc_strategy(n_samples), model, 1.0, None, w, rng)


class TestSurvivalDiscreteExact:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("w_prev", [0.1, 1.0, 100.0])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_two_point_closed_form(self, p, w_prev, delta):
        out = candidate(two_point_model(p, delta), w_prev)
        np.testing.assert_allclose(out, [p, 1.0 - p], atol=EXACT_TOL, rtol=0)

    def test_asymmetric_payoffs_hand_value(self):
        # atoms ((2,0) wp 1/2, (0,1) wp 1/2) at W=1: claims (1/3, 1/4) -> (4/7, 3/7)
        model = DiscreteIIDModel(
            atoms=(((2.0, 0.0), 0.0), ((0.0, 1.0), 0.0)), probabilities=(0.5, 0.5)
        )
        out = candidate(model, 1.0)
        np.testing.assert_allclose(out, [4 / 7, 3 / 7], atol=EXACT_TOL, rtol=0)

    def test_symmetric_support_gives_uniform(self):
        model = DiscreteIIDModel(
            atoms=(((2.0, 1.0), 0.1), ((1.0, 2.0), 0.1)), probabilities=(0.5, 0.5)
        )
        out = candidate(model, 3.0)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=EXACT_TOL, rtol=0)

    @pytest.mark.parametrize("c", [1e-3, 0.7, 1.0, 13.0, 1e4])
    def test_joint_payoff_wealth_scaling_invariance(self, c):
        atoms = (((2.0, 0.5), 0.2), ((0.1, 1.5), 0.2), ((1.0, 1.0), 0.0))
        probs = (0.25, 0.5, 0.25)
        base = DiscreteIIDModel(atoms=atoms, probabilities=probs)
        scaled = DiscreteIIDModel(
            atoms=tuple((tuple(c * np.asarray(a)), d) for a, d in atoms), probabilities=probs
        )
        w = 2.7
        out_base = candidate(base, w)
        out_scaled = candidate(scaled, c * w)
        np.testing.assert_allclose(out_scaled, out_base, atol=1e-13, rtol=0)

    def test_rejects_nonpositive_wealth(self):
        with pytest.raises(DomainError):
            candidate(two_point_model(0.5, 0.0), 0.0)


class TestSurvivalDiscreteMC:
    def test_converges_to_exact(self):
        # with common |payoff| and delta the estimate reduces to empirical
        # outcome frequencies, so its standard error is sqrt(p(1-p)/n)
        model = two_point_model(0.3, 0.0)
        rng = RngStream(seed=11).generator()
        out = mc_estimate(model, 1.0, rng, 100_000)
        se = np.sqrt(0.3 * 0.7 / 100_000)
        assert abs(out[0] - 0.3) <= 5 * se

    def test_single_atom_is_exact_at_n_one(self):
        model = DiscreteIIDModel(atoms=(((2.0, 1.0), 0.3),), probabilities=(1.0,))
        rng = RngStream(seed=12).generator()
        out = mc_estimate(model, 1.0, rng, 1)
        exact = candidate(model, 1.0)
        np.testing.assert_allclose(out, exact, atol=EXACT_TOL, rtol=0)

    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_estimate_is_valid_simplex(self, n):
        model = two_point_model(0.6, 0.3)
        rng = RngStream(seed=13).generator()
        out = mc_estimate(model, 5.0, rng, n)
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= EXACT_TOL


class TestSurvivalContinuous:
    def test_pure_jump_hand_value(self):
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.0, 1.0), ((0.0, 1.0), 0.0, 2.0)),
            drift=(0.0, 0.0),
        )
        out = candidate(kernel, 1.0)
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=EXACT_TOL, rtol=0)

    def test_pure_drift_normalization(self):
        kernel = KernelSpec(jump_atoms=(), drift=(3.0, 1.0))
        out = candidate(kernel, 1.0)
        np.testing.assert_allclose(out, [0.75, 0.25], atol=EXACT_TOL, rtol=0)

    def test_empty_environment_gives_uniform(self):
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 0.0))
        out = candidate(kernel, 1.0)
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_consumption_rate_plays_no_role(self):
        atoms = (((1.0, 0.5), 0.1, 2.0),)
        lo = KernelSpec(jump_atoms=atoms, drift=(0.3, 0.0), v_rate=0.0, gamma_v=0.2)
        hi = KernelSpec(jump_atoms=atoms, drift=(0.3, 0.0), v_rate=5.0, gamma_v=0.2)
        np.testing.assert_array_equal(
            candidate(lo, 2.0), candidate(hi, 2.0)
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
            candidate(scaled, w),
            candidate(base, w),
            atol=EXACT_TOL,
            rtol=0,
        )


class TestPerturbed:
    def test_zero_schedule_is_base(self):
        base = constant_strategy([0.6, 0.4])
        handle = perturbed(base, PerturbationSchedule("zero"), [0.5, 0.5])
        model = two_point_model(0.6, 0.0)
        out = evaluate(handle, model, 5.0, None, 1.0)
        np.testing.assert_array_equal(out, [0.6, 0.4])

    def test_full_schedule_is_target(self):
        base = constant_strategy([0.6, 0.4])
        handle = perturbed(base, PerturbationSchedule("constant", 1.0), [0.5, 0.5])
        out = evaluate(handle, two_point_model(0.6, 0.0), 5.0, None, 1.0)
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_inverse_t_distance_is_square_summable(self):
        # ||base - blend||^2 = eps_t^2 * ||base - target||^2 = 0.02 / t^2
        base = constant_strategy([0.6, 0.4])
        handle = perturbed(base, PerturbationSchedule("inverse_t", 1.0), [0.5, 0.5])
        model = two_point_model(0.6, 0.0)
        for t in (1, 2, 5, 40):
            out = evaluate(handle, model, float(t), None, 1.0)
            dist_sq = float(((out - np.array([0.6, 0.4])) ** 2).sum())
            assert dist_sq == pytest.approx(0.02 / t**2, rel=1e-12)

    def test_inverse_t_clips_to_one_at_small_times(self):
        sched = PerturbationSchedule("inverse_t", 2.0)
        assert sched.epsilon(1.0) == 1.0
        assert sched.epsilon(4.0) == 0.5

    def test_inverse_t_at_coefficient_zero_never_blends(self):
        # the continuous engine decides at t = 0, where t <= c held at c = 0
        assert PerturbationSchedule("inverse_t", 0.0).epsilon(0.0) == 0.0
        kernel = KernelSpec(jump_atoms=(((1.0, 0.0), 0.1, 1.0),), drift=(0.4, 0.2), v_rate=0.3, gamma_v=0.1)
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)

        def csv(schedule):
            handles = [survival_strategy(), perturbed(survival_strategy(), schedule, [0.9, 0.1])]
            return trajectory_csv(run_continuous(ProfileRun(spec, handles, 2.0, RngStream(0))))

        assert csv(PerturbationSchedule("inverse_t", 0.0)) == csv(PerturbationSchedule("zero"))

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
        np.testing.assert_allclose(out, [0.7, 0.3], atol=EXACT_TOL, rtol=0)

    def test_table_breakpoints(self):
        handle = table_strategy(default=[(0.0, [0.5, 0.5]), (10.0, [0.8, 0.2])])
        model = two_point_model(0.5, 0.0)
        np.testing.assert_array_equal(evaluate(handle, model, 3.0, None, 1.0), [0.5, 0.5])
        np.testing.assert_array_equal(evaluate(handle, model, 10.0, None, 1.0), [0.8, 0.2])

    def test_table_regime_override(self):
        handle = table_strategy(
            default=[(0.0, [0.5, 0.5])], per_regime={1: [(0.0, [0.9, 0.1])]}
        )
        model = MarkovModulatedModel(
            states=("calm", "stress"),
            transition=[[0.9, 0.1], [0.2, 0.8]],
            regimes=(two_point_model(0.5, 0.0),) * 2,
        )
        np.testing.assert_array_equal(evaluate(handle, model, 1.0, 0, 1.0), [0.5, 0.5])
        np.testing.assert_array_equal(evaluate(handle, model, 1.0, 1, 1.0), [0.9, 0.1])

    @pytest.mark.parametrize(
        "handle, where",
        [
            (constant_strategy([0.2, 0.3, 0.5]), "strategy.weights"),
            (table_strategy([(0.0, [0.5, 0.5])], {1: [(0.0, [0.9, 0.1])]}), "strategy.regimes.1"),
        ],
        ids=["wrong-length", "regimes-on-iid"],
    )
    def test_handle_that_does_not_fit_the_model_is_rejected(self, handle, where):
        with pytest.raises(DomainError, match=rf"^{re.escape(where)}: "):
            evaluate(handle, two_point_model(0.5, 0.5), 1.0, None, 1.0)

    def test_non_increasing_breakpoints_rejected(self):
        with pytest.raises(DomainError):
            table_strategy(default=[(5.0, [0.5, 0.5]), (5.0, [0.6, 0.4])])

    @pytest.mark.parametrize("default", [[(0.0, [1.0, 0.0]), (math.nan, [0.0, 1.0])],
                                         [(math.nan, [1.0, 0.0]), (1.0, [0.0, 1.0])]],
                             ids=["second", "first"])
    def test_nan_breakpoint_rejected(self, default):
        # a NaN compares false both ways, so it once passed the increasing check
        with pytest.raises(DomainError, match="strictly increasing"):
            table_strategy(default)

    def test_infinite_breakpoint_rejected(self):
        # no time reaches +inf, so the entry from there could never be in force
        with pytest.raises(DomainError, match="finite"):
            table_strategy([(0.0, [1.0, 0.0]), (math.inf, [0.0, 1.0])])

    @pytest.mark.parametrize("t_from", [0.0, 1.0], ids=["same-breakpoints", "other-breakpoints"])
    def test_two_keys_naming_one_regime_are_rejected(self, t_from):
        # 1 and "01" both name regime 1, and only one table per regime can
        # ever be looked up, whatever the two tables' breakpoints
        with pytest.raises(DomainError, match="regime 1 is given twice"):
            table_strategy([(0.0, [0.5, 0.5])], {1: [(0.0, [0.9, 0.1])], "01": [(t_from, [0.2, 0.8])]})

    def test_mc_handle_requires_rng(self):
        from marketsel import survival_mc_strategy

        with pytest.raises(DomainError):
            evaluate(survival_mc_strategy(10), two_point_model(0.5, 0.0), 1.0, None, 1.0)


def reference_block_weights(handles, model, t, regimes, w, candidate, uniforms):
    """``block_weights`` one handle at a time, each reading its own uniform columns."""
    out = np.empty((len(t), len(handles), candidate.shape[1]))
    offset = 0
    for m, handle in enumerate(handles):
        n = mc_samples(handle)
        block = uniforms[:, offset : offset + n]
        out[:, m] = reference_handle_block(handle, model, t, regimes, w, candidate, block)
        offset += n
    return out


def _draw_simplex(draw, n):
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if raw.sum() <= 0.0:
        raw[0] = 1.0
    return make_simplex(raw)


def _draw_model(draw, n):
    def iid():
        k = draw(st.integers(1, 5))
        atoms = tuple(
            (tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))),
             draw(st.floats(0.0, 0.95)))
            for _ in range(k)
        )
        probs = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        return DiscreteIIDModel(atoms=atoms, probabilities=tuple(probs / probs.sum()))

    n_regimes = draw(st.integers(0, 3))
    if n_regimes == 0:
        return iid(), 1
    return MarkovModulatedModel(
        states=tuple(f"s{r}" for r in range(n_regimes)),
        transition=np.full((n_regimes, n_regimes), 1.0 / n_regimes),
        regimes=tuple(iid() for _ in range(n_regimes)),
    ), n_regimes


def _draw_handle(draw, n, n_regimes, kinds, depth=0):
    kind = draw(st.sampled_from(kinds + (["perturbed"] if depth < 2 else [])))
    if kind == "constant":
        return constant_strategy(_draw_simplex(draw, n))
    if kind == "survival_exact":
        return survival_strategy()
    if kind == "survival_mc":
        return survival_mc_strategy(draw(st.sampled_from([1, 2, 7, 64])))
    if kind == "perturbed":
        base = _draw_handle(draw, n, n_regimes, kinds, depth + 1)
        sched = draw(st.sampled_from([("zero", 0.0), ("constant", 0.3), ("inverse_t", 2.5)]))
        return perturbed(base, PerturbationSchedule(*sched), _draw_simplex(draw, n))

    def entries():
        starts = sorted(set(draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))))
        return [(float(t_from), _draw_simplex(draw, n)) for t_from in starts]

    per_regime = {r: entries() for r in range(n_regimes) if draw(st.booleans())}
    return table_strategy(entries(), per_regime or None)


@st.composite
def discrete_blocks(draw):
    n = draw(st.integers(1, 4))
    model, n_regimes = _draw_model(draw, n)
    kinds = ["constant", "survival_exact", "survival_mc", "table"]
    handles = [_draw_handle(draw, n, n_regimes, kinds) for _ in range(draw(st.integers(1, 7)))]
    b = draw(st.integers(1, 9))
    regimes = None
    if isinstance(model, MarkovModulatedModel):
        # at least one regime emits nowhere in the block when there are several
        emitting = draw(st.lists(st.integers(0, n_regimes - 1), min_size=1, max_size=max(1, n_regimes - 1)))
        regimes = np.array(draw(st.lists(st.sampled_from(emitting), min_size=b, max_size=b)))
    seed = draw(st.integers(0, 2**32 - 1))
    return model, handles, regimes, b, n, seed


class TestBlockWeights:
    """The batched policy stage against the per-handle reference, bit for bit."""

    @staticmethod
    def _inputs(model, handles, b, n, seed):
        gen = np.random.default_rng(seed)
        t = gen.integers(1, 15, b).astype(float)
        w = gen.uniform(0.1, 10.0, b)
        if isinstance(model, KernelSpec):
            cand = simplex_rows(gen.uniform(0.0, 1.0, (b, n)))
        else:
            regime = 0 if isinstance(model, MarkovModulatedModel) else None
            cand = simplex_rows(discrete_claim_vector(model, regime, w))
        uniforms = gen.random((b, sum(mc_samples(h) for h in handles)))
        return t, w, cand, uniforms

    @given(discrete_blocks())
    @settings(max_examples=150, deadline=None)
    def test_discrete_block_matches_per_handle_reference(self, case):
        # a fold of S samples over H handles runs in chunks of max(1, 2S // H - 3)
        # samples: S = 2 on one handle, or S = 7 on four, folds one sample at a time
        model, handles, regimes, b, n, seed = case
        t, w, cand, uniforms = self._inputs(model, handles, b, n, seed)
        out = np.full((b, len(handles), n), np.nan)
        block_weights(Policy(handles), model, t, regime_groups(regimes), w, cand, uniforms, out)
        ref = reference_block_weights(handles, model, t, regimes, w, cand, uniforms)
        assert np.array_equal(out, ref)

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_continuous_call_without_uniforms(self, n, m, b, seed, data):
        kernel = KernelSpec(jump_atoms=(), drift=tuple(range(1, n + 1)))
        kinds = ["constant", "survival_exact", "table"]
        handles = [_draw_handle(data.draw, n, 1, kinds) for _ in range(m)]
        t, w, cand, uniforms = self._inputs(kernel, handles, b, n, seed)
        t = t / 3.0  # the substep grid is not integer
        assert uniforms.shape == (b, 0)
        out = np.full((b, m, n), np.nan)
        block_weights(Policy(handles), kernel, t, regime_groups(None), w, cand, uniforms, out)
        ref = reference_block_weights(handles, kernel, t, None, w, cand, uniforms)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n_samples", [1, 7, 64])
    def test_scalar_estimate_matches_reference(self, n_samples):
        model = DiscreteIIDModel(
            atoms=(((2.0, 0.5, 0.0), 0.2), ((0.1, 1.5, 0.7), 0.9), ((1.0, 1.0, 1.0), 0.0)),
            probabilities=(0.25, 0.5, 0.25),
        )
        got = mc_estimate(model, 1.7, RngStream(5).generator(), n_samples)
        u = RngStream(5).generator().random(n_samples)
        ref = make_simplex(reference_mc_claim(model, None, np.float64(1.7), u))
        assert np.array_equal(got, ref)

    def test_mc_leaf_on_a_kernel_is_rejected(self):
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0))
        handles = [survival_mc_strategy(3)]
        with pytest.raises(DomainError):
            block_weights(Policy(handles), kernel, np.ones(2), regime_groups(None),
                          np.ones(2), np.full((2, 2), 0.5), np.zeros((2, 3)), np.empty((2, 1, 2)))
