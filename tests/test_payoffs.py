"""Payoff-model tests: sampling laws, exact support enumeration, jump
timing, claim rates and stream reproducibility.

Monte Carlo tolerances follow the usual 1/sqrt(n) scaling: frequency
checks at n = 1e5 use an absolute band of 0.01, several standard errors
wide for the probabilities involved.
"""

import math

import numpy as np
import pytest
from scipy import stats

from marketsel import (
    DiscreteIIDModel,
    DomainError,
    KernelSpec,
    MarkovModulatedModel,
    RngStream,
    discrete_claim_vector,
    enumerate_support,
    evaluate,
    expected_claim_rates,
    next_jump,
    submartingale_check,
    survival_strategy,
)
from marketsel.payoffs import _sample_arrays

N_DRAWS = 100_000
FREQ_TOL = 0.01
CHI2_ALPHA = 1e-3


def _two_asset_iid(p=0.3, delta=0.0):
    return DiscreteIIDModel(
        atoms=(((1.0, 0.0), delta), ((0.0, 1.0), delta)),
        probabilities=(p, 1.0 - p),
    )


class TestRngStream:
    def test_same_key_reproduces_bit_exactly(self):
        a = RngStream(seed=42, stream=7).generator().random(1000)
        b = RngStream(seed=42, stream=7).generator().random(1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(seed=42, stream=0).generator().random(100)
        b = RngStream(seed=42, stream=1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            RngStream(seed=-1)


class TestModelValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DomainError):
            DiscreteIIDModel(atoms=(((1.0, 0.0), 0.0),), probabilities=(0.9,))

    def test_delta_below_one(self):
        with pytest.raises(DomainError):
            DiscreteIIDModel(atoms=(((1.0, 0.0), 1.0),), probabilities=(1.0,))

    def test_negative_payoff_rejected(self):
        with pytest.raises(DomainError):
            DiscreteIIDModel(atoms=(((-1.0, 0.0), 0.0),), probabilities=(1.0,))

    def test_markov_rows_must_be_stochastic(self):
        m = _two_asset_iid()
        with pytest.raises(DomainError):
            MarkovModulatedModel(
                states=("a", "b"),
                transition=np.array([[0.9, 0.2], [0.5, 0.5]]),
                regimes=(m, m),
            )

    def test_ragged_payoff_vectors_rejected(self):
        # the lengths are checked before the payoffs are stacked
        with pytest.raises(DomainError, match="same length"):
            DiscreteIIDModel(atoms=(((1.0, 0.0), 0.0), ((0.0, 1.0, 0.0), 0.0)), probabilities=(0.5, 0.5))

    @pytest.mark.parametrize("transition", [[[0.5, 0.5], [1.0]], [[0.5, 0.5]], [1.0, 0.0]])
    def test_markov_transition_shape_checked_first(self, transition):
        m = _two_asset_iid()
        with pytest.raises(DomainError, match="shape"):
            MarkovModulatedModel(states=("a", "b"), transition=transition, regimes=(m, m))

    def test_kernel_zero_jump_rejected(self):
        with pytest.raises(DomainError):
            KernelSpec(jump_atoms=(((0.0, 0.0), 0.0, 1.0),), drift=(0.0, 0.0))

    def test_kernel_v_bounded_by_gamma(self):
        with pytest.raises(DomainError):
            KernelSpec(jump_atoms=(((1.0, 0.0), 0.5, 1.0),), drift=(0.0, 0.0), gamma_v=0.2)

    def test_kernel_gamma_below_one(self):
        with pytest.raises(DomainError):
            KernelSpec(jump_atoms=(), drift=(1.0, 1.0), gamma_v=1.0)

    def test_kernel_gamma_defaults_to_the_largest_jump_v(self):
        # an omitted gamma_v once meant 0, which rejected every jump with v > 0
        atoms = (((1.0, 0.0), 0.1, 1.0),)
        kernel = KernelSpec(jump_atoms=atoms, drift=(0.0, 0.0))
        explicit = KernelSpec(jump_atoms=atoms, drift=(0.0, 0.0), gamma_v=0.1)
        assert kernel.gamma_v == 0.1
        np.testing.assert_array_equal(expected_claim_rates(kernel, 2.0), expected_claim_rates(explicit, 2.0))
        # a jump's own v of 1 is named before any gamma_v is derived from it
        with pytest.raises(DomainError, match=r"^jump_atoms\[0\]: v must lie in \[0, 1\)$"):
            KernelSpec(jump_atoms=(((1.0, 0.0), 1.0, 1.0),), drift=(0.0, 0.0))

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -1.0])
    def test_kernel_intensity_must_be_finite_and_non_negative(self, rho):
        # a NaN intensity once gave a NaN first jump time, and an infinite
        # one a jump schedule of zero waits that never reached the horizon
        atoms = (((1.0, 0.0), 0.1, 1.0), ((0.0, 1.0), 0.1, rho))
        with pytest.raises(DomainError, match=r"^jump_atoms\[1\]: intensity must be finite and >= 0$"):
            KernelSpec(jump_atoms=atoms, drift=(0.0, 0.0))


def _draw_block(model, regime, rng, steps):
    """``steps`` steps from the engine's block sampler, with their uniforms from ``rng``."""
    columns = 2 if isinstance(model, MarkovModulatedModel) else 1
    return _sample_arrays(model, regime, rng.random((steps, columns)))


class TestSampleDiscrete:
    def test_law_of_large_numbers(self):
        model = _two_asset_iid(p=0.3)
        dx, _, _, _, _ = _draw_block(model, None, RngStream(seed=1).generator(), N_DRAWS)
        assert abs(np.mean(dx[:, 0] > 0) - 0.3) < FREQ_TOL

    def test_single_atom_always_returned(self):
        model = DiscreteIIDModel(atoms=(((2.0, 1.0), 0.25),), probabilities=(1.0,))
        dx, dv, abs_dx, _, _ = _draw_block(model, None, RngStream(seed=2).generator(), 50)
        np.testing.assert_array_equal(dx, np.tile([2.0, 1.0], (50, 1)))
        assert np.all(dv == 0.25) and np.all(abs_dx == 3.0)

    def test_identity_transition_freezes_regime(self):
        model = MarkovModulatedModel(
            states=("calm", "stress"),
            transition=np.eye(2),
            regimes=(_two_asset_iid(0.3), _two_asset_iid(0.9)),
            initial_state=1,
        )
        _, _, _, regimes, last = _draw_block(model, 1, RngStream(seed=3).generator(), 200)
        assert np.all(regimes == 1) and last == 1

    def test_markov_transition_and_emission_frequencies(self):
        model = MarkovModulatedModel(
            states=("calm", "stress"),
            transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
            regimes=(_two_asset_iid(0.3), _two_asset_iid(0.9)),
        )
        dx, _, _, regimes, last = _draw_block(model, 0, RngStream(seed=7).generator(), N_DRAWS)
        assert regimes[0] == 0
        path = np.append(regimes, last)
        for r, row in enumerate(model.transition):
            moves = path[1:][path[:-1] == r]
            assert abs(np.mean(moves == 1) - row[1]) < FREQ_TOL
        for r, p in enumerate((0.3, 0.9)):
            assert abs(np.mean(dx[regimes == r, 0] > 0) - p) < FREQ_TOL

    def test_sampled_atoms_lie_in_support(self):
        model = DiscreteIIDModel(
            atoms=(((2.0, 0.0), 0.1), ((0.0, 1.0), 0.2), ((1.0, 1.0), 0.0)),
            probabilities=(0.2, 0.5, 0.3),
        )
        support = enumerate_support(model)
        keys = {(tuple(a), d) for _, a, d in support}
        dx, dv, _, _, _ = _draw_block(model, None, RngStream(seed=4).generator(), 500)
        for row, delta in zip(dx.tolist(), dv.tolist()):
            assert (tuple(row), delta) in keys


class TestEnumerateSupport:
    def test_iid_returns_own_atoms(self):
        model = _two_asset_iid(p=0.3, delta=0.1)
        support = enumerate_support(model)
        assert len(support) == 2
        probs = [p for p, _, _ in support]
        assert probs == [0.3, 0.7]

    def test_markov_returns_current_regime_emissions(self):
        calm, stress = _two_asset_iid(0.3), _two_asset_iid(0.9)
        model = MarkovModulatedModel(
            states=("calm", "stress"),
            transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
            regimes=(calm, stress),
        )
        probs = [p for p, _, _ in enumerate_support(model, 1)]
        assert probs == [0.9, pytest.approx(0.1)]

    @pytest.mark.parametrize("regime", [None, -1, 2])
    def test_markov_regime_must_exist(self, regime):
        # every caller resolves the emitting regime through one lookup, and
        # -1 must not index from the end (it would give regime 1)
        model = MarkovModulatedModel(
            states=("calm", "stress"),
            transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
            regimes=(_two_asset_iid(0.3), _two_asset_iid(0.9)),
        )
        lam, y = np.full((2, 2), 0.5), np.ones(2)
        calls = [
            lambda: enumerate_support(model, regime),
            lambda: discrete_claim_vector(model, regime, 1.0),
            lambda: evaluate(survival_strategy(), model, 1.0, regime, 1.0),
            lambda: submartingale_check(model, lam, y, tracked=0, regime=regime),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"regime must lie in range\(2\)"):
                call()

    def test_probabilities_sum_to_one(self):
        model = DiscreteIIDModel(
            atoms=(((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((1.0, 1.0), 0.3)),
            probabilities=(1 / 3, 1 / 3, 1 / 3),
        )
        total = sum(p for p, _, _ in enumerate_support(model))
        assert abs(total - 1.0) < 1e-12

    def test_kernel_has_no_finite_support(self):
        kernel = KernelSpec(jump_atoms=(((1.0, 0.0), 0.0, 1.0),), drift=(0.0, 0.0))
        with pytest.raises(DomainError):
            enumerate_support(kernel)

    def test_sampling_matches_enumeration_chi_square(self):
        model = DiscreteIIDModel(
            atoms=(((2.0, 0.0), 0.1), ((0.0, 1.0), 0.2), ((1.0, 1.0), 0.0)),
            probabilities=(0.2, 0.5, 0.3),
        )
        support = enumerate_support(model)
        keys = [(tuple(a), d) for _, a, d in support]
        expected = np.array([p for p, _, _ in support]) * N_DRAWS
        dx, dv, _, _, _ = _draw_block(model, None, RngStream(seed=5).generator(), N_DRAWS)
        counts = dict.fromkeys(keys, 0)
        for row, delta in zip(dx.tolist(), dv.tolist()):
            counts[(tuple(row), delta)] += 1
        observed = np.array([counts[k] for k in keys])
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > CHI2_ALPHA


class TestNextJump:
    def test_zero_intensity_returns_none(self):
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0))
        rng = RngStream(seed=6).generator()
        assert next_jump(kernel, rng, 0.0) is None

    def test_atom_frequencies(self):
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.0, 1.0), ((0.0, 1.0), 0.0, 2.0)),
            drift=(0.0, 0.0),
        )
        rng = RngStream(seed=7).generator()
        second = 0
        for _ in range(N_DRAWS):
            _, (x, _) = next_jump(kernel, rng, 0.0)
            second += x[1] > 0
        assert abs(second / N_DRAWS - 2 / 3) < FREQ_TOL

    def test_mean_interarrival_time(self):
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.0, 1.0), ((0.0, 1.0), 0.0, 2.0)),
            drift=(0.0, 0.0),
        )
        rng = RngStream(seed=8).generator()
        waits = np.array([next_jump(kernel, rng, 0.0)[0] for _ in range(N_DRAWS)])
        assert abs(waits.mean() - 1 / 3) < FREQ_TOL

    def test_jump_times_advance_from_t_now(self):
        kernel = KernelSpec(jump_atoms=(((1.0, 0.0), 0.0, 5.0),), drift=(0.0, 0.0))
        rng = RngStream(seed=9).generator()
        t, _ = next_jump(kernel, rng, 10.0)
        assert t > 10.0


class TestExpectedClaimRates:
    def test_hand_value(self):
        # two unit-payoff atoms at W = 1: each claim discounted by 1 + |x| / W = 2
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.0, 1.0), ((0.0, 1.0), 0.0, 2.0)),
            drift=(0.0, 0.0),
        )
        np.testing.assert_allclose(
            expected_claim_rates(kernel, 1.0), [0.5, 1.0], atol=1e-15, rtol=0
        )

    def test_empty_kernel_gives_zero(self):
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0))
        np.testing.assert_array_equal(expected_claim_rates(kernel, 1.0), [0.0, 0.0])

    @pytest.mark.parametrize("c", [0.5, 2.0, 100.0])
    def test_intensity_scaling_is_linear(self, c):
        mk = lambda scale: KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0 * scale), ((0.0, 1.0), 0.0, 2.0 * scale)),
            drift=(0.0, 0.0),
            gamma_v=0.2,
        )
        base = expected_claim_rates(mk(1.0), 3.0)
        scaled = expected_claim_rates(mk(c), 3.0)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)

    def test_rates_finite_for_random_kernels(self):
        # the division factor 1 - v + |x|/W stays positive when v <= gamma_v < 1
        rng = np.random.default_rng(10)
        for _ in range(200):
            n_atoms = rng.integers(1, 5)
            gamma = rng.uniform(0.0, 0.99)
            atoms = tuple(
                (tuple(rng.uniform(0.0, 5.0, size=2) + 1e-3), rng.uniform(0.0, gamma), rng.uniform(0.0, 3.0))
                for _ in range(n_atoms)
            )
            kernel = KernelSpec(jump_atoms=atoms, drift=(0.0, 0.0), gamma_v=gamma)
            rates = expected_claim_rates(kernel, rng.uniform(1e-6, 1e6))
            assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)

    def test_rejects_nonpositive_wealth(self):
        kernel = KernelSpec(jump_atoms=(((1.0, 0.0), 0.0, 1.0),), drift=(0.0, 0.0))
        with pytest.raises(DomainError):
            expected_claim_rates(kernel, 0.0)
