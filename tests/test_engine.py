"""Engine tests: the one-step division rule, both run loops against
independent oracles, and the stochastic-exponent reconstruction of W.

The discrete-run oracle is a self-contained recursion written directly
from the division rule, independent of the engine's internals; the
continuous-run oracles are closed forms (exponential decay, linear total
growth) and the jump-replay equivalence.
"""

import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from marketsel import (
    DiscreteIIDModel,
    DomainError,
    KernelSpec,
    MarketSpec,
    MarkovModulatedModel,
    ProfileRun,
    RngStream,
    constant_strategy,
    discrete_step,
    identity_report,
    run,
    run_continuous,
    run_discrete,
    survival_strategy,
)
from marketsel import PerturbationSchedule, engine, perturbed, survival_mc_strategy, table_strategy
from marketsel.diagnostics import run_summary
from marketsel.scenarios import two_point_model
from marketsel.strategies import mc_samples
from recording import recorded

EXACT_TOL = 1e-12
PATH_RTOL = 1e-9


def _oracle_recursion(y0, lam, events):
    """Independent wealth recursion: shares computed entry by entry."""
    y = [float(v) for v in y0]
    m, n = len(y), len(lam[0])
    out = [list(y)]
    for payoff, delta in events:
        invested = [sum(lam[k][j] * y[k] for k in range(m)) for j in range(n)]
        y_next = []
        for i in range(m):
            gain = 0.0
            for j in range(n):
                if invested[j] > 0:
                    gain += lam[i][j] * y[i] / invested[j] * payoff[j]
                else:
                    gain += payoff[j] / m
            y_next.append((1.0 - delta) * y[i] + gain)
        y = y_next
        out.append(list(y))
    return np.array(out)


class TestDiscreteStep:
    def test_disjoint_claims_hand_value(self):
        out = discrete_step([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 4.0], 0.5)
        np.testing.assert_allclose(out, [2.5, 4.5], atol=EXACT_TOL, rtol=0)

    def test_zero_payoff_full_retention(self):
        out = discrete_step([1.3, 0.7], [[0.5, 0.5], [0.2, 0.8]], [0.0, 0.0], 0.0)
        np.testing.assert_array_equal(out, [1.3, 0.7])

    def test_unclaimed_asset_splits_equally(self):
        out = discrete_step([1.0, 3.0], [[0.0, 1.0], [0.0, 1.0]], [1.0, 0.0], 0.0)
        np.testing.assert_allclose(out, [1.5, 3.5], atol=EXACT_TOL, rtol=0)

    def test_subnormal_weight_still_claims_the_payoff(self):
        # 0.25 * 5e-324 underflows to 0, yet investor 2 alone holds asset 2,
        # so it takes that asset's whole payoff instead of half of it
        out = discrete_step([0.25, 0.25], [[1.0, 0.0], [1.0, 5e-324]], [0.0, 1.0], 0.0)
        np.testing.assert_array_equal(out, [0.25, 1.25])

    def test_tiny_invested_wealth_keeps_its_whole_share(self):
        # investor 2 alone holds asset 2 with 1e-310 invested: its share is
        # exactly 1, and pay / invested (1e310) must not overflow on the way
        out = discrete_step([1.0, 1e-310], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], 0.0)
        np.testing.assert_array_equal(out, [2.0, 1.0])

    def test_zero_wealth_holder_splits_its_asset_equally(self):
        # investor 2's wealth is exactly 0 and it alone holds asset 2, so no
        # wealth is invested there and that payoff splits 1/M
        out = discrete_step([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], 0.99)
        np.testing.assert_array_equal(out, [(1.0 - 0.99) + 1.5, 0.5])

    def test_output_strictly_positive(self):
        out = discrete_step([1.0, 1e-9], [[1.0, 0.0], [1.0, 0.0]], [0.0, 5.0], 0.99)
        assert np.all(out > 0.0)

    def test_rejects_negative_weights(self):
        # a negative weight once gave investor 1 a negative wealth, -0.5
        with pytest.raises(DomainError, match="weights must be non-negative"):
            discrete_step([1.0, 1.0], [[-0.5, 1.5], [1.0, 0.0]], [1.0, 0.0], 0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            discrete_step([1.0, np.nan], [[0.5, 0.5]] * 2, [1.0, 0.0], 0.0)
        with pytest.raises(DomainError):
            discrete_step([0.0, 0.0], [[0.5, 0.5]] * 2, [1.0, 0.0], 0.0)
        with pytest.raises(DomainError):
            discrete_step([1.0, -1e-300], [[0.5, 0.5]] * 2, [1.0, 0.0], 0.0)
        with pytest.raises(DomainError):
            discrete_step([1.0, 1.0], [[0.5, 0.5]] * 2, [1.0, 0.0], 1.0)
        with pytest.raises(DomainError):
            discrete_step([1.0, 1.0], [[0.5, 0.5]] * 2, [-1.0, 0.0], 0.0)

    @pytest.mark.parametrize(
        "y, weights, payoff",
        [
            ([1.0, 1.0, 1.0], [[0.5, 0.5]] * 2, [1.0, 0.0]),
            ([1.0, 1.0], [[0.5, 0.5]] * 2, [1.0, 0.0, 0.0]),
            ([1.0, 1.0], [[0.5, 0.5, 0.0]] * 2, [1.0, 0.0]),
        ],
        ids=["wealth", "payoff", "weights"],
    )
    def test_rejects_weights_of_the_wrong_shape(self, y, weights, payoff):
        # three wealth entries on two weight rows once came back as two
        with pytest.raises(DomainError, match="one row per wealth entry"):
            discrete_step(y, weights, payoff, 0.1)

    def test_total_wealth_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rng.integers(2, 5)
            n = rng.integers(2, 5)
            y = rng.uniform(0.1, 10.0, size=m)
            lam = rng.dirichlet(np.ones(n), size=m)
            a = rng.uniform(0.0, 3.0, size=n)
            delta = rng.uniform(0.0, 0.99)
            out = discrete_step(y, lam, a, delta)
            expected = (1.0 - delta) * y.sum() + a.sum()
            assert abs(out.sum() - expected) <= 1e-12 * expected


def _block(model, m, handles=()):
    """Steps or grid points per block of a run on ``model`` with ``m`` investors."""
    words = engine._point_words(model, m, [mc_samples(h) for h in handles])
    return max(1, engine.BLOCK_BYTES // (8 * words))


def _excess(runner, profile):
    """``runner(profile)``'s tracemalloc peak beyond its trajectory's own arrays, and the trajectory."""
    tracemalloc.start()
    try:
        traj = runner(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray)), traj


class TestRunDiscrete:
    def _market(self, model, m=2):
        return MarketSpec(m, 2, np.ones(m), payoff_model=model)

    def test_zero_horizon_records_initial_state_only(self):
        spec = self._market(two_point_model(0.6, 0.0))
        traj = run_discrete(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 0, RngStream(0))
        )
        assert traj.n_records == 0
        np.testing.assert_array_equal(traj.wealth[0], [1.0, 1.0])

    def test_identical_investors_split_stays_even(self):
        spec = self._market(two_point_model(0.6, 0.3))
        traj = run_discrete(
            ProfileRun(spec, [constant_strategy([0.7, 0.3])] * 2, 300, RngStream(1))
        )
        np.testing.assert_array_equal(traj.rel, np.full_like(traj.rel, 0.5))

    def test_matches_independent_recursion_oracle(self):
        model = DiscreteIIDModel(atoms=(((2.0, 1.0), 0.25),), probabilities=(1.0,))
        spec = self._market(model)
        lam = [[0.7, 0.3], [0.2, 0.8]]
        handles = [constant_strategy(w) for w in lam]
        traj = run_discrete(ProfileRun(spec, handles, 50, RngStream(2)))
        expected = _oracle_recursion([1.0, 1.0], lam, [((2.0, 1.0), 0.25)] * 50)
        np.testing.assert_allclose(traj.wealth, expected, rtol=EXACT_TOL)

    def test_one_asset_abandoned_by_all(self):
        # both investors ignore asset 1; its payoff splits half/half
        model = DiscreteIIDModel(atoms=(((1.0, 0.0), 0.0),), probabilities=(1.0,))
        spec = self._market(model)
        handles = [constant_strategy([0.0, 1.0])] * 2
        traj = run_discrete(ProfileRun(spec, handles, 3, RngStream(3)))
        np.testing.assert_allclose(traj.wealth[-1], [2.5, 2.5], atol=EXACT_TOL, rtol=0)

    def test_markov_emission_then_transition(self):
        # deterministic alternation: the regime occupied at the start of the
        # step emits, then moves to the other regime
        r0 = DiscreteIIDModel(atoms=(((1.0, 0.0), 0.0),), probabilities=(1.0,))
        r1 = DiscreteIIDModel(atoms=(((0.0, 2.0), 0.0),), probabilities=(1.0,))
        model = MarkovModulatedModel(
            states=("a", "b"),
            transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
            regimes=(r0, r1),
            initial_state=0,
        )
        spec = self._market(model)
        traj = run_discrete(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 4, RngStream(4))
        )
        np.testing.assert_array_equal(
            traj.dx, [[1.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 2.0]]
        )

    def test_markov_candidate_tracks_emitting_regime(self):
        # frozen in regime 1, the candidate equals that regime's outcome
        # distribution at every step
        r0 = two_point_model(0.3, 0.0)
        r1 = two_point_model(0.8, 0.0)
        model = MarkovModulatedModel(
            states=("a", "b"),
            transition=np.eye(2),
            regimes=(r0, r1),
            initial_state=1,
        )
        spec = self._market(model)
        handles = [survival_strategy(), constant_strategy([0.5, 0.5])]
        _, lam, cand = recorded(run_discrete, ProfileRun(spec, handles, 20, RngStream(8)))
        np.testing.assert_allclose(cand, np.tile([0.8, 0.2], (20, 1)), atol=EXACT_TOL)
        np.testing.assert_allclose(lam[:, 0, :], cand, atol=EXACT_TOL)

    def test_path_identities_hold(self):
        spec = self._market(two_point_model(0.6, 0.3))
        handles = [survival_strategy(), constant_strategy([0.5, 0.5])]
        traj = run_discrete(ProfileRun(spec, handles, 400, RngStream(5)))
        assert traj.validate() == []
        report = identity_report(traj)
        assert report.total_wealth_max_rel_err <= 1e-12
        assert report.lower_bound_margin >= -PATH_RTOL
        assert report.upper_bound_margin >= -PATH_RTOL
        assert report.exponent_rel_err <= PATH_RTOL

    def test_gap_stays_infinite_where_the_clock_stops(self):
        # regime "dry" pays nothing, so the selection clock does not move
        # there; the gap of an abandoned asset stays +inf instead of inf * 0
        wet = DiscreteIIDModel(atoms=(((1.0, 1.0), 0.1),), probabilities=(1.0,))
        dry = DiscreteIIDModel(atoms=(((0.0, 0.0), 0.1),), probabilities=(1.0,))
        model = MarkovModulatedModel(
            states=("wet", "dry"), transition=np.array([[0.0, 1.0], [1.0, 0.0]]), regimes=(wet, dry)
        )
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
        handles = [constant_strategy([1.0, 0.0]), survival_strategy()]
        traj = run_discrete(ProfileRun(spec, handles, 4, RngStream(0)))
        np.testing.assert_array_equal(np.diff(traj.pressure)[1::2], 0.0)
        np.testing.assert_array_equal(traj.gap_integral[1:, 0], np.inf)
        np.testing.assert_array_equal(traj.gap_integral[:, 1], 0.0)

    @staticmethod
    def _sole_holder_run(dry_steps):
        """Investor 2 alone holds asset 2, which pays nothing for ``dry_steps`` steps, then 3 wet ones."""
        dry = DiscreteIIDModel(atoms=(((1.0, 0.0), 0.99),), probabilities=(1.0,))
        wet = DiscreteIIDModel(atoms=(((1.0, 1.0), 0.99),), probabilities=(1.0,))
        transition = np.eye(dry_steps + 1, k=1)
        transition[-1, -1] = 1.0
        model = MarkovModulatedModel(
            states=tuple(range(dry_steps + 1)),
            transition=transition,
            regimes=(dry,) * dry_steps + (wet,),
        )
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
        handles = [constant_strategy([1.0, 0.0]), constant_strategy([0.0, 1.0])]
        return run_discrete(ProfileRun(spec, handles, dry_steps + 3, RngStream(0)))

    @pytest.mark.parametrize("dry_steps", [155, 200])
    def test_sole_holder_wealth_underflow_stays_finite(self, dry_steps):
        # investor 2 keeps 1% a step while its asset pays nothing: 155
        # steps leave it 1e-310 (subnormal), 200 leave it exactly 0.  Then
        # asset 2 pays 1: the subnormal holder takes it all, and with no
        # wealth invested it splits 1/M.  Nothing may turn into inf or NaN
        # on the way.
        traj = self._sole_holder_run(dry_steps)
        assert np.all(np.isfinite(traj.wealth))
        y2 = traj.wealth[dry_steps, 1]
        assert (y2 > 0.0) == (dry_steps == 155)
        revived = traj.wealth[dry_steps + 1, 1]
        np.testing.assert_allclose(revived, 1.0 if y2 > 0.0 else 0.5, rtol=1e-15)
        np.testing.assert_allclose(traj.wealth.sum(axis=1), traj.total, rtol=PATH_RTOL)

    @pytest.mark.parametrize("dry_steps", [155, 200])
    @pytest.mark.parametrize("cells", [10**9, 0], ids=["floats", "arrays"])
    def test_sole_holder_redo_replays_through_discrete_step(self, dry_steps, cells):
        # on either kernel the fast order fails on the tiny or zero holder,
        # the block is redone in the bounded order, and every row is still
        # discrete_step of the row before, bit for bit
        with mock.patch.object(engine, "FLOAT_CELLS", cells):
            with mock.patch.object(engine, "_divide_bounded", wraps=engine._divide_bounded) as bounded:
                traj, lam, _ = recorded(self._sole_holder_run, dry_steps)
            assert bounded.call_count > 0
            for k in range(traj.n_records):
                replay = discrete_step(traj.wealth[k], lam[k], traj.dx[k], traj.dv[k])
                assert np.array_equal(replay, traj.wealth[k + 1]), k

    def _zero_wealth_run(self):
        """200 dry steps leave investor 2 exactly 0 (the case above), then 3 wet ones."""
        return self._sole_holder_run(200)

    def test_zero_wealth_row_replays_through_discrete_step(self):
        # the row after the 0 is still discrete_step of that row, bit for bit
        traj, lam, _ = recorded(self._zero_wealth_run)
        assert traj.wealth[200, 1] == 0.0
        replayed = discrete_step(traj.wealth[200], lam[200], traj.dx[200], traj.dv[200])
        np.testing.assert_array_equal(replayed, traj.wealth[201])

    def test_zero_wealth_run_validates(self):
        # an investor at 0 keeps discrete_step's wealth rule: non-negative
        # and finite, with a positive total
        assert self._zero_wealth_run().validate() == []

    def test_zero_wealth_run_summarizes_without_warnings(self):
        # the 0 share and wealth have log -inf and the retention floor
        # underflows to 0; the summary reports them without a warning
        traj = self._zero_wealth_run()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_summary(traj)
        zero = summary["investors"][1]
        assert zero["min_rel"] == 0.0 and zero["tail_slope"] == math.inf
        assert not zero["survives"]
        assert summary["identities"]["lower_bound_margin"] == 0.0

    def test_fractional_horizon_rejected(self):
        # at construction, as every other run check
        spec = self._market(two_point_model(0.6, 0.0))
        with pytest.raises(DomainError, match="integer number of steps"):
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 10.5, RngStream(0))

    def test_trajectory_accessors(self):
        spec = self._market(two_point_model(0.6, 0.0))
        traj, lam, _ = recorded(
            run_discrete, ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 5, RngStream(6))
        )
        np.testing.assert_array_equal(traj.times, np.arange(6.0))
        assert traj.total[3] == traj.wealth[3].sum()
        assert traj.is_jump.all()
        for k in range(traj.n_records):
            assert traj.dx[k].tolist() in ([1.0, 0.0], [0.0, 1.0])
            step = discrete_step(traj.wealth[k], lam[k], traj.dx[k], traj.dv[k])
            np.testing.assert_array_equal(step, traj.wealth[k + 1])

    def test_trajectory_keeps_no_per_step_weights(self):
        # 40 investors x 10 assets over 500 steps: the weights alone would
        # take 1.6 MB; the recorded path, 3 + 4M columns and the increments, 0.75 MB
        m, n = 40, 10
        gen = np.random.default_rng(3)
        atoms = tuple((tuple(gen.uniform(0.0, 1.0, n)), 0.3) for _ in range(6))
        spec = MarketSpec(m, n, np.ones(m), payoff_model=DiscreteIIDModel(atoms, (1 / 6,) * 6))
        handles = [survival_strategy() if i % 2 else constant_strategy(gen.dirichlet(np.ones(n)))
                   for i in range(m)]
        traj = run_discrete(ProfileRun(spec, handles, 500, RngStream(0)))
        arrays = [v for v in vars(traj).values() if isinstance(v, np.ndarray)]
        assert all(v.size < 500 * m * n for v in arrays)
        assert sum(v.nbytes for v in arrays) < 0.8e6

    def test_block_temporaries_do_not_grow_with_the_horizon(self):
        # 40 investors x 10 assets, 2-regime Markov model, all five kinds
        # with Monte Carlo handles: the tracemalloc peak beyond the
        # trajectory's own arrays must not grow from 2 blocks to 8.
        gen = np.random.default_rng(0)
        m, n = 40, 10

        def regime():
            atoms = tuple((tuple(gen.uniform(0.0, 1.0, n)), 0.3) for _ in range(6))
            return DiscreteIIDModel(atoms=atoms, probabilities=(1 / 6,) * 6)

        model = MarkovModulatedModel(
            states=("a", "b"), transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
            regimes=(regime(), regime()),
        )
        simplex = lambda: gen.dirichlet(np.ones(n))  # noqa: E731
        kinds = [
            lambda: survival_strategy(),
            lambda: constant_strategy(simplex()),
            lambda: perturbed(survival_mc_strategy(64), PerturbationSchedule("inverse_t", 2.0),
                              simplex()),
            lambda: survival_mc_strategy(64),
            lambda: table_strategy([(0, simplex()), (50, simplex())], {1: [(0, simplex())]}),
        ]
        handles = [kinds[i % 5]() for i in range(m)]
        spec = MarketSpec(m, n, np.ones(m), payoff_model=model)
        block = _block(model, m, handles)

        def excess(horizon):
            return _excess(run_discrete, ProfileRun(spec, handles, horizon, RngStream(1)))[0]

        excess(block)  # first-call allocations (lazy imports, caches) are not per block
        assert excess(8 * block) <= 1.1 * excess(2 * block)

    @pytest.mark.parametrize("samples", [1, 64])
    def test_block_temporaries_fit_the_budget(self, samples):
        # 40 investors x 10 assets, 2 regimes, all five kinds with Monte
        # Carlo leaves, alone and inside perturbed handles: the policy
        # stage stays within the per-step count beyond the environment's
        # rows and uniforms (U + N + 8 words), and the whole run's peak
        # beyond the trajectory within BLOCK_BYTES.
        gen = np.random.default_rng(1)
        m, n = 40, 10

        def regime():
            atoms = tuple((tuple(gen.uniform(0.0, 1.0, n)), 0.3) for _ in range(6))
            return DiscreteIIDModel(atoms=atoms, probabilities=(1 / 6,) * 6)

        model = MarkovModulatedModel(
            states=("a", "b"), transition=np.array([[0.6, 0.4], [0.5, 0.5]]),
            regimes=(regime(), regime()),
        )
        simplex = lambda: gen.dirichlet(np.ones(n))  # noqa: E731
        kinds = [
            lambda: survival_strategy(),
            lambda: constant_strategy(simplex()),
            lambda: perturbed(survival_mc_strategy(samples), PerturbationSchedule("inverse_t", 2.0),
                              simplex()),
            lambda: survival_mc_strategy(samples),
            lambda: table_strategy([(0, simplex()), (50, simplex())], {1: [(0, simplex())]}),
        ]
        handles = [kinds[i % 5]() for i in range(m)]
        spec = MarketSpec(m, n, np.ones(m), payoff_model=model)
        sizes = [mc_samples(h) for h in handles]
        block = _block(model, m, handles)
        words = engine._point_words(model, m, sizes)
        policy_term = 8 * block * (words - (sum(sizes) + n + 8))
        policy_peaks = []
        block_weights = engine.block_weights

        def traced(*args, **kwargs):
            at_entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            block_weights(*args, **kwargs)
            policy_peaks.append(tracemalloc.get_traced_memory()[1] - at_entry)

        run_discrete(ProfileRun(spec, handles, 2 * block, RngStream(2)))  # warm caches
        tracemalloc.start()
        try:
            with mock.patch.object(engine, "block_weights", traced):
                traj = run_discrete(ProfileRun(spec, handles, 2 * block, RngStream(2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))
        assert max(policy_peaks) <= policy_term
        assert peak - own <= engine.BLOCK_BYTES

    def test_wide_support_fits_the_budget(self):
        # 2 x 2 with 2,000 atoms: the claim's per-atom terms, not the
        # weights, set the block length, and 40 steps peak within the budget
        gen = np.random.default_rng(3)
        atoms = tuple((tuple(gen.uniform(0.0, 1.0, 2)), 0.3) for _ in range(2000))
        spec = self._market(DiscreteIIDModel(atoms, (1 / 2000,) * 2000))
        profile = ProfileRun(spec, [survival_strategy(), constant_strategy([0.3, 0.7])], 40, RngStream(0))
        _excess(run_discrete, profile)  # first-call allocations (lazy imports, caches)
        assert _excess(run_discrete, profile)[0] <= engine.BLOCK_BYTES


class TestRunContinuous:
    def test_pure_consumption_keeps_shares_constant(self):
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 0.0), v_rate=0.5)
        spec = MarketSpec(2, 2, [1.0, 3.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 4.0, RngStream(0), record_dt=0.5)
        )
        np.testing.assert_allclose(traj.rel, np.tile(traj.rel[0], (traj.rel.shape[0], 1)), atol=1e-14)
        assert traj.total[-1] == pytest.approx(4.0 * math.exp(-2.0), rel=EXACT_TOL)

    def test_pure_jump_updates_match_discrete_step(self):
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0), ((0.0, 1.0), 0.05, 2.0)),
            drift=(0.0, 0.0),
            gamma_v=0.2,
        )
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        handles = [survival_strategy(), constant_strategy([0.5, 0.5])]
        traj, lam, _ = recorded(run_continuous, ProfileRun(spec, handles, 5.0, RngStream(3), record_dt=0.5))
        assert traj.is_jump.sum() > 0
        y = traj.wealth[0].copy()
        for k in np.where(traj.is_jump)[0]:
            y = discrete_step(y, lam[k], traj.dx[k], traj.dv[k])
            np.testing.assert_allclose(y, traj.wealth[k + 1], atol=EXACT_TOL, rtol=0)

    def test_single_investor_linear_total_growth(self):
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0), v_rate=0.0)
        spec = MarketSpec(1, 2, [1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])], 10.0, RngStream(0), record_dt=1.0)
        )
        np.testing.assert_allclose(traj.total, 1.0 + 2.0 * traj.times, atol=1e-8, rtol=0)

    def test_step_halving_stability(self):
        kernel = KernelSpec(
            jump_atoms=(((0.5, 0.0), 0.1, 0.6), ((0.0, 0.7), 0.0, 0.8)),
            drift=(0.4, 0.2),
            v_rate=0.3,
            gamma_v=0.2,
        )
        spec = MarketSpec(2, 2, [1.0, 1.5], payoff_model=kernel)
        handles = [survival_strategy(), constant_strategy([0.3, 0.7])]

        def terminal(dt):
            return run_continuous(
                ProfileRun(spec, handles, 10.0, RngStream(11), dt=dt, record_dt=1.0)
            ).wealth[-1]

        coarse, fine = terminal(0.01), terminal(0.005)
        assert np.max(np.abs(coarse - fine) / fine) < 1e-6

    def test_drift_run_identities(self):
        kernel = KernelSpec(
            jump_atoms=(((0.5, 0.0), 0.1, 0.6),),
            drift=(0.4, 0.2),
            v_rate=0.3,
            gamma_v=0.2,
        )
        spec = MarketSpec(2, 2, [1.0, 1.5], payoff_model=kernel)
        handles = [survival_strategy(), constant_strategy([0.3, 0.7])]
        traj = run_continuous(ProfileRun(spec, handles, 8.0, RngStream(12), record_dt=0.5))
        assert traj.validate() == []
        report = identity_report(traj)
        assert report.lower_bound_margin >= -PATH_RTOL
        assert report.upper_bound_margin >= -PATH_RTOL
        assert report.exponent_rel_err <= PATH_RTOL

    def test_records_cover_grid_and_jumps(self):
        kernel = KernelSpec(jump_atoms=(((1.0, 0.0), 0.0, 0.5),), drift=(0.0, 0.0))
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 4.0, RngStream(7), record_dt=1.0)
        )
        for g in (1.0, 2.0, 3.0, 4.0):
            assert np.any(np.isclose(traj.times, g) | (traj.times > g))
        assert traj.times[-1] == pytest.approx(4.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_grid_records_are_multiples_of_the_spacing(self):
        # accumulating 0.1 ten times lands one ulp short of 1.0, which used
        # to emit a spurious record just before the horizon
        kernel = KernelSpec(jump_atoms=(), drift=(0.2, 0.1), v_rate=0.1)
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 1.0, RngStream(0), record_dt=0.1)
        )
        np.testing.assert_array_equal(traj.times, [k * 0.1 for k in range(10)] + [1.0])

    def test_grid_point_an_ulp_from_a_jump_merges_into_it(self, monkeypatch):
        # 3 * 0.1 is one ulp above the jump at 0.3
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0),), drift=(0.2, 0.1), v_rate=0.1, gamma_v=0.2
        )
        jumps = iter([(0.3, (np.array([1.0, 0.0]), 0.1))])
        monkeypatch.setattr(engine, "next_jump", lambda kernel, rng, t: next(jumps, None))
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 1.0, RngStream(0), record_dt=0.1)
        )
        expected = [k * 0.1 for k in range(3)] + [0.3] + [k * 0.1 for k in range(4, 10)] + [1.0]
        np.testing.assert_array_equal(traj.times, expected)
        assert traj.is_jump.tolist() == [k == 2 for k in range(10)]

    def test_unclaimed_drift_splits_equally(self):
        # nobody holds asset 2, so each investor gets half of its drift
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 1.0), v_rate=0.0)
        spec = MarketSpec(2, 2, [0.25, 1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([1.0, 0.0])] * 2, 2.0, RngStream(0), record_dt=0.5)
        )
        np.testing.assert_allclose(traj.wealth, [0.25, 1.0] + 0.5 * traj.times[:, None], rtol=1e-12)

    def test_subnormal_weight_still_claims_the_drift(self):
        # 0.25 * 5e-324 underflows to 0, yet investor 2 alone holds asset 2,
        # so it takes all of that asset's drift: W = 0.5 + 2t, y1 = 0.25 sqrt(W / 0.5)
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0), v_rate=0.0)
        spec = MarketSpec(2, 2, [0.25, 0.25], payoff_model=kernel)
        handles = [constant_strategy([1.0, 0.0]), constant_strategy(np.array([1.0, 5e-324]))]
        traj = run_continuous(ProfileRun(spec, handles, 0.1, RngStream(0), dt=0.001))
        y1 = 0.25 * math.sqrt(0.7 / 0.5)
        np.testing.assert_allclose(traj.wealth[-1], [y1, 0.7 - y1], rtol=1e-9)

    def test_subnormal_wealth_still_takes_its_drift(self):
        # investor 2 starts with 1e-310 and alone holds asset 2, so it takes
        # all of that asset's drift, y2(t) = y2(0) e^{-vt} + b (1 - e^{-vt}) / v;
        # pay / invested overflows there, and the integrator must not fail
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 1.0), v_rate=0.5)
        spec = MarketSpec(2, 2, [1.0, 1e-310], payoff_model=kernel)
        handles = [constant_strategy([1.0, 0.0]), constant_strategy([0.0, 1.0])]
        traj = run_continuous(ProfileRun(spec, handles, 1.0, RngStream(0), dt=0.01))
        growth = -math.expm1(-0.5) / 0.5
        np.testing.assert_allclose(traj.wealth[-1], [math.exp(-0.5) + growth, growth], rtol=1e-9)

    def test_decayed_wealth_reaches_zero_and_the_run_goes_on(self):
        # investor 1 holds only asset 1, which has no drift, so its wealth
        # decays by RK4's factor 0.375 a substep (v h = 1) and underflows to
        # exactly 0 near t = 7.6; the state stays valid to the horizon
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 1.0), v_rate=100.0)
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        handles = [constant_strategy([1.0, 0.0]), constant_strategy([0.0, 1.0])]
        traj = run_continuous(ProfileRun(spec, handles, 20.0, RngStream(0), dt=0.01))
        assert traj.times[-1] == 20.0
        assert traj.wealth[-1, 0] == 0.0
        np.testing.assert_allclose(traj.wealth[-1, 1], 0.01, rtol=1e-12)
        assert traj.validate() == []

    def test_gap_is_zero_when_the_clock_never_moves(self):
        # no jumps and no drift: the selection clock is 0 throughout, so the
        # gap integral of a strategy off the (uniform) candidate is 0, not NaN
        kernel = KernelSpec(jump_atoms=(), drift=(0.0, 0.0), v_rate=0.2)
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        handles = [constant_strategy([1.0, 0.0]), constant_strategy([0.5, 0.5])]
        traj = run_continuous(ProfileRun(spec, handles, 1.0, RngStream(0), record_dt=0.25))
        np.testing.assert_array_equal(traj.pressure, 0.0)
        np.testing.assert_array_equal(traj.gap_integral, 0.0)

    def test_a_jump_reuses_its_segment_end_point(self, monkeypatch):
        # the policy runs once per block of grid points and not again at a
        # jump: every record's end time is a grid point, and a jump reads
        # the weights of its segment's last point, the jump time itself
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 2.0),), drift=(0.4, 0.2), v_rate=0.3, gamma_v=0.1
        )
        spec = MarketSpec(2, 2, [1.0, 1.5], payoff_model=kernel)
        handles = [survival_strategy(), constant_strategy([0.3, 0.7])]
        blocks, calls = [], []
        grid_blocks, drift_rates = engine._grid_blocks, engine._drift_rates

        def block_spy(*args):
            for block in grid_blocks(*args):
                blocks.append(block[0])
                yield block

        def spy(kernel, policy, t, w):
            out = drift_rates(kernel, policy, t, w)
            calls.append((t.copy(), out[0].copy()))
            return out

        monkeypatch.setattr(engine, "_grid_blocks", block_spy)
        monkeypatch.setattr(engine, "_drift_rates", spy)
        profile = ProfileRun(spec, handles, 3.0, RngStream(2), record_dt=1.0)
        traj, weights, _ = recorded(run_continuous, profile)
        assert traj.is_jump.sum() >= 2
        assert len(calls) == len(blocks)  # one policy stage per block
        assert all(np.array_equal(t, block) for (t, _), block in zip(calls, blocks))
        t = np.concatenate([t for t, _ in calls])
        lam = np.concatenate([lam for _, lam in calls])
        for k in range(traj.n_records):
            # the first grid point at a record's end time is its segment's last
            end = np.flatnonzero(t == traj.times[k + 1])
            assert end.size > 0
            if traj.is_jump[k]:
                assert np.array_equal(weights[k], lam[end[0]])

    def test_block_layout_changes_only_the_integrals_rounding(self, monkeypatch):
        # a small budget makes blocks that span several segments and
        # segments that span several blocks; the grid points, and so the
        # path, are those of the default budget, and only the grouping of
        # the Simpson sums changes
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.5), ((0.0, 0.8), 0.05, 1.0)),
            drift=(0.4, 0.2), v_rate=0.3, gamma_v=0.2,
        )
        spec = MarketSpec(3, 2, [1.0, 1.5, 0.5], payoff_model=kernel)
        handles = [
            survival_strategy(),
            constant_strategy([0.3, 0.7]),
            perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 2.0), [0.5, 0.5]),
        ]

        def go():
            return run_continuous(ProfileRun(spec, handles, 20.0, RngStream(5), dt=0.01))

        default, default_lam, default_cand = recorded(go)
        layout, grid_blocks = [], engine._grid_blocks

        def spy(*args):
            for block in grid_blocks(*args):
                layout.append({piece[0] for piece in block[2]})
                yield block

        monkeypatch.setattr(engine, "BLOCK_BYTES", 1 << 14)
        monkeypatch.setattr(engine, "_grid_blocks", spy)
        small, small_lam, small_cand = recorded(go)
        assert any(len(records) > 1 for records in layout)
        assert any(len([b for b in layout if k in b]) > 1 for k in range(small.n_records))
        np.testing.assert_array_equal(small_lam, default_lam, err_msg="weights")
        np.testing.assert_array_equal(small_cand, default_cand, err_msg="candidate")
        for name in ("wealth", "times", "is_jump", "weight_floor", "candidate_floor"):
            np.testing.assert_array_equal(getattr(small, name), getattr(default, name), err_msg=name)
        for name in ("pressure", "gap_integral", "closeness", "z_cont"):
            np.testing.assert_allclose(getattr(small, name), getattr(default, name), rtol=1e-13, atol=0,
                                       err_msg=name)

    def test_two_jumps_at_one_time_make_an_empty_segment(self, monkeypatch):
        # the second jump's segment has no length: no substep and zero
        # increments, then a division step with the weights at (t, W+)
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0), ((0.0, 1.0), 0.05, 1.0)),
            drift=(0.4, 0.2), v_rate=0.3, gamma_v=0.2,
        )
        up, down = (np.array([1.0, 0.0]), 0.1), (np.array([0.0, 1.0]), 0.05)
        jumps = iter([(0.3, up), (0.3, down), (0.7, up)])
        monkeypatch.setattr(engine, "next_jump", lambda kernel, rng, t: next(jumps, None))
        spec = MarketSpec(2, 2, [1.0, 1.5], payoff_model=kernel)
        handles = [survival_strategy(), constant_strategy([0.3, 0.7])]
        traj, lam, _ = recorded(run_continuous, ProfileRun(spec, handles, 1.0, RngStream(0), record_dt=0.25))
        np.testing.assert_array_equal(traj.times, [0.0, 0.25, 0.3, 0.3, 0.5, 0.7, 0.75, 1.0])
        assert traj.is_jump.tolist() == [False, True, True, False, True, False, False]
        w_minus = engine._total_wealth(kernel, engine._total_wealth(kernel, 2.5, 0.25), 0.3 - 0.25)
        w_plus = 0.9 * w_minus + 1.0
        assert traj.z_jump[1] == 1.0 / w_minus - 0.1
        assert traj.z_jump[2] == 1.0 / w_plus - 0.05
        for m, handle in enumerate(handles):
            assert np.array_equal(lam[2, m], engine.evaluate(handle, kernel, 0.3, None, w_plus))
        assert np.array_equal(traj.wealth[3], discrete_step(traj.wealth[2], lam[2], *down))
        for name in ("pressure", "gap_integral", "closeness"):
            assert np.array_equal(getattr(traj, name)[3], getattr(traj, name)[2]), name
        assert traj.z_cont[2] == 0.0
        np.testing.assert_array_equal(traj.dx[2], [0.0, 1.0])
        assert traj.dv[2] == 0.05 and traj.retention[3] == traj.retention[2] * 0.95

    def test_chunk_temporaries_do_not_grow_with_the_segment(self, monkeypatch):
        # one jump-free segment, no recording grid: the tracemalloc peak
        # beyond the trajectory's own arrays must not grow from 2 chunks to 8
        monkeypatch.setattr(engine, "BLOCK_BYTES", 1 << 16)
        kernel = KernelSpec(jump_atoms=(), drift=(0.4, 0.2), v_rate=0.3)
        spec = MarketSpec(3, 2, [1.0, 1.5, 0.5], payoff_model=kernel)
        handles = [
            survival_strategy(),
            constant_strategy([0.3, 0.7]),
            perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 2.0), [0.5, 0.5]),
        ]
        dt = 0.01
        chunk = (_block(kernel, 3) - 1) // 2  # substeps per piece

        def excess(chunks):
            peak, traj = _excess(run_continuous, ProfileRun(spec, handles, chunks * chunk * dt, RngStream(1), dt=dt))
            assert traj.n_records == 1
            return peak

        excess(1)  # first-call allocations (lazy imports, caches) are not per chunk
        assert excess(8) <= 1.1 * excess(2)

    def test_segment_temporaries_fit_the_budget(self):
        # one jump-free segment of 3,000 substeps over several grid blocks,
        # 3 x 2: the peak beyond the trajectory stays within the budget
        kernel = KernelSpec(jump_atoms=(), drift=(0.4, 0.2), v_rate=0.3)
        spec = MarketSpec(3, 2, [1.0, 1.5, 0.5], payoff_model=kernel)
        handles = [
            survival_strategy(),
            constant_strategy([0.3, 0.7]),
            perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 2.0), [0.5, 0.5]),
        ]
        profile = ProfileRun(spec, handles, 30.0, RngStream(1), dt=0.01)
        _excess(run_continuous, profile)  # first-call allocations (lazy imports, caches)
        peak, traj = _excess(run_continuous, profile)
        assert traj.n_records == 1
        assert peak <= engine.BLOCK_BYTES

    def test_records_keep_no_weights(self):
        # 20 x 10 recorded every 0.01: an added record costs less than its
        # (M, N) weights beyond the trajectory's own arrays
        gen = np.random.default_rng(4)
        m, n = 20, 10
        kernel = KernelSpec(jump_atoms=(((1.0,) * n, 0.1, 1.0),), drift=(0.1,) * n, v_rate=0.1, gamma_v=0.1)
        spec = MarketSpec(m, n, np.ones(m), payoff_model=kernel)
        handles = [survival_strategy() if i % 2 else constant_strategy(gen.dirichlet(np.ones(n)))
                   for i in range(m)]

        def excess(horizon):
            return _excess(run_continuous, ProfileRun(spec, handles, horizon, RngStream(1), record_dt=0.01))

        excess(1.0)  # first-call allocations (lazy imports, caches)
        (few, short), (many, long) = excess(5.0), excess(20.0)
        assert many - few < 8 * m * n * (long.n_records - short.n_records)

    def test_event_accessor_total_under_heavy_consumption(self):
        # a record's consumption is the rate times the segment plus the
        # jump's fraction, which can exceed 1; retention multiplies the
        # matching factors exp(-rate * span) (1 - v)
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0),), drift=(0.0, 0.0), v_rate=2.0, gamma_v=0.2
        )
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run_continuous(
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 6.0, RngStream(9))
        )
        span = np.diff(traj.times)
        np.testing.assert_allclose(traj.dv, 2.0 * span + 0.1 * traj.is_jump, rtol=1e-15)
        assert np.any(traj.dv > 1.0) and traj.is_jump.any()
        factors = np.exp(-2.0 * span) * np.where(traj.is_jump, 0.9, 1.0)
        np.testing.assert_allclose(traj.retention[1:], np.cumprod(factors), rtol=1e-14)
        assert traj.validate() == []

    def test_dispatch_by_model_type(self):
        kernel = KernelSpec(jump_atoms=(), drift=(1.0, 0.5))
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run(ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 1.0, RngStream(0)))
        assert traj.mode == "continuous"
        spec2 = MarketSpec(2, 2, [1.0, 1.0], payoff_model=two_point_model(0.5, 0.0))
        traj2 = run(ProfileRun(spec2, [constant_strategy([0.5, 0.5])] * 2, 3, RngStream(0)))
        assert traj2.mode == "discrete"


def _exponent_err(z_cont, z_jump, w_end):
    """identity_report's exponent error on a path from W = 1 to ``w_end``."""
    traj = engine._alloc(len(z_cont), 1, 1, "continuous")
    traj.times[:] = np.arange(traj.times.size)
    traj.total[:] = 1.0
    traj.total[-1] = w_end
    traj.wealth[:, 0] = traj.total
    traj.z_cont[:], traj.z_jump[:] = z_cont, z_jump
    return identity_report(traj).exponent_rel_err


class TestStochasticExponent:
    def test_zero_process_gives_one(self):
        assert _exponent_err([0.0, 0.0], [0.0, 0.0], 1.0) == 0.0

    def test_single_jump(self):
        assert _exponent_err([0.0], [0.5], 1.5) == 0.0

    def test_continuous_drift(self):
        assert _exponent_err([1.0], [0.0], math.e) <= 1e-15

    def test_pure_jump_product_form_is_exact(self):
        jumps = [0.1, -0.2, 0.35, 0.0, 2.0]
        product = 1.0
        for z in jumps:
            product *= 1.0 + z
        assert _exponent_err([0.0] * len(jumps), jumps, product) == 0.0

    def test_jump_at_minus_one_rejected(self):
        with pytest.raises(DomainError):
            _exponent_err([0.0], [-1.0], 1.0)

    def test_positivity(self):
        # jumps above -1 keep the exponent positive; its factors
        # exp(z_cont[k]) then 1 + z_jump[k] multiply record by record, as a
        # sequential fold over the increments would multiply them
        rng = np.random.default_rng(1)
        z_cont = rng.normal(scale=0.3, size=200)
        z_jump = rng.uniform(-0.99, 3.0, size=200)
        value = 1.0
        for zc, zj in zip(z_cont.tolist(), z_jump.tolist()):
            value *= math.exp(zc)
            value *= 1.0 + zj
        assert value > 0.0
        assert _exponent_err(z_cont, z_jump, value) == 0.0


class TestProfileRunValidation:
    def test_strategy_count_must_match(self):
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=two_point_model(0.5, 0.0))
        with pytest.raises(DomainError):
            ProfileRun(spec, [constant_strategy([0.5, 0.5])], 10, RngStream(0))

    @pytest.mark.parametrize(
        "model",
        [two_point_model(0.5, 0.0), KernelSpec(jump_atoms=(), drift=(1.0, 0.5))],
        ids=["discrete", "kernel"],
    )
    def test_model_and_market_must_agree_on_the_assets(self, model):
        spec = MarketSpec(2, 3, [1.0, 1.0], payoff_model=model)
        with pytest.raises(DomainError, match="disagree on the number of assets"):
            ProfileRun(spec, [survival_strategy()] * 2, 1, RngStream(0))

    def test_wrong_engine_for_model(self):
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=two_point_model(0.5, 0.0))
        with pytest.raises(DomainError):
            run_continuous(ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 1.0, RngStream(0)))

    @pytest.mark.parametrize(
        "model",
        [two_point_model(0.5, 0.0), KernelSpec(jump_atoms=(), drift=(1.0, 0.5))],
        ids=["discrete", "kernel-without-jumps"],
    )
    def test_infinite_horizon_rejected(self, model):
        # a discrete run once raised OverflowError, a kernel without jumps TypeError
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=model)
        with pytest.raises(DomainError, match="horizon must be finite"):
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, math.inf, RngStream(0))

    def test_nonpositive_wealth_rejected(self):
        spec = MarketSpec(2, 2, [1.0, 0.0], payoff_model=two_point_model(0.5, 0.0))
        with pytest.raises(DomainError):
            ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 10, RngStream(0))

    @pytest.mark.parametrize(
        "handle, where",
        [
            (constant_strategy([0.2, 0.3, 0.5]), "strategy 1.weights"),
            (perturbed(survival_strategy(), PerturbationSchedule("zero"), [0.2, 0.3, 0.5]),
             "strategy 1.target"),
            (table_strategy([(0, [0.5, 0.5]), (5, [0.2, 0.3, 0.5])]), "strategy 1.default[1][1]"),
            (table_strategy([(0, [0.5, 0.5])], {0: [(0, [0.5, 0.5])]}), "strategy 1.regimes.0"),
        ],
        ids=["constant", "perturbed-target", "table-entry", "regime-key-on-iid"],
    )
    def test_handle_must_fit_the_model(self, handle, where):
        # one weight per asset, and per-regime entries only for regimes the model has
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=two_point_model(0.5, 0.0))
        with pytest.raises(DomainError, match=rf"^{re.escape(where)}: "):
            ProfileRun(spec, [survival_strategy(), handle], 10, RngStream(0))
