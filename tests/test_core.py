"""Core domain-type tests: simplex normalization and validation, market
validation and the invariants of recorded trajectories."""

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
    constant_strategy,
    evaluate,
    make_simplex,
    perturbed,
    run,
    survival_strategy,
    table_strategy,
)
from marketsel.cli import ConfigError, parse_config_dict
from marketsel.core import as_simplex
from marketsel.scenarios import get_scenario, two_point_model
from marketsel.strategies import PerturbationSchedule

STRUCT_TOL = 1e-12
SCALE_TOL = 1e-14


class TestMakeSimplex:
    def test_hand_normalization(self):
        out = make_simplex([0.3, 0.9])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=STRUCT_TOL, rtol=0)

    def test_zero_mass_maps_to_uniform(self):
        out = make_simplex([0.0, 0.0])
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_denormal_mass_treated_as_zero(self):
        out = make_simplex([1e-310, 1e-312])
        np.testing.assert_array_equal(out, [0.5, 0.5])

    @pytest.mark.parametrize("c", [1e-8, 1e-3, 1.0, 7.5, 1e3, 1e8])
    def test_scale_invariance(self, c):
        x = np.array([0.2, 1.4, 0.0, 3.1])
        base = make_simplex(x)
        scaled = make_simplex(c * x)
        np.testing.assert_allclose(scaled, base, atol=SCALE_TOL, rtol=0)

    @given(
        # components are zero or well-scaled: the degenerate uniform branch
        # triggers below a hard norm floor, and no threshold can be scale
        # invariant across it
        raw=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e6)),
            min_size=2,
            max_size=8,
        ),
        c=st.floats(min_value=1e-8, max_value=1e8),
    )
    @settings(max_examples=200)
    def test_scale_invariance_property(self, raw, c):
        base = make_simplex(raw)
        scaled = make_simplex(c * np.asarray(raw))
        assert np.max(np.abs(scaled - base)) <= SCALE_TOL

    @given(raw=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=8))
    @settings(max_examples=200)
    def test_output_is_valid_simplex(self, raw):
        out = make_simplex(raw)
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= STRUCT_TOL

    def test_rejects_negative_components(self):
        with pytest.raises(DomainError):
            make_simplex([0.5, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            make_simplex([np.inf, 1.0])
        with pytest.raises(DomainError):
            make_simplex([np.nan, 1.0])


class TestSimplexVector:
    """``as_simplex``: the validated, read-only weight vectors that handles hold."""

    def test_valid_construction(self):
        v = as_simplex([0.25, 0.75])
        assert v.shape == (2,) and v.dtype == np.float64
        assert v[1] == 0.75

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError, match="sum to 1"):
            as_simplex(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(DomainError, match="non-negative"):
            as_simplex(np.array([-0.1, 1.1]))
        with pytest.raises(DomainError, match="1-d"):
            as_simplex([[0.5, 0.5]])
        with pytest.raises(DomainError, match="at least one"):
            as_simplex([])
        with pytest.raises(DomainError, match="finite"):
            as_simplex([np.nan, 1.0])

    def test_weights_are_read_only(self):
        raw = np.array([0.5, 0.5])
        v = as_simplex(raw)
        raw[0] = 0.9  # a copy: the caller's array does not reach the vector
        assert v[0] == 0.5
        model = two_point_model(0.6, 0.5)
        table = table_strategy([(0.0, raw / raw.sum())], {0: [(0.0, [0.2, 0.8])]})
        held = [
            v,
            make_simplex([0.3, 0.9]),
            evaluate(survival_strategy(), model, 0.0, None, 1.0),
            constant_strategy(v).weights,
            perturbed(survival_strategy(), PerturbationSchedule("zero"), v).target,
            table.table[0][0][1],
            table.table[1][0][1][0][1],
        ]
        for w in held:
            with pytest.raises(ValueError):
                w[0] = 0.9


def _market(**changes):
    """The dominance-2pt config's market and strategies, with ``changes`` applied."""
    cfg = parse_config_dict(get_scenario("dominance-2pt").config)
    spec = {
        "num_investors": 2, "num_assets": 2, "initial_wealth": cfg.market.initial_wealth,
        "payoff_model": cfg.market.payoff_model, **changes,
    }
    return ProfileRun(MarketSpec(**spec), list(cfg.strategies), 10, RngStream(0))


class TestValidateMarket:
    """A market is checked where it enters: the config schema and ``ProfileRun``."""

    def test_valid_market_is_clean(self):
        assert run(_market()).validate() == []

    def test_single_investor_flagged(self):
        data = get_scenario("dominance-2pt").config
        data = {**data, "market": {**data["market"], "investors": 1, "initial_wealth": [1.0]}}
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert any(msg.startswith("$.market.investors:") for msg in err.value.errors)

    def test_zero_wealth_flagged(self):
        with pytest.raises(DomainError, match="strictly positive"):
            _market(initial_wealth=[1.0, 0.0])
        with pytest.raises(DomainError, match="one value per investor"):
            _market(initial_wealth=[1.0])

    def test_missing_model_flagged(self):
        with pytest.raises(DomainError, match="payoff model"):
            _market(payoff_model=None)


def _runs():
    """One discrete and one continuous run of the same two strategies."""
    handles = [survival_strategy(), constant_strategy([0.5, 0.5])]
    kernel = KernelSpec(
        jump_atoms=(((1.0, 0.0), 0.1, 1.0), ((0.0, 1.0), 0.05, 2.0)), drift=(0.3, 0.1),
        v_rate=0.2, gamma_v=0.2,
    )
    return [
        run(ProfileRun(MarketSpec(2, 2, [1.0, 3.0], payoff_model=model), handles, horizon,
                       RngStream(3), record_dt=0.5))
        for model, horizon in ((two_point_model(0.6, 0.3), 50), (kernel, 5.0))
    ]


class TestWealthState:
    """The recorded wealth states: totals and shares follow from the wealth."""

    def test_from_wealth(self):
        for traj in _runs():
            np.testing.assert_array_equal(traj.total, traj.wealth.sum(axis=1))
            np.testing.assert_array_equal(traj.rel, traj.wealth / traj.total[:, None])
            assert traj.validate() == []

    def test_total_mismatch_rejected(self):
        traj = _runs()[0]
        traj.total[4] *= 1.0 + 1e-6
        assert traj.validate() == ["total wealth must match the sum of investor wealth"]

    def test_zero_share_rejected(self):
        # one investor at 0 is a valid state (discrete_step's rule); a row
        # whose every share is 0 has no positive total and is not
        traj = _runs()[0]
        traj.wealth[3, 1] = 0.0
        traj.total[3] = traj.wealth[3].sum()
        traj.rel[3] = traj.wealth[3] / traj.total[3]
        assert traj.validate() == []
        traj.wealth[3] = traj.total[3] = traj.rel[3] = 0.0
        assert traj.validate() == [
            "wealth must be non-negative and finite with a positive total",
            "relative wealth must be non-negative and finite with a positive total",
        ]

    def test_nan_wealth_rejected(self):
        traj = _runs()[1]
        traj.wealth[2, 0] = np.nan
        traj.total[2] = traj.wealth[2].sum()
        traj.rel[2] = traj.wealth[2] / traj.total[2]
        assert traj.validate() == [
            "wealth must be non-negative and finite with a positive total",
            "relative wealth must be non-negative and finite with a positive total",
        ]


class TestPayoffEvent:
    """The recorded payoff events and the models that generate them."""

    def test_valid_jump(self):
        traj = _runs()[0]
        assert traj.is_jump.all()
        assert np.all(traj.dx >= 0.0)
        assert np.all((0.0 <= traj.dv) & (traj.dv < 1.0))

    def test_jump_consumption_must_stay_below_one(self):
        with pytest.raises(DomainError):
            DiscreteIIDModel(atoms=(((1.0, 0.0), 1.0),), probabilities=(1.0,))
        with pytest.raises(DomainError):
            KernelSpec(jump_atoms=(), drift=(0.0, 0.0), gamma_v=1.0)
        with pytest.raises(DomainError):
            KernelSpec(jump_atoms=(((1.0, 0.0), 0.3, 1.0),), drift=(0.0, 0.0), gamma_v=0.2)

    def test_segment_consumption_may_exceed_one(self):
        # a continuous record adds the segment's rate consumption to the
        # jump's fraction, so its dv may exceed 1 on a valid path
        kernel = KernelSpec(
            jump_atoms=(((1.0, 0.0), 0.1, 1.0),), drift=(0.0, 0.0), v_rate=2.0, gamma_v=0.2
        )
        spec = MarketSpec(2, 2, [1.0, 1.0], payoff_model=kernel)
        traj = run(ProfileRun(spec, [constant_strategy([0.5, 0.5])] * 2, 6.0, RngStream(9)))
        assert np.any(traj.dv > 1.0)
        assert traj.validate() == []

    def test_negative_payoff_rejected(self):
        with pytest.raises(DomainError):
            DiscreteIIDModel(atoms=(((-1.0, 0.0), 0.0),), probabilities=(1.0,))
        with pytest.raises(DomainError):
            KernelSpec(jump_atoms=(((-1.0, 0.0), 0.0, 1.0),), drift=(0.0, 0.0))
        traj = _runs()[0]
        traj.dx[2] = [-1.0, 0.0]
        traj.cum_x[1:] = np.cumsum(traj.dx, axis=0)
        assert traj.validate() == ["cumulative payoff/consumption must be non-decreasing"]


class TestTrajectoryRecords:
    def test_running_sums_add_the_increments_in_record_order(self):
        for traj in _runs():
            np.testing.assert_array_equal(np.diff(traj.times) > 0.0, True)
            np.testing.assert_array_equal(traj.cum_x[1:], np.cumsum(traj.dx, axis=0))
            np.testing.assert_array_equal(traj.cum_v[1:], np.cumsum(traj.dv))
