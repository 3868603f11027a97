"""Built-in verification scenarios.

Each scenario is a complete runnable configuration (the same JSON shape
the CLI accepts) plus a statement of the property it exercises and the
outcome to expect.  The acceptance suite drives these exact configs.

The discrete scenarios share one two-asset, two-outcome payoff model:
asset 1 pays one unit with probability p = 0.6, otherwise asset 2 pays
one unit, and a fraction delta of wealth is reinvested each step.  With
|payoff| identical across outcomes the survival candidate is the outcome
distribution (p, 1-p) itself, independent of wealth and delta.  Delta is
set to 0.95: near-full reinvestment keeps total wealth bounded, so the
per-step selection pressure has a positive floor and the one-step
log-odds drift of the candidate against a (0.5, 0.5) competitor stays
near its full-reinvestment value KL(0.6||0.5) ~ 0.02 nats.  (With low
delta the market's total wealth grows linearly and selection stalls
logarithmically; nothing observable happens in a few thousand steps.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .payoffs import DiscreteIIDModel

TWO_POINT_P = 0.6
TWO_POINT_DELTA = 0.95


def two_point_model(p: float, delta: float) -> DiscreteIIDModel:
    """Two outcomes: asset 1 pays 1 w.p. p, else asset 2 pays 1."""
    return DiscreteIIDModel(
        atoms=(((1.0, 0.0), delta), ((0.0, 1.0), delta)),
        probabilities=(p, 1.0 - p),
    )


def _two_point_payoff_config(p: float = TWO_POINT_P, delta: float = TWO_POINT_DELTA) -> dict:
    return {
        "type": "iid",
        "atoms": [
            {"payoff": [1.0, 0.0], "delta": delta, "probability": p},
            {"payoff": [0.0, 1.0], "delta": delta, "probability": 1.0 - p},
        ],
    }


_CANDIDATE = {"kind": "survival_exact"}
_HALVES = {"kind": "constant", "weights": [0.5, 0.5]}
_PERTURBED = {
    "kind": "perturbed",
    "base": {"kind": "survival_exact"},
    "schedule": {"kind": "inverse_t", "coefficient": 1.0},
    "target": [0.5, 0.5],
}


@dataclass(frozen=True)
class ScenarioInfo:
    """Catalog entry: what the scenario exercises and what to expect."""

    name: str
    exercises: str
    expected: str
    config: dict


def _catalog() -> dict:
    entries = [
        ScenarioInfo(
            name="survival-perturbed",
            exercises=(
                "survival of a strategy whose distance to the candidate "
                "vanishes like 1/t (sufficient-condition regime)"
            ),
            expected=(
                "perturbed investor keeps its minimum share above the floor "
                "in >= 95% of seeds with no downward trend"
            ),
            config={
                "name": "survival-perturbed",
                "market": {"investors": 2, "assets": 2, "initial_wealth": [1.0, 1.0]},
                "payoff_model": _two_point_payoff_config(),
                "strategies": [_PERTURBED, _HALVES],
                "horizon": 2000,
                "seeds": {"base": 0, "count": 100},
                "diagnostics": {"survival_floor": 0.05},
            },
        ),
        ScenarioInfo(
            name="closeness-divergence",
            exercises=(
                "dichotomy of the closeness integral: survival forces a "
                "finite integral, divergence marks extinction"
            ),
            expected=(
                "the constant competitor's closeness integral grows linearly "
                "(positive tail slope); the 1/t-perturbed investor's integral "
                "is Cauchy (negligible growth over the second half)"
            ),
            config={
                "name": "closeness-divergence",
                "market": {"investors": 3, "assets": 2, "initial_wealth": [1.0, 1.0, 1.0]},
                "payoff_model": _two_point_payoff_config(),
                "strategies": [_CANDIDATE, _HALVES, _PERTURBED],
                "horizon": 2000,
                "seeds": {"base": 0, "count": 20},
                "diagnostics": {"survival_floor": 0.05},
            },
        ),
        ScenarioInfo(
            name="dominance-2pt",
            exercises=(
                "dominance: the candidate's relative wealth tends to one "
                "against a competitor whose strategy stays at a fixed "
                "distance from it"
            ),
            expected=(
                "candidate investor's minimum share >= 0.05 in >= 95% of "
                "seeds and terminal share >= 0.95 in >= 80% of seeds"
            ),
            config={
                "name": "dominance-2pt",
                "market": {"investors": 2, "assets": 2, "initial_wealth": [1.0, 1.0]},
                "payoff_model": _two_point_payoff_config(),
                "strategies": [_CANDIDATE, _HALVES],
                "horizon": 2000,
                "seeds": {"base": 0, "count": 100},
                "diagnostics": {"survival_floor": 0.05},
            },
        ),
        ScenarioInfo(
            name="growth-rates",
            exercises=(
                "growth-rate optimality: a surviving investor attains the "
                "maximal asymptotic wealth growth rate in the market"
            ),
            expected=(
                "candidate investor's terminal growth rate is at least every "
                "competitor's minus 1e-3, in every seed"
            ),
            config={
                "name": "growth-rates",
                "market": {"investors": 2, "assets": 2, "initial_wealth": [1.0, 1.0]},
                "payoff_model": _two_point_payoff_config(),
                "strategies": [_CANDIDATE, _HALVES],
                "horizon": 5000,
                "seeds": {"base": 0, "count": 100},
                "diagnostics": {"survival_floor": 0.05},
            },
        ),
        ScenarioInfo(
            name="continuous-jump-equivalence",
            exercises=(
                "equivalence of the two engines on a pure-jump kernel: each "
                "jump update matches the discrete payoff-division step"
            ),
            expected=(
                "post-jump states coincide with replaying the discrete step "
                "at the jump sequence, to double precision"
            ),
            config={
                "name": "continuous-jump-equivalence",
                "market": {"investors": 2, "assets": 2, "initial_wealth": [1.0, 1.0]},
                "payoff_model": {
                    "type": "kernel",
                    "jump_atoms": [
                        {"payoff": [1.0, 0.0], "v": 0.1, "intensity": 1.0},
                        {"payoff": [0.0, 1.0], "v": 0.05, "intensity": 2.0},
                    ],
                    "drift": [0.0, 0.0],
                    "v_rate": 0.0,
                    "gamma_v": 0.2,
                },
                "strategies": [_CANDIDATE, _HALVES],
                "horizon": 5.0,
                "seeds": {"base": 0, "count": 20},
                "record": {"grid": 0.5},
                "diagnostics": {"survival_floor": 0.05},
            },
        ),
    ]
    return {e.name: e for e in entries}


CATALOG = _catalog()


def list_scenarios() -> list:
    """The built-in scenario catalog, in a stable order."""
    return list(CATALOG.values())


def get_scenario(name: str) -> ScenarioInfo:
    if name not in CATALOG:
        known = ", ".join(CATALOG)
        raise KeyError(f"unknown scenario {name!r}; available: {known}")
    return CATALOG[name]
