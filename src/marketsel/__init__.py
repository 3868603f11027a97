"""Simulation and verification engine for market-selection games.

M investors repeatedly split the payoffs of N short-lived assets in
proportion to the wealth they allocate to each.  The package constructs
the explicit survival candidate strategy (the expected discounted payoff
claim, normalized), evolves wealth under arbitrary strategy profiles in
discrete and continuous time, and numerically verifies the selection
properties: survival of near-candidate strategies, asymptotic closeness
of all survival strategies, dominance over diverging competitors, and
growth-rate optimality.
"""

from .core import (
    DomainError,
    MarketSpec,
    SimplexVector,
    Trajectory,
    make_simplex,
    validate_market,
)
from .diagnostics import (
    GrowthSeries,
    IdentityReport,
    SufficientConditionReport,
    SurvivalConditionsReport,
    SurvivalVerdict,
    check_survival_conditions,
    closeness_integral,
    gibbs_gap,
    growth_comparison,
    growth_rate,
    identity_report,
    run_summary,
    submartingale_check,
    sufficient_condition_check,
    survival_verdict,
    wilson_interval,
)
from .engine import (
    ProfileRun,
    discrete_step,
    evaluate,
    run,
    run_continuous,
    run_discrete,
)
from .payoffs import (
    DiscreteIIDModel,
    KernelSpec,
    MarkovModulatedModel,
    RngStream,
    enumerate_support,
    expected_claim_rates,
    next_jump,
)
from .scenarios import CATALOG, ScenarioInfo, get_scenario, list_scenarios
from .strategies import (
    PerturbationSchedule,
    StrategyHandle,
    constant_strategy,
    discrete_claim_vector,
    perturbed,
    survival_mc_strategy,
    survival_strategy,
    table_strategy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
