"""Numerical verification of the selection properties of strategies.

The quantities computed here mirror the objects used to prove survival,
closeness, dominance and growth-rate optimality:

* ``gibbs_gap`` -- the divergence of the survival candidate from another
  weight vector; non-negative, and at least a quarter of the squared
  Euclidean distance between them.
* the selection-pressure clock (integral of |claim + drift| / W against
  operational time) and the per-investor integrals against it: the
  Gibbs-gap integral and the closeness integral.
* ``submartingale_check`` -- the exact one-step drift of the compensated
  log relative wealth, by full enumeration of a finite-support model.
  Played by the survival candidate (or any strategy with a finite gap
  integral) this drift is non-negative; this is the enumeration oracle
  behind the survival claim.
* finite-horizon proxies for the survival verdict and the sufficient
  conditions, clearly labelled as proxies: an infinite-time infimum is
  not observable, so verdicts combine a floor on the recorded minimum
  with a no-downward-trend test on the last decile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, SUM_ATOL, Trajectory, as_vector, divergence_rows, make_simplex
from .engine import discrete_step
from .payoffs import enumerate_support
from .strategies import discrete_claim_vector


def gibbs_gap(alpha, beta):
    """Divergence sum_n alpha_n (ln alpha_n - ln beta_n) of simplex vectors.

    Terms with alpha_n = 0 are dropped; a zero component of ``beta`` that
    ``alpha`` weights makes the gap +inf.  Accepts stacked rows (..., N)
    and broadcasts; the result is always >= ||alpha - beta||^2 / 4 and is
    zero iff the inputs coincide.
    """
    a, b = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    for name, arr in (("alpha", a), ("beta", b)):
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be a non-negative finite array")
        if np.any(np.abs(arr.sum(axis=-1) - 1.0) > SUM_ATOL):
            raise DomainError(f"{name} rows must sum to 1")
    n = a.shape[-1]
    out = divergence_rows(a.reshape(-1, n), b.reshape(-1, 1, n)).reshape(a.shape[:-1])
    return float(out) if out.ndim == 0 else out


def submartingale_check(model, weights, y_prev, tracked: int, regime=None) -> float:
    """Exact one-step drift of ln r + gap * pressure for one investor.

    Enumerates every support atom of the model, applies the payoff
    division to each, and returns

        E[ln r'_tracked] - ln r_tracked + gap(candidate, weights_tracked) * dH.

    The drift is non-negative whenever the tracked investor's strategy
    keeps a finite gap to the survival candidate (in particular when it
    plays the candidate itself, where the gap term vanishes).  Only
    finite-support models are accepted.
    """
    y = as_vector(y_prev, "y_prev")
    if np.any(y <= 0.0):
        raise DomainError("wealth must be strictly positive")
    lam = np.atleast_2d(np.asarray(weights, dtype=float))
    if lam.shape[0] != y.size:
        raise DomainError("need one weight vector per investor")
    support = enumerate_support(model, regime)
    w = float(y.sum())
    claim = discrete_claim_vector(model, regime, w)
    cand = make_simplex(claim)
    d_pressure = float(claim.sum()) / w
    gap = gibbs_gap(cand, lam[tracked])
    expected_log_rel = 0.0
    for prob, payoff, delta in support:
        y_next = discrete_step(y, lam, payoff, delta)
        expected_log_rel += prob * math.log(y_next[tracked] / y_next.sum())
    drift = expected_log_rel - math.log(y[tracked] / w)
    return float(drift + gap * d_pressure)


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    if not np.all(np.isfinite(y)):
        return math.inf
    xc = x - x.mean()
    denom = float((xc**2).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * (y - y.mean())).sum() / denom)


def _tail(n: int, fraction: float) -> slice:
    start = min(n - 1, int(math.floor(n * (1.0 - fraction))))
    return slice(start, n)


@dataclass(frozen=True)
class SurvivalVerdict:
    """Finite-horizon survival proxy for one investor.

    ``survives`` means the recorded minimum share stayed positive and at
    or above the configured floor AND the log share shows no downward
    trend over the last decile of the run.  This is a proxy: the defining
    property is an infimum over all time, which no finite run can observe.
    """

    investor: int
    floor: float
    min_rel: float
    terminal_rel: float
    tail_slope: float
    trend_tol: float
    survives: bool


def survival_verdict(
    traj: Trajectory, investor: int, floor: float, trend_tol: float = 1e-4
) -> SurvivalVerdict:
    """Proxy survival verdict from a completed trajectory."""
    rel = traj.rel[:, investor]
    tail = _tail(rel.size, 0.1)
    with np.errstate(divide="ignore"):  # a share that underflowed to 0 has log -inf
        log_rel = np.log(rel[tail])
    slope = _ls_slope(traj.times[tail], log_rel)
    min_rel = float(rel.min())
    return SurvivalVerdict(
        investor=investor,
        floor=float(floor),
        min_rel=min_rel,
        terminal_rel=float(rel[-1]),
        tail_slope=slope,
        trend_tol=float(trend_tol),
        survives=bool(min_rel >= floor and min_rel > 0.0 and slope >= -trend_tol),
    )


@dataclass(frozen=True)
class GrowthSeries:
    """Running growth rate ln(Y_t) / t of one investor's wealth."""

    investor: int
    times: np.ndarray
    rates: np.ndarray
    terminal: float


def growth_rate(traj: Trajectory, investor: int) -> GrowthSeries:
    """Running and terminal wealth growth rates for one investor."""
    mask = traj.times > 0.0
    if not np.any(mask):
        raise DomainError("growth rates need at least one record at t > 0")
    t = traj.times[mask]
    with np.errstate(divide="ignore"):  # a wealth that underflowed to 0 has log -inf
        rates = np.log(traj.wealth[mask, investor]) / t
    return GrowthSeries(
        investor=investor, times=t, rates=rates, terminal=float(rates[-1])
    )


def growth_comparison(traj: Trajectory) -> dict:
    """Terminal growth rates of all investors and the index of the leader."""
    rates = [growth_rate(traj, m).terminal for m in range(traj.num_investors)]
    return {"terminal_rates": rates, "leader": int(np.argmax(rates))}


@dataclass(frozen=True)
class SurvivalConditionsReport:
    """Finite-horizon proxies for the three survival sufficient conditions.

    (a) the strategy never abandons an asset the candidate weights;
    (b) the Gibbs-gap integral is finite with a vanishing tail slope;
    (c) the gap-integral increments at its integer level crossings stay
        bounded (level crossings at integers dominate the family of
        first-passage times used in the convergence argument).
    """

    investor: int
    support_violations: int
    gap_total: float
    tail_slope: float
    max_crossing_increment: float
    condition_a: bool
    condition_b: bool
    condition_c: bool


def check_survival_conditions(
    traj: Trajectory, investor: int, slope_tol: float = 1e-4
) -> SurvivalConditionsReport:
    """Evaluate the survival sufficient conditions on a recorded path."""
    uh = traj.gap_integral[:, investor]
    total = float(uh[-1])
    finite = math.isfinite(total)
    tail = _tail(uh.size, 0.1)
    slope = _ls_slope(traj.times[tail], uh[tail]) if finite else math.inf
    # Step k crosses integer levels when the floor of the running maximum
    # of uh[1..k] (at least 0) rises there; its increment then counts.
    # NaN records cross nothing and an undefined increment is skipped.
    with np.errstate(invalid="ignore"):
        levels = np.fmax(np.floor(np.fmax.accumulate(uh[1:])), 0.0)
        crossed = np.diff(levels, prepend=0.0) > 0.0
        max_increment = float(np.fmax.reduce(np.diff(uh)[crossed], initial=0.0))
    violations = int(traj.support_violations[investor])
    return SurvivalConditionsReport(
        investor=investor,
        support_violations=violations,
        gap_total=total,
        tail_slope=slope,
        max_crossing_increment=max_increment,
        condition_a=violations == 0,
        condition_b=finite and slope <= slope_tol,
        condition_c=math.isfinite(max_increment),
    )


@dataclass(frozen=True)
class SufficientConditionReport:
    """Check of the interior-strategy bound: with both the strategy and the
    candidate bounded away from zero, the gap integral is at most a fixed
    multiple of the closeness integral."""

    investor: int
    strategy_floor: float
    candidate_floor: float
    coefficient: float
    gap_total: float
    closeness_total: float
    applicable: bool
    bound_holds: bool


def sufficient_condition_check(traj: Trajectory, investor: int) -> SufficientConditionReport:
    """Verify gap_total <= ln(xi) / ((xi - 1) * xi_hat) * closeness_total.

    xi and xi_hat are the floors of the investor's weights and of the
    candidate over the recorded path; a path of no records has floors 0.
    """
    xi, xi_hat = 0.0, 0.0
    if traj.n_records:
        xi, xi_hat = float(traj.weight_floor[investor]), traj.candidate_floor
    gap_total = float(traj.gap_integral[-1, investor])
    closeness_total = float(traj.closeness[-1, investor])
    applicable = xi > 0.0 and xi_hat > 0.0
    if not applicable:
        return SufficientConditionReport(
            investor, xi, xi_hat, math.nan, gap_total, closeness_total, False, False
        )
    if abs(xi - 1.0) < 1e-12:
        ratio = 1.0
    else:
        ratio = math.log(xi) / (xi - 1.0)
    coefficient = ratio / xi_hat
    bound = coefficient * closeness_total
    holds = gap_total <= bound + 1e-12 + 1e-9 * abs(bound)
    return SufficientConditionReport(
        investor, xi, xi_hat, coefficient, gap_total, closeness_total, True, holds
    )


@dataclass(frozen=True)
class IdentityReport:
    """Path-level bookkeeping identities of one run.

    ``total_wealth_max_rel_err``: worst per-step error of the total-wealth
    recursion W' = (1 - dv) W + |dx| (discrete runs only, nan otherwise).
    ``lower_bound_margin``/``upper_bound_margin``: most negative relative
    slack of the wealth envelope Y0 * retention <= Y <= Y0 + |X|.
    ``exponent_rel_err``: relative mismatch between the recorded terminal
    total wealth and its reconstruction through the stochastic exponent.
    """

    total_wealth_max_rel_err: float
    lower_bound_margin: float
    upper_bound_margin: float
    exponent_rel_err: float


def identity_report(traj: Trajectory) -> IdentityReport:
    if traj.n_records == 0:
        return IdentityReport(0.0, 0.0, 0.0, 0.0)
    if traj.mode == "discrete":
        predicted = (1.0 - traj.dv) * traj.total[:-1] + traj.dx.sum(axis=1)
        w_err = float(np.max(np.abs(predicted - traj.total[1:]) / traj.total[1:]))
    else:
        w_err = math.nan
    y0 = traj.wealth[0]
    lower = y0[None, :] * traj.retention[:, None]
    upper = y0[None, :] + traj.cum_x.sum(axis=1)[:, None]
    # A retention floor that underflowed to zero constrains nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lower_slack = np.where(lower > 0.0, (traj.wealth - lower) / np.abs(lower), np.inf)
    lower_margin = float(np.min(lower_slack))
    upper_margin = float(np.min((upper - traj.wealth) / np.abs(upper)))
    if np.any(traj.z_jump <= -1.0):
        raise DomainError("jump increments must be > -1")
    # exp(Z_c) * prod(1 + dZ_s), multiplied in record order; math.exp, not
    # np.exp, whose last ulp differs on some inputs
    factors = np.empty(2 * traj.n_records)
    factors[0::2] = [math.exp(z) for z in traj.z_cont.tolist()]
    factors[1::2] = 1.0 + traj.z_jump
    reconstructed = traj.total[0] * np.multiply.accumulate(factors)[-1]
    exp_err = float(abs(reconstructed - traj.total[-1]) / traj.total[-1])
    return IdentityReport(
        total_wealth_max_rel_err=w_err,
        lower_bound_margin=lower_margin,
        upper_bound_margin=upper_margin,
        exponent_rel_err=exp_err,
    )


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise DomainError("n must be positive")
    p = successes / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_summary(traj: Trajectory, floor: float = 0.05, trend_tol: float = 1e-4) -> dict:
    """Per-run summary consumed by the batch reporter.

    Includes, per investor: the survival proxy, terminal growth rate, the
    gap and closeness integrals with their tail behaviour, and the number
    of support violations; plus the run-level bookkeeping identities.
    """
    ident = identity_report(traj)
    n = traj.times.size
    half = n // 2
    investors = []
    for m in range(traj.num_investors):
        verdict = survival_verdict(traj, m, floor, trend_tol)
        growth = growth_rate(traj, m) if traj.times[-1] > 0 else None
        closeness = traj.closeness[:, m]
        investors.append(
            {
                "min_rel": verdict.min_rel,
                "terminal_rel": verdict.terminal_rel,
                "tail_slope": verdict.tail_slope,
                "survives": verdict.survives,
                "growth_terminal": growth.terminal if growth else math.nan,
                "gap_total": float(traj.gap_integral[-1, m]),
                "closeness_total": float(closeness[-1]),
                "closeness_increase_last_half": float(closeness[-1] - closeness[half]),
                "closeness_tail_slope": _ls_slope(traj.times[half:], closeness[half:]),
                "support_violations": int(traj.support_violations[m]),
            }
        )
    return {
        "horizon": float(traj.times[-1]),
        "records": int(traj.n_records),
        "investors": investors,
        "identities": {
            "total_wealth_max_rel_err": ident.total_wealth_max_rel_err,
            "lower_bound_margin": ident.lower_bound_margin,
            "upper_bound_margin": ident.upper_bound_margin,
            "exponent_rel_err": ident.exponent_rel_err,
        },
    }
