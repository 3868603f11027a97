"""Wealth-evolution engines.

Two engines share one payoff-division rule,

    Y_m' = (1 - delta) Y_m + sum_n [lam_mn Y_m / sum_k lam_kn Y_k] A_n,

which splits each asset's payoff proportionally to the wealth allocated
to it (an unclaimed asset's payoff is split equally among all investors).
Both run it through one kernel: ``_claims`` turns a stack of weights and
payoffs into per-step constants (weight columns scaled to a largest
weight of 1, the claimed payoffs, a pad on unclaimed assets and their
1/M share) and ``_divide`` applies y * (lam @ (pay / (y @ lam + pad)) +
keep) + free, with keep = 1 - delta at a payoff step and -v as the drift
rate between continuous jumps.  That order is fast but unbounded where
the invested wealth is tiny or 0, so a non-finite result is redone by
``_divide_bounded``, which forms each share (at most 1) first and splits
an asset with no invested wealth 1/M.

A strategy sees only the time, the emitting regime and the total wealth
W, and W is exogenous: W' = (1 - delta) W + |A| at a payoff step or jump
(W+ = (1 - v) W- + |x| in continuous time), and between continuous jumps
the closed form of dW = (|b| - v W) dt.  So both engines run the same
four stages, and only the investor wealth is stepped in sequence:

* environment -- the discrete engine draws each block of steps in one
  call, every uniform laid out in the order a per-step loop would consume
  them (the Monte Carlo strategies' uniforms, the payoff uniform, the
  regime transition uniform), then the payoff rows, regime path and W
  they give.  The continuous engine draws every jump up to the horizon
  first (``_jump_schedule``), each from the time of the one before, and
  merges them with the recording grid into the list of record end times,
  so the ``Trajectory`` is allocated before any wealth is stepped; W
  between jumps is the closed form on each segment's substep grid
  t0 + j h / 2;
* policy and its diagnostic rates -- ``_stage``, shared by both engines:
  the survival claim from ``_claim``, the one rule that chooses it (the
  discrete claim per emitting regime, or the kernel's claim rates plus
  the payoff drift), the candidate it normalizes to and every strategy's
  weights at a whole block or grid of decision points, one array pass per
  strategy kind (one Monte Carlo kernel per emitting regime, one table
  lookup per regime, one operation per nesting level of perturbed
  blends), then the selection-clock rate and every investor's gap and
  closeness rates on it.  Where the clock does not move the gap
  increment is 0, even for an infinite gap.  A discrete step adds the
  rates once; a continuous segment integrates them, and the ln W drift
  rate, by composite Simpson over its grid (``_drift_rates``).
  ``evaluate`` is this stage on a block of one decision point: one
  strategy's weights there;
* dynamics -- a discrete block runs ``_claims`` once, then ``_divide``
  once per step (and the block again through ``_divide_checked`` if a
  row is not finite), so each row is exactly ``discrete_step`` of the
  row before.  A continuous segment runs fixed-step classical RK4 on the
  investor wealth alone, reading the grid's weights (exact exponential
  decay without payoff drift), then ``discrete_step`` at its jump;
* running sums -- ``_record``, shared by both engines: total and
  relative wealth, and the payoff, consumption, retention, pressure, gap
  and closeness increments added (or multiplied) in record order, plus
  the support violations, over a block of steps or over all continuous
  records at once.

The discrete block length and the continuous grid chunk come from a
fixed byte budget for their temporaries, so transient memory does not
grow with the horizon.  Fixed steps keep continuous runs
bit-reproducible; the integrator does not consume randomness, so
refining the step never changes the jump sequence.  Along with the path
both engines record the increments of the process driving ln W, so the
terminal total wealth can be reconstructed through the stochastic
exponent as an independent bookkeeping check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, MarketSpec, SimplexVector, Trajectory, divergence_rows, simplex_rows
from .payoffs import KernelSpec, RngStream, _sample_arrays, expected_claim_rates, next_jump
from .strategies import Policy, block_weights, discrete_claim_vector, mc_samples, regime_groups

# Neither engine calls this per decision any more, but perfbench's tracer
# rebinds it by name in this module, so it stays importable here.
from .core import make_simplex  # noqa: F401

# Components below this are treated as zero when checking whether a
# strategy abandoned an asset the survival candidate still weights.
SUPPORT_TOL = 1e-12

# Byte budget for the temporaries of one block of discrete steps; it sets
# the block length, so transient memory does not grow with the horizon.
BLOCK_BYTES = 1 << 20

# A recording-grid point this many ulps or fewer from a jump or the
# horizon is that record, displaced by rounding, and is not emitted.
GRID_ULPS = 4


@dataclass
class ProfileRun:
    """One simulation assignment: market, strategy profile, horizon, stream.

    ``dt`` controls the inter-jump integrator step of the continuous
    engine; ``record_dt`` adds a uniform recording grid between jumps
    (jumps themselves are always recorded).
    """

    market: MarketSpec
    strategies: list
    horizon: float
    rng: RngStream
    dt: float = 0.01
    record_dt: Optional[float] = None

    def __post_init__(self):
        # The game proper needs M >= 2 (validate_market reports that), but
        # the engine also runs degenerate single-investor markets, which
        # have closed-form dynamics and serve as integration oracles.
        market = self.market
        y0 = np.asarray(market.initial_wealth, dtype=float)
        if market.num_investors < 1 or market.num_assets < 1:
            raise DomainError("market needs at least one investor and one asset")
        if y0.size != market.num_investors or not np.all(np.isfinite(y0)) or np.any(y0 <= 0):
            raise DomainError("initial wealth must be strictly positive, one value per investor")
        if market.payoff_model is None:
            raise DomainError("market needs a payoff model")
        if len(self.strategies) != self.market.num_investors:
            raise DomainError("need exactly one strategy per investor")
        if not self.horizon >= 0:
            raise DomainError("horizon must be >= 0")
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if self.record_dt is not None and not self.record_dt > 0:
            raise DomainError("record_dt must be positive")


def _claims(lam: np.ndarray, pay: np.ndarray):
    """Constants of the division rule for weights ``lam`` (..., M, N) and payoffs ``pay`` (..., N).

    Returns (scaled, claimed, pad, free).  Shares do not change when a
    weight column is scaled, so ``scaled`` has each nonzero column's
    largest weight at 1: y @ scaled then cannot underflow to 0 on an asset
    that some investor holds.  An asset with a zero weight column is
    unclaimed; its payoff splits 1/M, which ``free`` (...,) adds to every
    investor, and ``pad`` is 1 there (invested wealth 1 instead of 0: no
    0/0) while ``claimed`` drops that payoff.
    """
    top = lam.max(axis=-2)
    unclaimed = top == 0.0
    scaled = lam / np.where(unclaimed, 1.0, top)[..., None, :]
    free = (pay * unclaimed).sum(axis=-1) / lam.shape[-2]
    return scaled, np.where(unclaimed, 0.0, pay), unclaimed.astype(float), free


def _divide(y, step):
    """The division rule: y keeps ``keep`` of itself plus its shares.

    ``step`` is (scaled, claimed, pad, keep, free): one row of ``_claims``
    output and the kept fraction.  This order is the fast one, but
    pay / invested has no upper bound: it overflows once the wealth
    invested in a claimed asset falls below pay / DBL_MAX, and is 0/0
    once that wealth underflows to 0.  A non-finite result therefore
    means the step is redone by ``_divide_bounded``; a finite one is the
    rule up to rounding.
    """
    lam, pay, pad, keep, free = step
    return y * (lam @ (pay / (y @ lam + pad)) + keep) + free


def _divide_bounded(y, lam, pay, keep):
    """The division rule on scaled weights ``lam`` and the full payoffs ``pay``.

    Each share lam y / invested is formed before it meets the payoff, so
    it stays at most 1 however small the invested wealth.  An asset with
    no invested wealth -- no weight on it, or every holder's wealth
    underflowed to 0 -- splits its payoff 1/M.
    """
    invested = y @ lam
    idle = invested == 0.0
    return keep * y + (lam * y[:, None] / (invested + idle) + idle / y.size) @ pay


def _divide_checked(y, step, pay):
    """``_divide``, or ``_divide_bounded`` on the full payoffs ``pay`` if that is not finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y_next = _divide(y, step)
    if np.isfinite(y_next).all():
        return y_next
    return _divide_bounded(y, step[0], pay, step[3])


def discrete_step(y_prev, weights, payoff, delta: float) -> np.ndarray:
    """Apply one payoff-division step to the wealth vector.

    ``weights`` is the (M, N) matrix of investment proportions.  When no
    one invests in an asset its payoff splits equally (the 1/M rule).
    Wealth may be 0 for some investors (a sole holder's wealth can
    underflow there) but must have a positive total.
    """
    y = np.asarray(y_prev, dtype=float)
    lam = np.atleast_2d(np.asarray(weights, dtype=float))
    a = np.asarray(payoff, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(lam)) and np.all(np.isfinite(a))):
        raise DomainError("non-finite inputs")
    if np.any(y < 0.0) or not y.sum() > 0.0:
        raise DomainError("wealth must be non-negative with a positive total")
    if not 0.0 <= delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    if np.any(a < 0.0):
        raise DomainError("payoffs must be non-negative")
    scaled, claimed, pad, free = _claims(lam, a)
    return _divide_checked(y, (scaled, claimed, pad, 1.0 - delta, free), a)


def _alloc(n_records: int, m: int, n: int, mode: str) -> Trajectory:
    k = n_records
    return Trajectory(
        mode=mode,
        times=np.zeros(k + 1),
        wealth=np.zeros((k + 1, m)),
        total=np.zeros(k + 1),
        rel=np.zeros((k + 1, m)),
        dx=np.zeros((k, n)),
        dv=np.zeros(k),
        is_jump=np.zeros(k, dtype=bool),
        cum_x=np.zeros((k + 1, n)),
        cum_v=np.zeros(k + 1),
        retention=np.ones(k + 1),
        pressure=np.zeros(k + 1),
        gap_integral=np.zeros((k + 1, m)),
        closeness=np.zeros((k + 1, m)),
        weights=np.zeros((k, m, n)),
        candidate=np.zeros((k, n)),
        z_cont=np.zeros(k),
        z_jump=np.zeros(k),
        support_violations=np.zeros(m, dtype=int),
    )


def _block_budget(m_inv: int, n_assets: int, mc_sizes):
    """(words, fold bytes): ``_block_steps``'s per-step estimate, and the
    fold term's share of BLOCK_BYTES, which bounds each gathered chunk of
    Monte Carlo samples."""
    u = sum(mc_sizes)
    fold = 2 * max(mc_sizes, default=0) * (n_assets + 1)
    words = u + max(2 * u + fold, 4 * (m_inv + 1) * (n_assets + 1))
    return words, BLOCK_BYTES * fold // words


def _block_steps(m_inv: int, n_assets: int, mc_sizes) -> int:
    """Steps per block of ``run_discrete``: as many as fit in BLOCK_BYTES.

    The per-step estimate, in 8-byte words, covers the largest block
    temporaries alive at once: every handle's uniforms (U in all), which
    live through the block, plus the larger of two stage terms.  The
    policy stage's Monte Carlo kernel holds a regime group's copy of the
    uniforms and their atom indices (2U) and the fold's sample chunk,
    which ``mc_claim`` keeps within the fold term: two (S, N + 1) arrays
    for the largest sample count S.  The policy stage's table lookups and
    perturbed blends, the scaled weights of the division rule and the
    divergence and closeness increments each take at most four
    (M + 1, N + 1) arrays.
    """
    return max(1, BLOCK_BYTES // (8 * _block_budget(m_inv, n_assets, mc_sizes)[0]))


def _environment(model, rng, regime, w: float, steps: int, n_uniforms: int):
    """Draw ``steps`` steps of the exogenous environment, in stream order.

    One call draws every uniform of the block; row i holds step i's Monte
    Carlo uniforms, then its payoff uniform, then (Markov) its transition
    uniform, the order in which a per-step loop would draw them.  Returns
    (uniforms, emitting regimes or None, payoff rows, deltas, |payoff|,
    pre-step W) and the (regime, W) after the block; W follows the
    recursion W' = (1 - delta) W + |payoff|.
    """
    u = rng.random((steps, n_uniforms + (1 if regime is None else 2)))
    dx, dv, abs_dx, regimes, regime = _sample_arrays(model, regime, u[:, n_uniforms:])
    w_pre = []
    for d, a in zip(dv.tolist(), abs_dx.tolist()):
        w_pre.append(w)
        w = (1.0 - d) * w + a
    return (u[:, :n_uniforms], regimes, dx, dv, abs_dx, np.array(w_pre)), regime, w


def _on_clock(rate: np.ndarray, clock: np.ndarray) -> np.ndarray:
    """``rate * clock``, and 0 where the clock does not move (an infinite gap there is not NaN)."""
    return np.where(clock > 0.0, rate, 0.0) * clock


def _claim(model, groups, w):
    """The survival claim per asset (K, N) at K decision points with total wealth ``w``.

    On a discrete model it is ``discrete_claim_vector`` in each point's
    emitting regime (``groups`` is ``regime_groups`` of them); on a
    kernel, the expected jump claim rates plus the payoff drift.
    """
    if isinstance(model, KernelSpec):
        return expected_claim_rates(model, w) + model.drift
    claim = np.empty((w.size, model.num_assets))
    for r, sel in groups:
        claim[sel] = discrete_claim_vector(model, r, w[sel])
    return claim


def _stage(policy, model, t, groups, w, uniforms, lam):
    """Policy and diagnostics at K decision points.

    Point k decides at time ``t[k]`` with total wealth ``w[k]``; ``groups``
    and ``uniforms`` are as ``block_weights`` takes them.  Writes every
    strategy's weights into ``lam`` (K, M, N) and returns the survival
    candidate (K, N) and the rates (K, 2M + 1): the selection-clock rate
    |claim| / W of the survival claim (``_claim``), then per investor the
    Gibbs gap and the squared distance to the candidate, each on that
    clock.
    """
    claim = _claim(model, groups, w)
    cand = simplex_rows(claim)
    block_weights(policy, model, t, groups, w, cand, uniforms, out=lam)
    pressure = claim.sum(axis=1) / w
    rates = np.column_stack(
        (
            pressure,
            _on_clock(divergence_rows(cand, lam), pressure[:, None]),
            ((lam - cand[:, None, :]) ** 2).sum(axis=2) * pressure[:, None],
        )
    )
    return cand, rates


def evaluate(handle, env, t: float, regime, w_minus: float, rng=None) -> SimplexVector:
    """``handle``'s weights at one decision point: the policy stage on a block of one.

    ``env`` is the payoff model (discrete or Markov) or kernel the market
    runs on, ``regime`` the emitting regime (None for an i.i.d. model or a
    kernel) and ``w_minus`` the total wealth.  A Monte Carlo handle draws
    its uniforms from ``rng``, one row of ``mc_samples(handle)``.
    """
    n_samples = mc_samples(handle)
    if n_samples and rng is None:
        raise DomainError("survival_mc evaluation needs a random generator")
    t, w = np.array([t], dtype=float), np.array([w_minus], dtype=float)
    groups = regime_groups(None if regime is None else np.array([regime]))
    cand = simplex_rows(_claim(env, groups, w))
    uniforms = rng.random((1, n_samples)) if n_samples else np.empty((1, 0))
    out = np.empty((1, 1, cand.shape[1]))
    block_weights(Policy([handle]), env, t, groups, w, cand, uniforms, out)
    weights = out[0, 0]
    weights.flags.writeable = False
    return SimplexVector._trusted(weights)


def _running(acc: np.ndarray, k: int, inc: np.ndarray, op=np.add) -> None:
    """acc[k+1+i] = op(acc[k+i], inc[i]) for every i, in that order."""
    out = acc[k + 1 : k + 1 + len(inc)]
    out[...] = inc
    out[0] = op(acc[k], inc[0])
    op.accumulate(out, axis=0, out=out)


def _record(traj: Trajectory, k: int, keep, rates) -> None:
    """Complete records k + 1 .. k + K, whose wealth, payoffs, consumption,
    weights and candidate are written.

    ``keep`` (K,) holds each record's retention factor and ``rates``
    (K, >= 2M + 1) its pressure, gap and closeness increments, laid out
    as ``_stage`` returns them.
    """
    m = traj.num_investors
    k1 = k + len(keep)
    rows = slice(k + 1, k1 + 1)
    total = traj.wealth[rows].sum(axis=1)
    traj.total[rows] = total
    traj.rel[rows] = traj.wealth[rows] / total[:, None]
    _running(traj.cum_x, k, traj.dx[k:k1])
    _running(traj.cum_v, k, traj.dv[k:k1])
    _running(traj.retention, k, keep, np.multiply)
    _running(traj.pressure, k, rates[:, 0])
    _running(traj.gap_integral, k, rates[:, 1 : 1 + m])
    _running(traj.closeness, k, rates[:, 1 + m : 1 + 2 * m])
    abandoned = (traj.weights[k:k1] <= 0.0) & (traj.candidate[k:k1] > SUPPORT_TOL)[:, None, :]
    traj.support_violations += np.any(abandoned, axis=2).sum(axis=0)


def _advance(wealth, k0: int, lam, dx, dv) -> None:
    """The dynamics of a block: row k0 + 1 + i of ``wealth`` is
    ``discrete_step`` of row k0 + i with weights lam[i], payoff dx[i] and
    delta dv[i].  Its temporaries die with the call, before the next
    block's policy stage."""
    scaled, claimed, pad, free = _claims(lam, dx)
    keep, free = (1.0 - dv).tolist(), free.tolist()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i, step in enumerate(zip(scaled, claimed, pad, keep, free), k0 + 1):
            wealth[i] = _divide(wealth[i - 1], step)
    if not np.isfinite(wealth[k0 + 1 : k0 + 1 + len(dx)]).all():
        # an invested wealth was too small for the fast order somewhere
        steps = zip(zip(scaled, claimed, pad, keep, free), dx)
        for i, (step, pay) in enumerate(steps, k0 + 1):
            wealth[i] = _divide_checked(wealth[i - 1], step, pay)


def _start(n_records: int, market: MarketSpec, mode: str) -> Trajectory:
    """A trajectory of ``n_records`` records whose record 0 is the initial state."""
    traj = _alloc(n_records, market.num_investors, market.num_assets, mode)
    traj.wealth[0] = market.initial_wealth
    traj.total[0] = traj.wealth[0].sum()
    traj.rel[0] = traj.wealth[0] / traj.total[0]
    return traj


def run_discrete(run: ProfileRun) -> Trajectory:
    """Simulate the discrete-time market over an integer number of steps.

    Strategies are evaluated on start-of-step information only: the time,
    the regime that will emit this step's payoff and the pre-step total
    wealth W from its exogenous recursion.  Steps run in blocks through
    four stages: environment (draws and the W recursion), policy and its
    diagnostic rates (``_stage``), dynamics (the investor-wealth
    recursion, the only sequential stage) and the running sums
    (``_record``).
    """
    market = run.market
    model = market.payoff_model
    if isinstance(model, KernelSpec):
        raise DomainError("run_discrete needs a discrete payoff model")
    t_end = int(run.horizon)
    if t_end != run.horizon:
        raise DomainError("discrete horizon must be an integer number of steps")
    m_inv, n_assets = market.num_investors, market.num_assets
    if model.num_assets != n_assets:
        raise DomainError("payoff model and market disagree on the number of assets")
    rng = run.rng.generator()
    regime = getattr(model, "initial_state", None)
    mc_sizes = [mc_samples(h) for h in run.strategies]
    n_uniforms = sum(mc_sizes)
    block = _block_steps(m_inv, n_assets, mc_sizes)
    policy = Policy(run.strategies, _block_budget(m_inv, n_assets, mc_sizes)[1])

    traj = _start(t_end, market, "discrete")
    traj.is_jump[:] = True
    w = float(traj.total[0])

    for k0 in range(0, t_end, block):
        k1 = min(k0 + block, t_end)
        t = np.arange(k0 + 1, k1 + 1, dtype=float)

        # environment
        (uniforms, regimes, dx, dv, abs_dx, w_pre), regime, w = _environment(
            model, rng, regime, w, k1 - k0, n_uniforms
        )
        traj.times[k0 + 1 : k1 + 1] = t
        traj.dx[k0:k1] = dx
        traj.dv[k0:k1] = dv
        # Step from the recorded rows themselves, so that every wealth row
        # is discrete_step of the recorded row, weights, payoff and delta.
        dx, dv = traj.dx[k0:k1], traj.dv[k0:k1]
        traj.z_jump[k0:k1] = abs_dx / w_pre - dv

        # policy and its diagnostic rates
        lam = traj.weights[k0:k1]
        cand, rates = _stage(policy, model, t, regime_groups(regimes), w_pre, uniforms, lam)
        traj.candidate[k0:k1] = cand

        # dynamics
        _advance(traj.wealth, k0, lam, dx, dv)

        # running sums
        _record(traj, k0, 1.0 - dv, rates)
    return traj


def _total_wealth(kernel: KernelSpec, w0, s):
    """Total wealth a jump-free time ``s`` after it was ``w0``.

    Every asset's shares sum to one, so the payoff drift pays |b| in total
    whatever the strategies, and W solves dW = (|b| - v W) dt.
    """
    v = kernel.v_rate
    b = float(kernel.drift.sum())
    if v == 0.0:
        return w0 + b * s
    return w0 * np.exp(-v * s) - b * np.expm1(-v * s) / v


def _chunk_substeps(m_inv: int, n_assets: int, n_atoms: int) -> int:
    """Substeps per chunk of a jump-free segment: as many as fit in BLOCK_BYTES.

    Each substep adds two grid points.  The per-point estimate covers the
    weights and the divergence temporaries, four (M, N) arrays, and the
    per-atom claim terms.
    """
    per_point = 8 * (4 * (m_inv + 1) * (n_assets + 1) + n_atoms * (n_assets + 1))
    return max(1, BLOCK_BYTES // (2 * per_point))


def _drift_rates(kernel, policy, t, w):
    """Policy and diagnostic rates at times ``t`` with total wealth ``w``.

    ``t`` and ``w`` are vectors of K points.  Returns the weights lam
    (K, M, N), the survival candidate (K, N) and the rates (K, 2M + 2):
    ``_stage``'s selection-clock, gap and closeness rates, then the ln W
    drift rate.
    """
    lam = np.empty((t.size, policy.size, kernel.num_assets))
    cand, rates = _stage(policy, kernel, t, regime_groups(None), w, np.empty((t.size, 0)), lam)
    return lam, cand, np.column_stack((rates, float(kernel.drift.sum()) / w - kernel.v_rate))


def _rk4(y, lam, b, v_rate: float, h: float, t0: float):
    """Classical RK4 for dy/dt = shares(y) @ b - v y over len(lam) // 2 substeps.

    Substep i starts at t0 + i h; its stages read the weights at grid
    points 2i, 2i+1, 2i+1 and 2i+2.  The rate is the division rule with
    the drift b as payoff and -v as the kept fraction.
    """
    scaled, claimed, pad, free = _claims(lam, b)
    points = list(zip(scaled, claimed, pad, [-v_rate] * len(free), free))

    def bounded(y, step):
        return _divide_bounded(y, step[0], b, step[3])

    half = 0.5 * h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(len(points) // 2):
            left, mid, right = points[2 * i], points[2 * i + 1], points[2 * i + 2]
            # the bounded rates redo a substep on which the fast order
            # overflowed on a tiny invested wealth
            for rate in (_divide, bounded):
                k1 = rate(y, left)
                k2 = rate(y + half * k1, mid)
                k3 = rate(y + half * k2, mid)
                k4 = rate(y + h * k3, right)
                y_next = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # discrete_step's wealth rule: non-negative and finite,
                # with a positive total (NaN fails every comparison)
                if 0.0 <= y_next.min() and 0.0 < y_next.max() < math.inf:
                    break
            else:
                raise DomainError(f"integrator produced an invalid state near t={t0 + (i + 1) * h}")
            y = y_next
    return y


def _integrate_segment(kernel, policy, t0, t1, y, w0, dt):
    """Advance the investor wealth over a jump-free interval [t0, t1].

    The interval splits into n = ceil((t1 - t0) / dt) substeps of length h.
    Total wealth is the closed form from ``w0``, so the candidate, every
    strategy and every diagnostic rate are functions of time alone: they
    are evaluated on the grid t0 + j h / 2, j = 0..2n, in chunks of at most
    BLOCK_BYTES, and the rates are integrated by composite Simpson over it
    (RK4's rate weights, since the rates do not depend on y).  Without
    payoff drift y decays by the exact exponential factor; with drift, RK4
    steps y alone on the grid's weights.

    Returns (y1, acc, lam0, cand0): acc stacks the integrated rates, and
    lam0/cand0 are the weights and candidate at t0.
    """
    span = t1 - t0
    if span <= 0.0:
        lam, cand, _ = _drift_rates(kernel, policy, np.array([t0]), np.array([w0]))
        return y.copy(), np.zeros(2 * y.size + 2), lam[0], cand[0]
    n_steps = max(1, int(math.ceil(span / dt)))
    h = span / n_steps
    has_drift = float(kernel.drift.sum()) > 0.0
    chunk = _chunk_substeps(y.size, kernel.num_assets, kernel._rhos.size)
    acc = np.zeros(2 * y.size + 2)
    for i0 in range(0, n_steps, chunk):
        i1 = min(i0 + chunk, n_steps)
        s = np.arange(2 * i0, 2 * i1 + 1) * (0.5 * h)
        lam, cand, rates = _drift_rates(kernel, policy, t0 + s, _total_wealth(kernel, w0, s))
        if i0 == 0:
            lam0, cand0 = lam[0].copy(), cand[0].copy()
        simpson = np.full(s.size, 2.0)
        simpson[1::2] = 4.0
        simpson[[0, -1]] = 1.0
        acc += (h / 6.0) * (simpson @ rates)
        if has_drift:
            y = _rk4(y, lam, kernel.drift, kernel.v_rate, h, t0 + i0 * h)
    if not has_drift:
        y = y * math.exp(-kernel.v_rate * span)
    return y, acc, lam0, cand0


def _jump_schedule(kernel, rng, horizon: float, grid):
    """The continuous engine's environment: (end time, jump or None) per record.

    Jumps come from ``next_jump``, each drawn from the time of the one
    before; a record ends at every jump, at grid point k * ``grid`` and at
    the horizon.  A grid point within GRID_ULPS ulps of a jump or of the
    horizon is that record, displaced by rounding, and is not emitted.
    """
    events = []
    t, k_grid = 0.0, 1
    pending = next_jump(kernel, rng, t)
    while t < horizon:
        t_jump = pending[0] if pending is not None else math.inf
        t_stop = min(t_jump, horizon)
        if grid is not None:
            while (g := k_grid * grid) < t_stop - GRID_ULPS * math.ulp(t_stop):
                if g > t + GRID_ULPS * math.ulp(t):
                    events.append((g, None))
                k_grid += 1
        if t_jump > horizon:
            events.append((horizon, None))
            break
        events.append(pending)
        t = t_jump
        pending = next_jump(kernel, rng, t)
    return events


def run_continuous(run: ProfileRun) -> Trajectory:
    """Simulate the continuous-time market up to the horizon.

    The environment comes first: every jump and record time up to the
    horizon (``_jump_schedule``), which fixes the number of records.
    Record k then integrates the jump-free segment up to its end time
    (``_integrate_segment``) and, at a jump, applies the payoff-division
    update with the jump's (x, v) at the pre-jump state.  Total wealth W
    follows its closed form between jumps and W+ = (1 - v) W- + |x| at a
    jump; strategies read that W.  The running sums are added once, over
    all records (``_record``).
    """
    market = run.market
    kernel = market.payoff_model
    if not isinstance(kernel, KernelSpec):
        raise DomainError("run_continuous needs a kernel payoff model")
    if kernel.num_assets != market.num_assets:
        raise DomainError("kernel and market disagree on the number of assets")
    events = _jump_schedule(kernel, run.rng.generator(), float(run.horizon), run.record_dt)
    policy = Policy(run.strategies)
    b = kernel.drift
    v_rate = kernel.v_rate

    traj = _start(len(events), market, "continuous")
    acc = np.empty((len(events), 2 * market.num_investors + 2))
    keep = np.empty(len(events))
    t, y, w = 0.0, market.initial_wealth.copy(), float(traj.total[0])
    for k, (t_to, jump) in enumerate(events):
        span = t_to - t
        y, acc[k], lam, cand = _integrate_segment(kernel, policy, t, t_to, y, w, run.dt)
        w = _total_wealth(kernel, w, span)
        traj.dx[k] = b * span
        traj.dv[k] = v_rate * span
        keep[k] = math.exp(-v_rate * span)
        if jump is not None:
            x, v = jump
            lam, cand, _ = _drift_rates(kernel, policy, np.array([t_to]), np.array([w]))
            lam, cand = lam[0], cand[0]
            y = discrete_step(y, lam, x, v)
            size = float(x.sum())
            traj.z_jump[k] = size / w - v
            w = (1.0 - v) * w + size
            traj.dx[k] += x
            traj.dv[k] += v
            keep[k] *= 1.0 - v
            traj.is_jump[k] = True
        traj.times[k + 1], traj.wealth[k + 1] = t_to, y
        traj.weights[k], traj.candidate[k] = lam, cand
        t = t_to
    traj.z_cont[...] = acc[:, -1]
    if events:
        _record(traj, 0, keep, acc)
    return traj


def run(profile: ProfileRun) -> Trajectory:
    """Dispatch to the engine matching the market's payoff model."""
    if isinstance(profile.market.payoff_model, KernelSpec):
        return run_continuous(profile)
    return run_discrete(profile)
