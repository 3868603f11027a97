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
W, and W follows the exogenous recursion W' = (1 - delta) W + |A|.  So
the discrete engine reads W from that recursion, never from the investor
wealth, and runs blocks of steps through four stages:

* environment -- every uniform of the block in one draw, laid out in the
  order a per-step loop would consume them (the Monte Carlo strategies'
  uniforms, the payoff uniform, the regime transition uniform), the
  payoff rows and regime path they select, and the W recursion;
* policy -- the survival candidate and every strategy's weights for the
  whole block, as array operations grouped by strategy kind;
* dynamics -- the investor-wealth recursion, the only sequential stage:
  ``_claims`` once per block, then ``_divide`` once per step (and the
  block again through ``_divide_checked`` if a row is not finite), so
  each row is exactly ``discrete_step`` of the row before;
* diagnostics -- the selection-pressure clock, gap and closeness
  integrals, running payoff and consumption sums, retention and support
  violations, by running sums that add in per-step order.  Where the
  clock does not move the gap increment is 0, even for an infinite gap.

The block length comes from a fixed byte budget for the block's
temporaries, so transient memory does not grow with the horizon.

The continuous engine is event-driven: jump times come from the kernel's
total intensity and the same division rule applies at each jump.  Between
jumps total wealth solves dW = (|b| - v W) dt in closed form, and at a
jump W+ = (1 - v) W- + |x|, so it runs each jump-free segment through the
same four stages:

* environment -- W at every point of the substep grid t0 + j h / 2;
* policy -- the survival candidate and every strategy on that grid, as
  array operations, in chunks of at most BLOCK_BYTES of temporaries;
* dynamics -- fixed-step classical RK4 on the investor wealth alone,
  reading the grid's weights (exact exponential decay when there is no
  payoff drift);
* diagnostics -- the selection-clock, gap, closeness and ln W rates
  integrated by composite Simpson over the grid.

Fixed steps keep runs bit-reproducible; the integrator does not consume
randomness, so refining the step never changes the jump sequence.

Both engines record through the same running sums: each record's
increments are added, or multiplied, in record order into a
``Trajectory`` allocated once -- per block in the discrete engine, and in
one pass over the list of segments (one per grid point, jump or the
horizon) in the continuous one.  Along with the path they record the
increments of the process driving ln W, so the terminal total wealth can
be reconstructed through the stochastic exponent as an independent
bookkeeping check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, MarketSpec, Trajectory, divergence_rows, simplex_rows
from .payoffs import KernelSpec, RngStream, _sample_arrays, expected_claim_rates, next_jump
from .strategies import block_weights, discrete_claim_vector, mc_samples, regime_groups

# Neither engine calls these per decision any more, but perfbench's tracer
# rebinds them by name in this module, so they stay importable here.
from .core import make_simplex  # noqa: F401
from .strategies import evaluate  # noqa: F401

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
    track_diagnostics: bool = True

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


def _block_steps(m_inv: int, n_assets: int, mc_sizes) -> int:
    """Steps per block of ``run_discrete``: as many as fit in BLOCK_BYTES.

    The per-step estimate covers the largest block temporaries alive at
    once: three (M, N) arrays of the divergence and closeness increments,
    the scaled weights of the division rule, the largest Monte Carlo
    handle's two (S, N) claim arrays and every handle's uniforms.
    """
    s_max = max(mc_sizes, default=0)
    per_step = 8 * (4 * (m_inv + 1) * (n_assets + 1) + 2 * s_max * (n_assets + 1) + sum(mc_sizes))
    return max(1, BLOCK_BYTES // per_step)


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


def _running(acc: np.ndarray, k: int, inc: np.ndarray, op=np.add) -> None:
    """acc[k+1+i] = op(acc[k+i], inc[i]) for every i, in that order."""
    out = acc[k + 1 : k + 1 + len(inc)]
    out[...] = inc
    out[0] = op(acc[k], inc[0])
    op.accumulate(out, axis=0, out=out)


def _support_violations(lam: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Per investor, the records (K, M, N) ``lam`` leave an asset that ``cand`` (K, N) weights."""
    return np.any((lam <= 0.0) & (cand > SUPPORT_TOL)[:, None, :], axis=2).sum(axis=0)


def run_discrete(run: ProfileRun) -> Trajectory:
    """Simulate the discrete-time market over an integer number of steps.

    Strategies are evaluated on start-of-step information only: the time,
    the regime that will emit this step's payoff and the pre-step total
    wealth W from its exogenous recursion.  Steps run in blocks through
    four stages: environment (draws and the W recursion), policy (the
    survival candidate and every strategy, as array operations), dynamics
    (the investor-wealth recursion, the only sequential stage) and
    diagnostics (selection pressure, gap and closeness integrals, support
    violations, running sums).
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
    handles = run.strategies
    mc_sizes = [mc_samples(h) for h in handles]
    n_uniforms = sum(mc_sizes)
    block = _block_steps(m_inv, n_assets, mc_sizes)

    traj = _alloc(t_end, m_inv, n_assets, "discrete")
    traj.wealth[0] = market.initial_wealth
    w = float(traj.wealth[0].sum())
    traj.total[0] = w
    traj.rel[0] = traj.wealth[0] / w
    traj.is_jump[:] = True
    wealth = traj.wealth

    for k0 in range(0, t_end, block):
        k1 = min(k0 + block, t_end)
        rows = slice(k0 + 1, k1 + 1)
        t = np.arange(k0 + 1, k1 + 1, dtype=float)

        # environment
        (uniforms, regimes, dx, dv, abs_dx, w_pre), regime, w = _environment(
            model, rng, regime, w, k1 - k0, n_uniforms
        )
        traj.times[rows] = t
        traj.dx[k0:k1] = dx
        traj.dv[k0:k1] = dv
        # Step from the recorded rows themselves, so that every wealth row
        # is discrete_step of the recorded row, weights, payoff and delta.
        dx, dv = traj.dx[k0:k1], traj.dv[k0:k1]

        # policy
        claim = np.empty((k1 - k0, n_assets))
        for r, sel in regime_groups(regimes):
            claim[sel] = discrete_claim_vector(model, r, w_pre[sel])
        cand = traj.candidate[k0:k1]
        cand[...] = simplex_rows(claim)
        lam = traj.weights[k0:k1]
        block_weights(handles, model, t, regimes, w_pre, cand, uniforms, out=lam)

        # dynamics
        scaled, claimed, pad, free = _claims(lam, dx)
        keep, free = (1.0 - dv).tolist(), free.tolist()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for i, step in enumerate(zip(scaled, claimed, pad, keep, free), k0 + 1):
                wealth[i] = _divide(wealth[i - 1], step)
        if not np.isfinite(wealth[rows]).all():
            # an invested wealth was too small for the fast order somewhere
            steps = zip(zip(scaled, claimed, pad, keep, free), dx)
            for i, (step, pay) in enumerate(steps, k0 + 1):
                wealth[i] = _divide_checked(wealth[i - 1], step, pay)

        # diagnostics
        total = wealth[rows].sum(axis=1)
        traj.total[rows] = total
        traj.rel[rows] = wealth[rows] / total[:, None]
        traj.z_jump[k0:k1] = abs_dx / w_pre - dv
        _running(traj.cum_x, k0, dx)
        _running(traj.cum_v, k0, dv)
        _running(traj.retention, k0, 1.0 - dv, np.multiply)
        d_pressure = claim.sum(axis=1) / w_pre
        _running(traj.pressure, k0, d_pressure)
        if run.track_diagnostics:
            gaps = divergence_rows(cand, lam)
            _running(traj.gap_integral, k0, _on_clock(gaps, d_pressure[:, None]))
            close = ((lam - cand[:, None, :]) ** 2).sum(axis=2)
            _running(traj.closeness, k0, close * d_pressure[:, None])
            traj.support_violations += _support_violations(lam, cand)
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


def _drift_rates(kernel, handles, t, w):
    """Policy and diagnostic rates at times ``t`` with total wealth ``w``.

    ``t`` and ``w`` are vectors of K points.  Returns the weights lam
    (K, M, N), the survival candidate (K, N) and the rates (K, 2M + 2):
    the selection-clock rate, per-investor gap and closeness rates, and
    the ln W drift rate.
    """
    b = kernel.drift
    claim = expected_claim_rates(kernel, w) + b  # jump claims plus payoff drift
    cand = simplex_rows(claim)
    lam = np.empty((t.size, len(handles), b.size))
    block_weights(handles, kernel, t, None, w, cand, np.empty((t.size, 0)), out=lam)
    pressure = claim.sum(axis=1) / w
    rates = np.column_stack(
        (
            pressure,
            _on_clock(divergence_rows(cand, lam), pressure[:, None]),
            ((lam - cand[:, None, :]) ** 2).sum(axis=2) * pressure[:, None],
            float(b.sum()) / w - kernel.v_rate,
        )
    )
    return lam, cand, rates


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
                if 0.0 < y_next.min() <= y_next.max() < math.inf:
                    break
            else:
                raise DomainError(f"integrator produced an invalid state near t={t0 + (i + 1) * h}")
            y = y_next
    return y


def _integrate_segment(kernel, handles, t0, t1, y, w0, dt):
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
        lam, cand, _ = _drift_rates(kernel, handles, np.array([t0]), np.array([w0]))
        return y.copy(), np.zeros(2 * y.size + 2), lam[0], cand[0]
    n_steps = max(1, int(math.ceil(span / dt)))
    h = span / n_steps
    has_drift = float(kernel.drift.sum()) > 0.0
    chunk = _chunk_substeps(y.size, kernel.num_assets, kernel._rhos.size)
    acc = np.zeros(2 * y.size + 2)
    for i0 in range(0, n_steps, chunk):
        i1 = min(i0 + chunk, n_steps)
        s = np.arange(2 * i0, 2 * i1 + 1) * (0.5 * h)
        lam, cand, rates = _drift_rates(kernel, handles, t0 + s, _total_wealth(kernel, w0, s))
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


def run_continuous(run: ProfileRun) -> Trajectory:
    """Simulate the continuous-time market up to the horizon.

    Event-driven loop: draw the next kernel jump, integrate the inter-jump
    dynamics (recording at the uniform grid if one is configured), then
    apply the payoff-division update with the jump's (x, v) at the
    pre-jump state.  Total wealth W follows its closed form between jumps
    and W+ = (1 - v) W- + |x| at a jump; strategies read that W.  Records
    always include every jump and the horizon; grid point k is k *
    record_dt, and one within GRID_ULPS ulps of a jump or the horizon
    merges into it.
    """
    market = run.market
    kernel = market.payoff_model
    if not isinstance(kernel, KernelSpec):
        raise DomainError("run_continuous needs a kernel payoff model")
    if kernel.num_assets != market.num_assets:
        raise DomainError("kernel and market disagree on the number of assets")
    horizon = float(run.horizon)
    rng = run.rng.generator()
    handles = run.strategies
    b = kernel.drift
    v_rate = kernel.v_rate

    segments = []
    t = 0.0
    y = market.initial_wealth.copy()
    w = float(y.sum())
    grid, k_grid = run.record_dt, 1
    pending = next_jump(kernel, rng, t)

    def segment(t_to, jump=None):
        nonlocal t, y, w
        span = t_to - t
        y1, acc, lam, cand = _integrate_segment(kernel, handles, t, t_to, y, w, run.dt)
        w1 = _total_wealth(kernel, w, span)
        dx = b * span
        dv = v_rate * span
        zj = 0.0
        retention_factor = math.exp(-v_rate * span)
        if jump is not None:
            x, v = jump
            lam, cand, _ = _drift_rates(kernel, handles, np.array([t_to]), np.array([w1]))
            lam, cand = lam[0], cand[0]
            y1 = discrete_step(y1, lam, x, v)
            size = float(x.sum())
            zj = size / w1 - v
            w1 = (1.0 - v) * w1 + size
            dx = dx + x
            dv = dv + v
            retention_factor *= 1.0 - v
        segments.append((t_to, y1, dx, dv, jump is not None, acc, zj, lam, cand, retention_factor))
        t, y, w = t_to, y1, w1

    while t < horizon:
        t_jump = pending[0] if pending is not None else math.inf
        t_stop = min(t_jump, horizon)
        if grid is not None:
            while (g := k_grid * grid) < t_stop - GRID_ULPS * math.ulp(t_stop):
                if g > t + GRID_ULPS * math.ulp(t):
                    segment(g)
                k_grid += 1
        if t_jump <= horizon:
            segment(t_jump, pending[1])
            pending = next_jump(kernel, rng, t)
        else:
            if horizon > t:
                segment(horizon)
            break
    return _record_segments(market, segments)


def _record_segments(market: MarketSpec, segments: list) -> Trajectory:
    """The trajectory of ``run_continuous``'s segments, one record each.

    A segment is (end time, end wealth, payoffs, consumption, is_jump,
    integrated rates, jump increment of ln W, weights, candidate, retention
    factor); the running sums add in record order, as the discrete
    engine's do.
    """
    m = market.num_investors
    traj = _alloc(len(segments), m, market.num_assets, "continuous")
    traj.wealth[0] = market.initial_wealth
    if segments:
        t, y, dx, dv, is_jump, acc, z_jump, lam, cand, keep = map(np.array, zip(*segments))
        traj.times[1:], traj.wealth[1:] = t, y
        traj.dx[...], traj.dv[...], traj.is_jump[...] = dx, dv, is_jump
        traj.z_cont[...], traj.z_jump[...] = acc[:, -1], z_jump
        traj.weights[...], traj.candidate[...] = lam, cand
        _running(traj.cum_x, 0, dx)
        _running(traj.cum_v, 0, dv)
        _running(traj.retention, 0, keep, np.multiply)
        _running(traj.pressure, 0, acc[:, 0])
        _running(traj.gap_integral, 0, acc[:, 1 : 1 + m])
        _running(traj.closeness, 0, acc[:, 1 + m : 1 + 2 * m])
        traj.support_violations += _support_violations(lam, cand)
    traj.total[...] = traj.wealth.sum(axis=1)
    traj.rel[...] = traj.wealth / traj.total[:, None]
    return traj


def run(profile: ProfileRun) -> Trajectory:
    """Dispatch to the engine matching the market's payoff model."""
    if isinstance(profile.market.payoff_model, KernelSpec):
        return run_continuous(profile)
    return run_discrete(profile)
