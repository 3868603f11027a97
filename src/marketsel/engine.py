"""Wealth-evolution engines.

Two engines share one payoff-division rule,

    Y_m' = (1 - delta) Y_m + sum_n [lam_mn Y_m / sum_k lam_kn Y_k] A_n,

which splits each asset's payoff proportionally to the wealth allocated
to it (an unclaimed asset's payoff is split equally among all investors).

A strategy sees only the time, the emitting regime and the total wealth
W, and W follows the exogenous recursion W' = (1 - delta) W + |A|.  So
the discrete engine reads W from that recursion, never from the investor
wealth, and runs blocks of steps through four stages:

* environment -- per step, the Monte Carlo strategies' uniforms and one
  payoff draw, in the order a per-step loop consumes them, plus the
  regime path and the W recursion;
* policy -- the survival candidate and every strategy's weights for the
  whole block, as array operations grouped by strategy kind;
* dynamics -- the investor-wealth recursion, the only sequential stage;
  each row is exactly ``discrete_step`` of the row before;
* diagnostics -- the selection-pressure clock, gap and closeness
  integrals, running payoff and consumption sums, retention and support
  violations, by running sums that add in per-step order.

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

Both engines record, along with the path, the increments of the process
driving ln W, so the terminal total wealth can be reconstructed through
the stochastic exponent as an independent bookkeeping check.
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


def _step_core(y: np.ndarray, lam: np.ndarray, a: np.ndarray, delta: float) -> np.ndarray:
    invested = y @ lam
    claimed = invested > 0.0
    safe = np.where(claimed, invested, 1.0)
    shares = np.where(claimed[None, :], lam * y[:, None] / safe[None, :], 1.0 / y.size)
    return (1.0 - delta) * y + shares @ a


def discrete_step(y_prev, weights, payoff, delta: float) -> np.ndarray:
    """Apply one payoff-division step to the wealth vector.

    ``weights`` is the (M, N) matrix of investment proportions.  When no
    one invests in an asset its payoff splits equally (the 1/M rule).
    """
    y = np.asarray(y_prev, dtype=float)
    lam = np.atleast_2d(np.asarray(weights, dtype=float))
    a = np.asarray(payoff, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(lam)) and np.all(np.isfinite(a))):
        raise DomainError("non-finite inputs")
    if np.any(y <= 0.0):
        raise DomainError("wealth must be strictly positive")
    if not 0.0 <= delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    if np.any(a < 0.0):
        raise DomainError("payoffs must be non-negative")
    return _step_core(y, lam, a, delta)


@dataclass
class ExponentAccumulator:
    """Running stochastic exponent of a finite-variation process.

    Tracks both the multiplicative value exp(Z_c) * prod(1 + dZ_s) and its
    logarithm; for pure-jump inputs the value is the exact product.
    """

    value: float = 1.0
    log_value: float = 0.0

    def apply(self, z_cont: float = 0.0, z_jump: float = 0.0) -> "ExponentAccumulator":
        if z_jump <= -1.0:
            raise DomainError("jump increments must be > -1")
        if z_cont != 0.0:
            self.value *= math.exp(z_cont)
            self.log_value += z_cont
        if z_jump != 0.0:
            self.value *= 1.0 + z_jump
            self.log_value += math.log1p(z_jump)
        return self


def stochastic_exponent(increments) -> ExponentAccumulator:
    """Fold (continuous, jump) increments into a stochastic exponent."""
    acc = ExponentAccumulator()
    for z_cont, z_jump in increments:
        acc.apply(z_cont, z_jump)
    return acc


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
    the largest Monte Carlo handle's two (S, N) claim arrays and every
    handle's uniforms.
    """
    s_max = max(mc_sizes, default=0)
    per_step = 8 * (3 * (m_inv + 1) * (n_assets + 1) + 2 * s_max * (n_assets + 1) + sum(mc_sizes))
    return max(1, BLOCK_BYTES // per_step)


def _environment(model, rng, regime, w: float, steps: int, n_uniforms: int):
    """Draw ``steps`` steps of the exogenous environment, in stream order.

    Each step draws the Monte Carlo strategies' uniforms, then one payoff
    event.  Returns (uniforms, emitting regimes or None, payoff rows,
    deltas, |payoff|, pre-step W) and the (regime, W) after the block;
    W follows the recursion W' = (1 - delta) W + |payoff|.
    """
    uniforms = np.empty((steps, n_uniforms))
    regimes = None if regime is None else np.empty(steps, dtype=int)
    rows, deltas, sizes, w_pre = [], [], [], []
    for i in range(steps):
        if n_uniforms:
            rng.random(out=uniforms[i])
        if regimes is not None:
            regimes[i] = regime
        w_pre.append(w)
        dx, dv, abs_dx, regime = _sample_arrays(model, regime, rng)
        rows.append(dx)
        deltas.append(dv)
        sizes.append(abs_dx)
        w = (1.0 - dv) * w + abs_dx
    env = (uniforms, regimes, np.array(rows), np.array(deltas), np.array(sizes), np.array(w_pre))
    return env, regime, w


def _running(acc: np.ndarray, k: int, inc: np.ndarray, op=np.add) -> None:
    """acc[k+1+i] = op(acc[k+i], inc[i]) for every i, in that order."""
    out = acc[k + 1 : k + 1 + len(inc)]
    out[...] = inc
    out[0] = op(acc[k], inc[0])
    op.accumulate(out, axis=0, out=out)


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
        for i in range(k1 - k0):
            wealth[k0 + 1 + i] = _step_core(wealth[k0 + i], lam[i], dx[i], dv[i])

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
            _running(traj.gap_integral, k0, gaps * d_pressure[:, None])
            close = ((lam - cand[:, None, :]) ** 2).sum(axis=2)
            _running(traj.closeness, k0, close * d_pressure[:, None])
            traj.support_violations += np.any(
                (lam <= 0.0) & (cand > SUPPORT_TOL)[:, None, :], axis=2
            ).sum(axis=0)
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
            divergence_rows(cand, lam) * pressure[:, None],
            ((lam - cand[:, None, :]) ** 2).sum(axis=2) * pressure[:, None],
            float(b.sum()) / w - kernel.v_rate,
        )
    )
    return lam, cand, rates


def _rk4(y, lam, b, v_rate: float, h: float, t0: float):
    """Classical RK4 for dy/dt = shares(y) @ b - v y over len(lam) // 2 substeps.

    Substep i starts at t0 + i h; its stages read the weights at grid
    points 2i, 2i+1, 2i+1 and 2i+2.  y > 0, so an asset is unclaimed
    exactly when its weight column is zero; its drift then splits 1/M.
    Shares do not change when a weight column is scaled, so each column
    is scaled to a largest weight of 1: y @ lam then cannot underflow to
    0 on a claimed asset.
    """
    top = lam.max(axis=1)
    unclaimed = top == 0.0
    points = list(
        zip(
            lam / np.where(unclaimed, 1.0, top)[:, None, :],
            np.where(unclaimed, 0.0, b),
            unclaimed.astype(float),  # invested wealth 1 instead of 0: no 0/0
            (b * unclaimed).sum(axis=1) / y.size,
        )
    )

    def rate(y, point):
        lam_j, b_claimed, pad, free = point
        return y * (lam_j @ (b_claimed / (y @ lam_j + pad)) - v_rate) + free

    half = 0.5 * h
    for i in range(len(points) // 2):
        left, mid, right = points[2 * i], points[2 * i + 1], points[2 * i + 2]
        k1 = rate(y, left)
        k2 = rate(y + half * k1, mid)
        k3 = rate(y + half * k2, mid)
        k4 = rate(y + h * k3, right)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not 0.0 < y.min() <= y.max() < math.inf:
            raise DomainError(f"integrator produced an invalid state near t={t0 + (i + 1) * h}")
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


class _Recorder:
    """Append-only trajectory builder for the event-driven engine."""

    def __init__(self, m_inv, n_assets, y0):
        self.rows = []
        self.m = m_inv
        self.n = n_assets
        w = float(y0.sum())
        self.state = {
            "t": 0.0,
            "y": y0.copy(),
            "cum_x": np.zeros(n_assets),
            "cum_v": 0.0,
            "retention": 1.0,
            "pressure": 0.0,
            "gap": np.zeros(m_inv),
            "close": np.zeros(m_inv),
        }
        self.intervals = []
        self.support_violations = np.zeros(m_inv, dtype=int)
        self.rows.append(self._snapshot())

    def _snapshot(self):
        s = self.state
        return (
            s["t"],
            s["y"].copy(),
            s["cum_x"].copy(),
            s["cum_v"],
            s["retention"],
            s["pressure"],
            s["gap"].copy(),
            s["close"].copy(),
        )

    def advance(self, t1, y1, dx, dv, is_jump, acc, zc, zj, lam, cand, retention_factor):
        s = self.state
        m = self.m
        s["t"] = t1
        s["y"] = y1
        s["cum_x"] = s["cum_x"] + dx
        s["cum_v"] = s["cum_v"] + dv
        s["retention"] *= retention_factor
        s["pressure"] += acc[0]
        s["gap"] = s["gap"] + acc[1 : 1 + m]
        s["close"] = s["close"] + acc[1 + m : 1 + 2 * m]
        if lam is not None:
            self.support_violations += np.any(
                (lam <= 0.0) & (cand > SUPPORT_TOL)[None, :], axis=1
            )
        self.intervals.append((dx, dv, is_jump, zc, zj, lam, cand))
        self.rows.append(self._snapshot())

    def build(self) -> Trajectory:
        k = len(self.intervals)
        traj = _alloc(k, self.m, self.n, "continuous")
        for i, row in enumerate(self.rows):
            t, y, cum_x, cum_v, retention, pressure, gap, close = row
            traj.times[i] = t
            traj.wealth[i] = y
            traj.total[i] = y.sum()
            traj.rel[i] = y / y.sum()
            traj.cum_x[i] = cum_x
            traj.cum_v[i] = cum_v
            traj.retention[i] = retention
            traj.pressure[i] = pressure
            traj.gap_integral[i] = gap
            traj.closeness[i] = close
        for i, (dx, dv, is_jump, zc, zj, lam, cand) in enumerate(self.intervals):
            traj.dx[i] = dx
            traj.dv[i] = dv
            traj.is_jump[i] = is_jump
            traj.z_cont[i] = zc
            traj.z_jump[i] = zj
            if lam is not None:
                traj.weights[i] = lam
                traj.candidate[i] = cand
        traj.support_violations = self.support_violations
        return traj


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

    rec = _Recorder(market.num_investors, market.num_assets, market.initial_wealth.copy())
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
        rec.advance(t_to, y1, dx, dv, jump is not None, acc, acc[-1], zj, lam, cand, retention_factor)
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
    return rec.build()


def run(profile: ProfileRun) -> Trajectory:
    """Dispatch to the engine matching the market's payoff model."""
    if isinstance(profile.market.payoff_model, KernelSpec):
        return run_continuous(profile)
    return run_discrete(profile)
