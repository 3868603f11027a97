"""Wealth-evolution engines.

Two engines share one payoff-division rule,

    Y_m' = (1 - delta) Y_m + sum_n [lam_mn Y_m / sum_k lam_kn Y_k] A_n,

which splits each asset's payoff proportionally to the wealth allocated
to it (an unclaimed asset's payoff is split equally among all investors).
Both run it the same way: ``_claims`` turns a stack of weights and
payoffs into per-step constants (weight columns scaled to a largest
weight of 1, the claimed payoffs, a pad on unclaimed assets and their
1/M share), and the kernel applies y * (lam @ (pay / (y @ lam + pad)) +
keep) + free, with keep = 1 - delta at a payoff step and -v as the drift
rate between continuous jumps.  The kernel has two forms, and
``_steps`` alone picks one by the market's size.  In a market of at
most FLOAT_CELLS weights (M * N), where interpreter overhead and not
arithmetic sets the cost, ``_divide`` runs on Python floats, with every
sum formed left to right, so its results do not depend on the BLAS
kernel numpy picks at run time.  A wider market runs ``_divide_array``
on numpy arrays, whose matrix products go through BLAS.  Either order is
fast but unbounded where the invested wealth is tiny or 0, so a
non-finite result (or, on floats, a division by 0) is redone by
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
  so the ``Trajectory`` is allocated before any wealth is stepped, then
  each segment's substep grid and W on it, in blocks (``_grid_blocks``);
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
  rate, by composite Simpson over its grid (``_drift_rates``, once per
  block), summed point by point in grid order without BLAS.
  ``evaluate`` is this stage on a block of one decision point: one
  strategy's weights there;
* dynamics -- a discrete block runs ``_advance``: ``_steps`` once, then
  the kernel once per step; if a row is not finite, the block again,
  each step in the bounded order where the fast one is not finite.
  ``discrete_step`` is ``_advance`` on one step, so each row is
  ``discrete_step`` of the row before by construction.  A continuous
  segment runs fixed-step classical RK4 on the investor wealth alone,
  piece by piece on its block's weights (exact decay without payoff
  drift), one ``_substep`` on Python floats whichever kernel gives its
  rates, then ``discrete_step`` at its jump with the weights at the jump
  time, the grid's last point;
* running sums -- ``_record``, shared by both engines: total and
  relative wealth, and the payoff, consumption, retention, pressure, gap
  and closeness increments added (or multiplied) in record order, over a
  block of steps or over all continuous records at once; and ``_tally``,
  per block, the support violations and the floors of every strategy's
  weights and of the candidate.  The weights and the candidate go no
  further: neither engine nor the ``Trajectory`` keeps any of them.

Both engines size their blocks from one count of a decision point's
temporaries (``_point_words``) and one byte budget, BLOCK_BYTES, so
transient memory grows with neither the horizon nor the support size.
What grows with the record count is O(records M): the ``Trajectory``'s
arrays, and a continuous run's record end times and the (records, 2M +
2) integrals it sums before ``_record``.  Fixed steps keep continuous
runs bit-reproducible; the integrator does not consume randomness, so
refining the step never changes the jump sequence.  Along with the path
both engines record the increments of the process driving ln W, so the
terminal total wealth can be reconstructed through the stochastic
exponent as an independent bookkeeping check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Optional

import numpy as np

from .core import DomainError, MarketSpec, Trajectory, divergence_rows, simplex_rows
from .payoffs import KernelSpec, RngStream, _sample_arrays, expected_claim_rates, next_jump
from .strategies import (
    Policy,
    block_weights,
    discrete_claim_vector,
    fold_words,
    handle_errors,
    mc_samples,
    regime_groups,
)

# Neither engine calls this per decision any more, but perfbench's tracer
# rebinds it by name in this module, so it stays importable here.
from .core import make_simplex  # noqa: F401

# Components below this are treated as zero when checking whether a
# strategy abandoned an asset the survival candidate still weights.
SUPPORT_TOL = 1e-12

# Byte budget for the temporaries of one block, of steps or grid points
# (``_point_words``), so transient memory does not grow with the horizon.
BLOCK_BYTES = 1 << 20

# Markets with at most this many weights (M * N) step their wealth on
# Python floats, wider ones on numpy arrays (``_steps``).  Set where a
# discrete step breaks even, measured as the fastest of 25 interleaved
# runs of 300 steps (Python 3.11.7, numpy 2.4.6, 2 vCPUs), floats against
# arrays: 4.1 / 5.6 us at 2 x 2, 5.7 / 5.8 at 3 x 3, 6.4 / 5.7 at 5 x 2,
# 7.0 / 6.5 at 4 x 3 and 8.0 / 6.1 at 5 x 3.  An RK4 substep breaks even
# later, near 7 x 2: 16.5 / 29.2 us at 2 x 2, 34.2 / 39.1 at 4 x 3 and
# 31.0 / 29.9 at 7 x 2.
FLOAT_CELLS = 10

# Steps converted to Python floats at a time.  Each holds 4 + M + N <= 15
# lists, so a batch stays below the garbage collector's first threshold
# (700 new container objects) and building one triggers no collection.
# Converting a whole block at once made 25 collections per discrete-2x2
# seed, and a full one, of about 13 ms, every five seeds.
FLOAT_STEPS = 32

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
        # The game proper needs M >= 2 (the config schema requires it), but
        # the engine also runs degenerate single-investor markets, which
        # have closed-form dynamics and serve as integration oracles.
        market = self.market
        y0 = np.asarray(market.initial_wealth, dtype=float)
        if market.num_investors < 1 or market.num_assets < 1:
            raise DomainError("market needs at least one investor and one asset")
        if y0.size != market.num_investors or not np.all(np.isfinite(y0)) or np.any(y0 <= 0):
            raise DomainError("initial wealth must be strictly positive, one value per investor")
        model = market.payoff_model
        if model is None:
            raise DomainError("market needs a payoff model")
        if model.num_assets != market.num_assets:
            raise DomainError("payoff model and market disagree on the number of assets")
        if len(self.strategies) != self.market.num_investors:
            raise DomainError("need exactly one strategy per investor")
        for m, handle in enumerate(self.strategies):
            for path, msg in handle_errors(handle, model):
                raise DomainError(f"strategy {m}{path}: {msg}")
        if not 0 <= self.horizon < math.inf:
            raise DomainError("horizon must be finite and >= 0")
        if not isinstance(model, KernelSpec) and self.horizon != int(self.horizon):
            raise DomainError("discrete horizon must be an integer number of steps")
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


def _steps(lam, pay, keep):
    """The division kernel for K steps, and an iterator over their constants in its form.

    ``lam`` (K, M, N) and ``pay`` (K, N) or (N,) are as ``_claims`` takes
    them, and ``keep`` is a list of K kept fractions.  This is the one
    place that picks the kernel: a market of at most FLOAT_CELLS weights
    gets ``_divide`` and steps (rows, columns, claimed, pad, keep, free)
    of Python floats, a wider one ``_divide_array`` and steps (scaled,
    claimed, pad, keep, free) of ``_claims`` rows.  In both, step[0] is
    the scaled weights and step[-2] the kept fraction.
    """
    scaled, claimed, pad, free = _claims(lam, pay)
    if lam.shape[-2] * lam.shape[-1] > FLOAT_CELLS:
        return _divide_array, zip(scaled, claimed, pad, keep, free.tolist())
    return _divide, _float_steps(scaled, claimed, pad, keep, free)


def _float_steps(scaled, claimed, pad, keep, free):
    """``_steps``' float steps, converted FLOAT_STEPS at a time."""
    for i in range(0, len(scaled), FLOAT_STEPS):
        part = slice(i, i + FLOAT_STEPS)
        rows, columns = scaled[part].tolist(), scaled[part].swapaxes(-2, -1).tolist()
        yield from zip(rows, columns, claimed[part].tolist(), pad[part].tolist(), keep[part], free[part].tolist())


def _divide(y, step):
    """The division rule on Python floats: y keeps ``keep`` of itself plus its shares.

    ``y`` is a list and ``step`` a float step of ``_steps``.  Each invested
    wealth and each payout is a left-to-right sum: ``reduce``, not ``sum``,
    whose order changed in Python 3.12.  So the result depends on no BLAS
    build.  The order is ``_divide_array``'s, fast but unbounded, and where
    a claimed asset has no invested wealth it raises ZeroDivisionError
    where numpy gives inf or NaN; either way the step is redone by
    ``_divide_bounded``.
    """
    rows, columns, pay, pad, keep, free = step
    q = [p / (reduce(add, map(mul, y, c)) + d) for c, p, d in zip(columns, pay, pad)]
    return [u * (reduce(add, map(mul, r, q)) + keep) + free for u, r in zip(y, rows)]


def _divide_array(y, step):
    """The division rule on numpy arrays: y keeps ``keep`` of itself plus its shares.

    ``step`` is an array step of ``_steps``.  This order is the fast one,
    but pay / invested has no upper bound: it overflows once the wealth
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


def discrete_step(y_prev, weights, payoff, delta: float) -> np.ndarray:
    """Apply one payoff-division step to the wealth vector.

    ``weights`` is the (M, N) matrix of non-negative investment
    proportions.  When no one invests in an asset its payoff splits
    equally (the 1/M rule).  Wealth may be 0 for some investors (a sole
    holder's wealth can underflow there) but must have a positive total.
    """
    y = np.asarray(y_prev, dtype=float)
    lam = np.atleast_2d(np.asarray(weights, dtype=float))
    a = np.asarray(payoff, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(lam)) and np.all(np.isfinite(a))):
        raise DomainError("non-finite inputs")
    if np.any(y < 0.0) or not y.sum() > 0.0:
        raise DomainError("wealth must be non-negative with a positive total")
    if lam.shape != y.shape + a.shape:
        raise DomainError("weights need one row per wealth entry and one column per payoff")
    if np.any(lam < 0.0):
        raise DomainError("weights must be non-negative")
    if not 0.0 <= delta < 1.0:
        raise DomainError("delta must lie in [0, 1)")
    if np.any(a < 0.0):
        raise DomainError("payoffs must be non-negative")
    wealth = np.array([y, y])
    _advance(wealth, 0, lam[None], a[None], np.array([delta], dtype=float))
    return wealth[1]


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
        z_cont=np.zeros(k),
        z_jump=np.zeros(k),
        weight_floor=np.full(m, np.inf),
        candidate_floor=math.inf,
        support_violations=np.zeros(m, dtype=int),
    )


def _point_words(model, m_inv: int, mc_sizes=()) -> int:
    """Words (8 bytes) that one decision point's block temporaries take at most.

    Both engines put as many points in a block as fit in BLOCK_BYTES.  The
    environment rows with every handle's uniforms (U in all: U + N + 8),
    the weights and the candidate ((M + 1) N) live through a block, under
    the larger of two stage terms.  One is the claim's per-atom terms over
    A atoms (the largest regime's support, or a kernel's jump atoms): two
    (A,) arrays, an (A, N) product and as much again for numpy's buffers
    for its broadcast operands, at most 2 x 8192 words; with them the
    Monte Carlo kernel's copy of the uniforms and their atom indices (2U)
    and its fold (``fold_words`` of the largest sample count).  The other
    is the table lookups and perturbed blends, the division rule's scaled
    weights and the divergence and closeness increments: four (M + 1, N +
    1) arrays.
    """
    n, regimes = model.num_assets, getattr(model, "regimes", (model,))
    atoms = model._rhos.size if isinstance(model, KernelSpec) else max(e._deltas.size for e in regimes)
    u = sum(mc_sizes)
    per_atom = atoms * (2 * n + 2) + (2 * u + fold_words(max(mc_sizes), n) if u else 0)
    return u + n + 8 + (m_inv + 1) * n + max(per_atom, 4 * (m_inv + 1) * (n + 1))


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


def evaluate(handle, env, t: float, regime, w_minus: float, rng=None) -> np.ndarray:
    """``handle``'s weights at one decision point: the policy stage on a block of one.

    ``env`` is the payoff model (discrete or Markov) or kernel the market
    runs on, ``regime`` the emitting regime (None for an i.i.d. model or a
    kernel) and ``w_minus`` the total wealth.  A Monte Carlo handle draws
    its uniforms from ``rng``, one row of ``mc_samples(handle)``.  Returns
    a read-only (N,) array.  A handle that cannot run on ``env``
    (``handle_errors``) raises ``DomainError``, as ``ProfileRun`` does.
    """
    for path, msg in handle_errors(handle, env):
        raise DomainError(f"strategy{path}: {msg}")
    n_samples = mc_samples(handle)
    if n_samples and rng is None:
        raise DomainError("survival_mc evaluation needs a random generator")
    t, w = np.array([t], dtype=float), np.array([w_minus], dtype=float)
    groups = regime_groups(None if regime is None else np.array([regime]))
    uniforms = rng.random((1, n_samples)) if n_samples else np.empty((1, 0))
    lam = np.empty((1, 1, env.num_assets))
    _stage(Policy([handle]), env, t, groups, w, uniforms, lam)
    weights = lam[0, 0]
    weights.flags.writeable = False
    return weights


def _running(acc: np.ndarray, k: int, inc: np.ndarray, op=np.add) -> None:
    """acc[k+1+i] = op(acc[k+i], inc[i]) for every i, in that order."""
    out = acc[k + 1 : k + 1 + len(inc)]
    out[...] = inc
    out[0] = op(acc[k], inc[0])
    op.accumulate(out, axis=0, out=out)


def _record(traj: Trajectory, k: int, keep, rates) -> None:
    """Complete records k + 1 .. k + K, whose wealth, payoffs and consumption are written.

    ``keep`` (K,) holds each record's retention factor and ``rates``
    (K, >= 2M + 1) its pressure, gap and closeness increments, laid out
    as ``_stage`` returns them.  Every running sum adds (or multiplies)
    them in record order.
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


def _tally(traj: Trajectory, lam, cand) -> None:
    """Add K records' weights ``lam`` (K, M, N) and candidate ``cand`` (K, N)
    to the support violations and the floors, and keep neither.  A count
    and two minima: the records may come in any order and grouping."""
    abandoned = (lam <= 0.0) & (cand > SUPPORT_TOL)[:, None, :]
    traj.support_violations += np.any(abandoned, axis=2).sum(axis=0)
    np.minimum(traj.weight_floor, lam.min(axis=(0, 2)), out=traj.weight_floor)
    traj.candidate_floor = min(traj.candidate_floor, float(cand.min()))


def _advance(wealth, k0: int, lam, dx, dv) -> None:
    """The dynamics of a block: row k0 + 1 + i of ``wealth`` is
    ``discrete_step`` of row k0 + i with weights lam[i], payoff dx[i] and
    delta dv[i].  Its temporaries die with the call, before the next
    block's policy stage."""
    keep = (1.0 - dv).tolist()
    divide, steps = _steps(lam, dx, keep)
    rows = slice(k0 + 1, k0 + 1 + len(keep))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            if divide is _divide:
                # the rows go into one flat list: a list per row would
                # count towards the garbage collector's thresholds
                y, out = wealth[k0].tolist(), []
                for step in steps:
                    y = _divide(y, step)
                    out += y
                wealth[rows] = np.reshape(out, (len(keep), -1))
            else:
                for i, step in enumerate(steps, k0 + 1):
                    wealth[i] = _divide_array(wealth[i - 1], step)
            finite = np.isfinite(wealth[rows]).all()
        except ZeroDivisionError:
            finite = False
    if not finite:
        # an invested wealth was too small for the fast order somewhere: redo the
        # block step by step, each step in the bounded order where the fast one is not finite
        divide, steps = _steps(lam, dx, keep)
        for i, (step, pay) in enumerate(zip(steps, dx), k0 + 1):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                try:
                    wealth[i] = divide(wealth[i - 1].tolist(), step)
                except ZeroDivisionError:
                    wealth[i] = math.nan
            if not np.isfinite(wealth[i]).all():
                wealth[i] = _divide_bounded(wealth[i - 1], np.asarray(step[0]), pay, step[-2])


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
    (``_record``, then ``_tally`` of the block's weights).
    """
    market = run.market
    model = market.payoff_model
    if isinstance(model, KernelSpec):
        raise DomainError("run_discrete needs a discrete payoff model")
    t_end = int(run.horizon)
    m_inv, n_assets = market.num_investors, market.num_assets
    rng = run.rng.generator()
    regime = getattr(model, "initial_state", None)
    mc_sizes = [mc_samples(h) for h in run.strategies]
    n_uniforms = sum(mc_sizes)
    block = max(1, BLOCK_BYTES // (8 * _point_words(model, m_inv, mc_sizes)))
    policy = Policy(run.strategies)

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
        lam = np.empty((k1 - k0, m_inv, n_assets))
        cand, rates = _stage(policy, model, t, regime_groups(regimes), w_pre, uniforms, lam)

        # dynamics
        _advance(traj.wealth, k0, lam, dx, dv)

        # running sums
        _record(traj, k0, 1.0 - dv, rates)
        _tally(traj, lam, cand)
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


def _drift_rates(kernel, policy, t, w):
    """Policy and diagnostic rates at K points of times ``t`` and total wealth
    ``w``: the weights (K, M, N), the candidate (K, N) and the rates
    (K, 2M + 2), ``_stage``'s and then the ln W drift rate."""
    lam = np.empty((t.size, policy.size, kernel.num_assets))
    cand, rates = _stage(policy, kernel, t, regime_groups(None), w, np.empty((t.size, 0)), lam)
    return lam, cand, np.column_stack((rates, float(kernel.drift.sum()) / w - kernel.v_rate))


def _wealth_rule(y) -> bool:
    """``discrete_step``'s wealth rule on a list: non-negative and finite, with a positive total.

    Python's ``min`` and ``max`` skip a NaN that is not the first entry,
    so the sum, which is NaN wherever an entry is, checks for one.
    """
    total = sum(y)
    return total == total and 0.0 <= min(y) and 0.0 < max(y) < math.inf


def _substep(divide, y, left, mid, right, h: float):
    """One classical RK4 substep of dy/dt = divide(y, point) on a list ``y``.

    ``divide`` takes and returns lists.  Returns None where it divides by
    0 or the result breaks ``_wealth_rule``.
    """
    half = 0.5 * h
    try:
        k1 = divide(y, left)
        k2 = divide([u + half * k for u, k in zip(y, k1)], mid)
        k3 = divide([u + half * k for u, k in zip(y, k2)], mid)
        k4 = divide([u + h * k for u, k in zip(y, k3)], right)
    except ZeroDivisionError:
        return None
    sixth = h / 6.0
    y = [u + sixth * (a + 2.0 * b + 2.0 * c + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return y if _wealth_rule(y) else None


def _rk4(y, lam, b, v_rate: float, h: float, t0: float):
    """Classical RK4 for dy/dt = shares(y) @ b - v y over len(lam) // 2 substeps.

    Substep i starts at t0 + i h; its stages read the weights at grid
    points 2i, 2i+1, 2i+1 and 2i+2.  The rate is the division rule with
    the drift b as payoff and -v as the kept fraction, on ``_steps``'
    kernel; the array kernel's rates come back as lists, so every market
    runs the one ``_substep``.
    """
    kernel, points = _steps(lam, b, [-v_rate] * len(lam))

    def listed(y, step):
        return _divide_array(np.array(y), step).tolist()

    def bounded(y, step):
        return _divide_bounded(np.array(y), np.asarray(step[0]), b, step[-2]).tolist()

    divide = listed if kernel is _divide_array else kernel
    y = y.tolist()
    right = next(points)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(len(lam) // 2):
            left, mid, right = right, next(points), next(points)
            y_next = _substep(divide, y, left, mid, right, h)
            if y_next is None:
                # the bounded rates redo a substep on which the fast order
                # overflowed on a tiny invested wealth
                y_next = _substep(bounded, y, left, mid, right, h)
                if y_next is None:
                    raise DomainError(f"integrator produced an invalid state near t={t0 + (i + 1) * h}")
            y = y_next
    return np.asarray(y, dtype=float)


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


def _grid_blocks(kernel, events, w0, dt: float, points: int):
    """Every segment's grid and W, in blocks of whole pieces.

    Record k's segment, from t0 to its end time t1, has n = ceil((t1 - t0)
    / dt) substeps of length h (none if t1 = t0) on the grid t0 + j h / 2,
    whose last point is exactly t1.  W is the closed form from t0, and W+
    = (1 - v) W- + |x| at a jump, W- at the grid's last point.  A segment
    splits into pieces of c = max(1, (``points`` - 1) // 2) substeps, each
    with its own points.  Yields (t, w, pieces) of at most 2 c + 1 points;
    a piece is (k, rows, h, first, last): its record, its rows, h (0 on an
    empty segment) and whether it starts and whether it ends the segment.
    """
    chunk = max(1, (points - 1) // 2)
    grid, pieces, size, t0 = [], [], 0, 0.0
    for k, (t1, jump) in enumerate(events):
        span = t1 - t0
        n = max(1, math.ceil(span / dt)) if span > 0.0 else 0
        h = span / n if n else 0.0
        for i0 in range(0, max(n, 1), chunk):
            i1 = min(i0 + chunk, n)
            s = np.arange(2 * i0, 2 * i1 + 1) * (0.5 * h)
            tw = np.stack((t0 + s, _total_wealth(kernel, w0, s)))
            if i1 == n:
                tw[:, -1] = t1, _total_wealth(kernel, w0, span)
            if size + s.size > 2 * chunk + 1:
                yield *np.concatenate(grid, axis=1), pieces
                grid, pieces, size = [], [], 0
            pieces.append((k, slice(size, size + s.size), h, i0 == 0, i1 == n))
            grid.append(tw)
            size += s.size
        w0, t0 = tw[1, -1], t1
        if jump is not None:
            w0 = (1.0 - jump[1]) * w0 + float(jump[0].sum())
    if pieces:
        yield *np.concatenate(grid, axis=1), pieces


def run_continuous(run: ProfileRun) -> Trajectory:
    """Simulate the continuous-time market up to the horizon.

    Strategies read only the time and the exogenous W, so the run has
    ``run_discrete``'s four stages: environment (``_jump_schedule``, then
    ``_grid_blocks``), policy and its rates (``_drift_rates`` per block),
    dynamics piece by piece (Simpson sums, RK4 or the exact decay, and at
    a jump the division update with the weights at the jump time) and the
    running sums (``_record``, over all records).  A record's weights are
    those at its segment's first grid point, or at its jump: each block
    hands the rows of its records' weights to ``_tally`` and keeps none.
    """
    market, kernel = run.market, run.market.payoff_model
    if not isinstance(kernel, KernelSpec):
        raise DomainError("run_continuous needs a kernel payoff model")
    events = _jump_schedule(kernel, run.rng.generator(), float(run.horizon), run.record_dt)
    policy = Policy(run.strategies)
    b, v_rate = kernel.drift, kernel.v_rate
    has_drift = float(b.sum()) > 0.0
    points = BLOCK_BYTES // (8 * _point_words(kernel, market.num_investors))

    # environment: the records' times, payoffs and consumption
    traj = _start(len(events), market, "continuous")
    traj.times[1:] = [t1 for t1, _ in events]
    spans = np.diff(traj.times)
    traj.dx[...] = spans[:, None] * b
    traj.dv[...] = v_rate * spans
    decay = [math.exp(s) for s in (-v_rate * spans).tolist()]
    keep = np.array(decay)
    jumps = traj.is_jump
    jumps[:] = [jump is not None for _, jump in events]
    pairs = [jump for _, jump in events if jump is not None]
    v = np.array([jv for _, jv in pairs])
    traj.dx[jumps] += np.reshape([jx for jx, _ in pairs], (-1, kernel.num_assets))
    traj.dv[jumps] += v
    keep[jumps] *= 1.0 - v

    acc = np.zeros((len(events), 2 * market.num_investors + 2))
    y = market.initial_wealth.copy()
    for t, w, pieces in _grid_blocks(kernel, events, float(traj.total[0]), run.dt, points):
        # policy and its diagnostic rates
        lam, cand, rates = _drift_rates(kernel, policy, t, w)

        # dynamics
        sources = []  # the rows of this block's records' weights, in record order
        for k, rows, h, first, last in pieces:
            if first and not jumps[k]:
                sources.append(rows.start)
            if h:
                simpson = np.full(rows.stop - rows.start, 2.0)
                simpson[1::2] = 4.0
                simpson[[0, -1]] = 1.0
                acc[k] += (h / 6.0) * np.add.reduce(simpson[:, None] * rates[rows], axis=0)
                if has_drift:
                    y = _rk4(y, lam[rows], b, v_rate, h, t[rows.start])
            if last:
                if not has_drift:
                    y = y * decay[k]
                if jumps[k]:
                    (x, v), i = events[k][1], rows.stop - 1
                    y = discrete_step(y, lam[i], x, v)
                    sources.append(i)
                    traj.z_jump[k] = float(x.sum()) / w[i] - v
                traj.wealth[k + 1] = y
        if sources:
            _tally(traj, lam[sources], cand[sources])

    # running sums
    traj.z_cont[...] = acc[:, -1]
    if events:
        _record(traj, 0, keep, acc)
    return traj


def run(profile: ProfileRun) -> Trajectory:
    """Dispatch to the engine matching the market's payoff model."""
    if isinstance(profile.market.payoff_model, KernelSpec):
        return run_continuous(profile)
    return run_discrete(profile)
