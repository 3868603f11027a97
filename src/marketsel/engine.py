"""Wealth-evolution engines.

Two engines share one payoff-division rule,

    Y_m' = (1 - delta) Y_m + sum_n [lam_mn Y_m / sum_k lam_kn Y_k] A_n,

which splits each asset's payoff proportionally to the wealth allocated
to it (an unclaimed asset's payoff is split equally among all investors).
Both run it in one bounded order.  ``_claims`` turns a stack of weights
and payoffs into per-step constants (weight columns scaled to a largest
weight of 1, the claimed payoffs, a pad on unclaimed assets and their 1/M
share), and the kernel forms each product a_ij = y_i s_ij once, sums them
into the invested wealth r_j, and applies y_i keep + sum_j (a_ij / r_j)
p_j + free, with keep = 1 - delta at a payoff step and -v as the drift
rate between continuous jumps.  Each share a_ij / r_j is formed before it
meets the payoff, so it is at most 1 however small the invested wealth.
The kernel has two forms, and ``_steps`` alone picks one by the market's
size.  In a market of at most FLOAT_CELLS weights (M * N), where
interpreter overhead and not arithmetic sets the cost, the kernel is a
function generated for the market's shape (``_float_kernel``):
straight-line code on Python floats that unpacks the wealth and one flat
step into locals and writes every sum out, so each is formed left to
right and its results do not depend on the BLAS kernel numpy picks at run
time.  ``_division`` alone writes those sums, for this kernel and for the
RK4 loop generated on it.  A claimed asset with exactly 0 invested (every
holder's wealth underflowed to 0) makes that code divide by 0, and its
step falls back to the array form, ``_divide_bounded``, which a wider
market runs on every step.  Its matrix products go through BLAS, and it
splits an asset with no invested wealth 1/M without raising.

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
  block): each substep's increment h/6 (left + 4 mid + right), summed
  substep by substep in grid order without BLAS.
  ``evaluate`` is this stage on a block of one decision point: one
  strategy's weights there;
* dynamics -- a discrete block runs ``_advance``: ``_steps`` once, then
  the kernel once per step.  ``discrete_step`` is ``_advance`` on one
  step, so each row is ``discrete_step`` of the row before by
  construction.  A continuous segment runs fixed-step classical RK4 on
  the investor wealth alone, piece by piece on its block's weights
  (exact decay without payoff drift), then ``discrete_step`` at its jump
  with the weights at the jump time, the grid's last point.  All of a
  piece's substeps run in one loop generated for its market's shape and
  kernel (``_rk4_kernel``), the four stages written out on float locals.
  Shares of at most 1 keep a discrete row within ``discrete_step``'s
  wealth rule unless its wealth overflows; an RK4 stage can also leave
  it where h v is large enough to turn a stage's wealth negative, and a
  substep whose result breaks the rule raises ``DomainError``;
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
from functools import cache
from itertools import count  # noqa: F401 - the generated RK4 loops count substeps with it
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
# Python floats, wider ones on numpy arrays (``_steps``).  The limit was
# set where a discrete step broke even on a slower float kernel, and it
# stays: moving it would change the bytes of the markets in between, whose
# array sums go through BLAS.  The generated code breaks even later,
# measured as the fastest of 25 interleaved runs of 300 steps (Python
# 3.11.7, numpy 2.4.6, 2 vCPUs), floats against arrays: a discrete step
# near M N = 56 (1.8 / 8.9 us at 2 x 2, 3.5 / 5.2 at 10 x 3, 5.2 / 5.2 at
# 8 x 7, 7.2 / 5.4 at 10 x 8) and an RK4 substep of the generated loop
# near 115 (2.6 / 19.3 us at 3 x 2, 19.0 / 22.1 at 10 x 9, 22.7 / 24.1
# at 11 x 10, 24.9 / 23.8 at 12 x 10).  Those figures predate the bounded
# order, which made a 40 x 10 array step cost 1.7 times the fast one and a
# float step at most 1.1 times, so floats now break even later still.
FLOAT_CELLS = 10

# Steps converted to Python floats at a time.  A Python float takes 24
# bytes and a list's pointer to it 8 more, against 8 bytes in the block's
# arrays, so the steps of a whole block as floats would overrun
# BLOCK_BYTES.  A chunk is M N + 2 N + 3 lists and its step tuples are
# made one at a time, so stepping starts no collection of the garbage
# collector.  Larger chunks made a step no faster.
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
        for _, msg in profile_errors(self.market, self.strategies, self.horizon, self.dt, self.record_dt):
            raise DomainError(msg)
        for m, handle in enumerate(self.strategies):
            for path, msg in handle_errors(handle, self.market.payoff_model):
                raise DomainError(f"strategy {m}{path}: {msg}")


def profile_errors(market: MarketSpec, strategies, horizon, dt, record_dt) -> list:
    """Why ``ProfileRun`` rejects these fields: (path, message) pairs, paths in the config layout.

    The one statement of the market and profile rules; a strategy's own
    fit to the model is ``handle_errors``.  The game proper needs M >= 2
    (the config schema requires it), but the engine also runs degenerate
    single-investor markets: closed-form dynamics that serve as oracles.
    """
    m, n, model, y0 = market.num_investors, market.num_assets, market.payoff_model, market.initial_wealth
    errors = []
    if m < 1 or n < 1:
        errors.append((".market", "market needs at least one investor and one asset"))
    if y0.size != m:
        msg = f"initial wealth needs one value per investor (got {y0.size}, expected {m})"
        errors.append((".market.initial_wealth", msg))
    if not np.all(np.isfinite(y0) & (y0 > 0)):
        errors.append((".market.initial_wealth", "initial wealth must be finite and strictly positive"))
    if model is None:
        errors.append((".payoff_model", "market needs a payoff model"))
    elif model.num_assets != n:
        msg = (
            "payoff model and market disagree on the number of assets "
            f"(payoffs have {model.num_assets}, market declares {n})"
        )
        errors.append((".payoff_model", msg))
    if len(strategies) != m:
        msg = f"need exactly one strategy per investor (got {len(strategies)}, expected {m})"
        errors.append((".strategies", msg))
    if not 0 <= horizon < math.inf:
        errors.append((".horizon", "horizon must be finite and >= 0"))
    elif not isinstance(model, KernelSpec) and horizon != int(horizon):
        errors.append((".horizon", "discrete horizon must be an integer number of steps"))
    if not dt > 0:
        errors.append((".integrator.dt", "dt must be positive"))
    if record_dt is not None and not record_dt > 0:
        errors.append((".record.grid", "record_dt must be positive"))
    return errors


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
    """The division kernel for K steps and an iterator over their constants.

    ``lam`` (K, M, N) and ``pay`` (K, N) or (N,) are as ``_claims`` takes
    them, and ``keep`` is a list of K kept fractions.  This is the one
    place that picks the kernel: a market of at most FLOAT_CELLS weights
    gets ``_float_kernel(M, N)`` and flat float steps (``_float_steps``),
    a wider one ``_divide_bounded`` and steps (scaled weights, payoffs,
    keep).
    """
    scaled, claimed, pad, free = _claims(lam, pay)
    m, n = lam.shape[-2:]
    if m * n > FLOAT_CELLS:
        return _divide_bounded, zip(scaled, np.broadcast_to(pay, claimed.shape), keep)
    return _float_kernel(m, n), _float_steps(scaled, claimed, pad, keep, free)


def _float_steps(scaled, claimed, pad, keep, free):
    """``_steps``' float steps, one flat tuple of M N + 2 N + 2 Python floats each:
    the scaled weights row by row, the claimed payoffs, the pads, the kept
    fraction and the free share.  Converted FLOAT_STEPS at a time."""
    k, m, n = scaled.shape
    for i in range(0, k, FLOAT_STEPS):
        part = slice(i, i + FLOAT_STEPS)
        table = np.column_stack((scaled[part].reshape(-1, m * n), claimed[part], pad[part], keep[part], free[part]))
        yield from zip(*table.T.tolist())


def _unpack(m: int, n: int, step: str) -> str:
    """Source that unpacks the flat float step named ``step`` into the division rule's locals."""
    rows, cols = range(m), range(n)
    constants = [f"s{i}_{j}" for i in rows for j in cols] + [f"p{j}" for j in cols] + [f"d{j}" for j in cols]
    return "".join(f"{c}, " for c in constants) + f"keep, free = {step}"


def _division(m: int, n: int, y: str):
    """Source of the division rule on the wealth locals y0, y1, ... named by the prefix ``y``.

    Returns the lines that set every product a_ij = y_i s_ij and every
    invested wealth r_j = a_0j + a_1j + ... + d_j, and the expressions of
    every payout y_i keep + a_i0 / r0 p0 + a_i1 / r1 p1 + ... + free.
    Each product is formed once, and each share a_ij / r_j before it
    meets the payoff, so a share is at most 1 however small r_j is; r_j
    is 0 only where a claimed asset has exactly 0 invested, and there the
    payouts divide by 0.  Python adds such a chain left to right: this is
    the one place that writes the order of the generated sums, which
    depends on no BLAS build.
    """
    rows, cols = range(m), range(n)
    products = [f"a{i}_{j} = {y}{i} * s{i}_{j}" for i in rows for j in cols]
    invested = [f"r{j} = " + "".join(f"a{i}_{j} + " for i in rows) + f"d{j}" for j in cols]
    payouts = [f"{y}{i} * keep + " + "".join(f"a{i}_{j} / r{j} * p{j} + " for j in cols) + "free" for i in rows]
    return products + invested, payouts


def _wealth_check(names) -> str:
    """Source of ``discrete_step``'s wealth rule on the float locals ``names``:
    each in [0, inf), one positive.

    A NaN fails its first comparison, so no sum is needed to find one.
    """
    return " and ".join(f"0.0 <= {v} < inf" for v in names) + " and (" + " or ".join(f"0.0 < {v}" for v in names) + ")"


def _generated(name: str, lines):
    """The function ``name`` that ``lines`` define, the first line its ``def``, the rest its body.

    Its globals are this module's, so it calls the module's functions as
    they are bound when it runs.
    """
    namespace = {}
    exec(compile("\n    ".join(lines), f"<{name}>", "exec"), globals(), namespace)
    return namespace[name]


@cache
def _float_kernel(m: int, n: int):
    """The division rule on Python floats for an M x N market, as straight-line code.

    The function takes ``y``, a list, and a flat step of ``_float_steps``,
    and returns y keeps ``keep`` of itself plus its shares, as a list.  It
    is generated once per shape, as ``dataclasses`` generates ``__init__``,
    with every sum written out by ``_division``.  Where a claimed asset
    has exactly 0 invested the shares divide by 0, and the step is
    ``_divide_flat``'s.
    """
    lines, payouts = _division(m, n, "y")
    return _generated(
        f"_divide_{m}x{n}",
        [
            f"def _divide_{m}x{n}(y, step):",
            "".join(f"y{i}, " for i in range(m)) + "= y",
            _unpack(m, n, "step"),
            *lines,
            "try:",
            f"    return [{', '.join(payouts)}]",
            "except ZeroDivisionError:",
            "    return _divide_flat(y, step)",
        ],
    )


@cache
def _rk4_kernel(m: int, n: int, wide: bool):
    """Classical RK4 on the division rule's rates, substep after substep, as straight-line code.

    The function ``_rk4_MxN(y, right, points, h, t0)`` starts from the
    wealth list ``y`` at the step ``right`` of ``_steps`` and takes two
    more steps per substep from the iterator ``points``: its mid point and
    its right end.  It keeps the wealth in float locals and writes out the
    four stages, the updates y + h/2 k and y + h k, and y + h/6 (k1 + 2 k2
    + 2 k3 + k4), whose every entry ``_wealth_check`` then checks.  A
    stage's rates are the kernel's on its wealth and step, to the bit:
    ``_division``'s sums on float locals, each step unpacked once, and
    ``_divide_flat`` where they divide by 0, as in ``_float_kernel``; or,
    ``wide``, ``_divide_bounded`` on an array of the wealth.  A substep
    whose result breaks the wealth rule raises ``DomainError`` naming its
    end time t0 + i h.  Returns the wealth after the last substep, a list.
    """
    rows = range(m)
    y, new = ", ".join(f"y{i}" for i in rows), [f"n{i}" for i in rows]

    def unpack(point):
        return [] if wide else [_unpack(m, n, point)]

    def stage(k, wealth, point):  # the rates k<k>_i at the wealth locals ``wealth`` and the step ``point``
        rates, args = (", ".join(f"{prefix}{i}" for i in rows) for prefix in (f"k{k}_", wealth))
        if wide:
            return [f"{rates}, = _divide_bounded(np.array([{args}]), {point}).tolist()"]
        lines, payouts = _division(m, n, wealth)
        return [
            *lines,
            "try:",
            f"    {rates}, = {', '.join(payouts)},",
            "except ZeroDivisionError:",
            f"    {rates}, = _divide_flat([{args}], {point})",
        ]

    def towards(scale, k):  # z = y + scale k<k>
        return [f"z{i} = y{i} + {scale} * k{k}_{i}" for i in rows]

    substep = [
        *stage(1, "y", "right"),
        *unpack("mid"), *towards("half", 1), *stage(2, "z", "mid"),
        *towards("half", 2), *stage(3, "z", "mid"),
        *unpack("step"), *towards("h", 3), *stage(4, "z", "step"),
        *(f"n{i} = y{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in rows),
        f"if not ({_wealth_check(new)}):",
        '    raise DomainError(f"integrator produced an invalid state near t={t0 + i * h}")',
        f"{y}, = {', '.join(new)},",
        "right = step",
    ]
    lines = [
        f"def _rk4_{m}x{n}(y, right, points, h, t0):",
        "half = 0.5 * h",
        "sixth = h / 6.0",
        "inf = math.inf",
        f"{y}, = y",
        *unpack("right"),
        "for i, mid, step in zip(count(1), points, points):",
        *(f"    {line}" for line in substep),
        f"return [{y}]",
    ]
    return _generated(f"_rk4_{m}x{n}", lines)


def _divide_bounded(y, step):
    """The division rule on numpy arrays: y keeps ``keep`` of itself plus its shares.

    ``step`` is (scaled weights, payoffs, keep).  Each share lam y /
    invested is formed before it meets the payoff, so it stays at most 1
    however small the invested wealth.  An asset with no invested wealth
    -- no weight on it, or every holder's wealth underflowed to 0 --
    splits its payoff 1/M, so nothing divides by 0.
    """
    lam, pay, keep = step
    invested = y @ lam
    idle = invested == 0.0
    shares = lam * y[:, None]
    shares /= invested + idle
    shares += idle / y.size
    return keep * y + shares @ pay


def _divide_flat(y, step):
    """``_divide_bounded`` on the wealth list ``y`` and a flat float step, as a list: the
    float kernels' division where a claimed asset has exactly 0 invested."""
    m = len(y)
    n = (len(step) - 2) // (m + 2)
    lam, pay = np.reshape(step[: m * n], (m, n)), np.array(step[m * n : m * n + n])
    keep, free = step[-2:]
    return (_divide_bounded(np.array(y), (lam, pay, keep)) + free).tolist()


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
    if divide is _divide_bounded:
        for i, step in enumerate(steps, k0 + 1):
            wealth[i] = _divide_bounded(wealth[i - 1], step)
        return
    # the rows go into one flat list: a list per row would count towards
    # the garbage collector's thresholds
    y, out = wealth[k0].tolist(), []
    for step in steps:
        y = divide(y, step)
        out += y
    wealth[k0 + 1 : k0 + 1 + len(keep)] = np.reshape(out, (len(keep), -1))


def _start(n_records: int, market: MarketSpec, mode: str) -> Trajectory:
    """A trajectory of ``n_records`` records whose record 0 is the initial state."""
    traj = _alloc(n_records, market.num_investors, market.num_assets, mode)
    traj.wealth[0] = market.initial_wealth
    traj.total[0] = traj.wealth[0].sum()
    traj.rel[0] = traj.wealth[0] / traj.total[0]
    return traj


def run_discrete(run: ProfileRun) -> Trajectory:
    """Simulate the discrete-time market over a whole number of steps.

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
    whatever the strategies, and W solves dW = (|b| - v W) dt.  Its
    exponentials come from libm one point at a time: numpy picks its
    ``exp`` loop by CPU, and the AVX-512 one rounds some inputs otherwise.
    """
    v = kernel.v_rate
    b = float(kernel.drift.sum())
    if v == 0.0:
        return w0 + b * s
    x, w0 = -v * np.asarray(s, dtype=float), float(w0)
    w = [w0 * math.exp(u) - b * math.expm1(u) / v for u in x.ravel().tolist()]
    return np.array(w).reshape(x.shape)[()]  # a scalar where s is one


def _drift_rates(kernel, policy, t, w):
    """Policy and diagnostic rates at K points of times ``t`` and total wealth
    ``w``: the weights (K, M, N), the candidate (K, N) and the rates
    (K, 2M + 2), ``_stage``'s and then the ln W drift rate."""
    lam = np.empty((t.size, policy.size, kernel.num_assets))
    cand, rates = _stage(policy, kernel, t, regime_groups(None), w, np.empty((t.size, 0)), lam)
    return lam, cand, np.column_stack((rates, float(kernel.drift.sum()) / w - kernel.v_rate))


def _rk4(y, lam, b, v_rate: float, h: float, t0: float):
    """Classical RK4 for dy/dt = shares(y) @ b - v y over len(lam) // 2 substeps.

    Substep i starts at t0 + i h; its stages read the weights at grid
    points 2i, 2i+1, 2i+1 and 2i+2.  The rate is the division rule with
    the drift b as payoff and -v as the kept fraction, on ``_steps``'
    kernel, and the substeps run in the loop generated for the market's
    shape and that kernel (``_rk4_kernel``).  A substep whose result
    breaks the wealth rule raises ``DomainError``.
    """
    kernel, points = _steps(lam, b, [-v_rate] * len(lam))
    loop = _rk4_kernel(*lam.shape[-2:], kernel is _divide_bounded)
    # a state that breaks the wealth rule may pass through inf or NaN on
    # its way to the check
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.array(loop(y.tolist(), next(points), points, h, t0))


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
            if i1 == n:
                s[-1] = span
            tw = np.stack((t0 + s, _total_wealth(kernel, w0, s)))
            if i1 == n:
                tw[0, -1] = t1
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
                # each substep's increment is scaled before the sum: scaled
                # after, a sum of subnormal rates keeps bits one substep rounds away
                r = rates[rows]
                acc[k] += np.add.reduce((h / 6.0) * (r[:-1:2] + 4.0 * r[1::2] + r[2::2]), axis=0)
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
