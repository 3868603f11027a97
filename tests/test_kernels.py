"""The two forms of the bounded division kernel: Python floats in small markets, numpy arrays in wide ones.

``engine._steps`` gives a market of at most ``FLOAT_CELLS`` weights the
float kernel generated for its shape (``_float_kernel``) and a wider one
the array kernel ``_divide_bounded``.  Both are checked here against the
division rule in exact rational arithmetic, the generated kernels against
the ``reduce`` form of the same order bit for bit, the RK4 loop generated
for a small market's shape against RK4 one substep at a time on the float
kernel bit for bit, RK4 on one kernel's rates against RK4 on the other's,
whole runs on one kernel against the other, the float steps against the
garbage collector's thresholds, the artifacts of small markets against the
BLAS kernel numpy happens to pick at run time, and the artifacts of a
continuous run against the ``exp`` loop numpy picks by CPU.
"""

import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import marketsel
from marketsel import (
    DiscreteIIDModel,
    DomainError,
    KernelSpec,
    MarketSpec,
    PerturbationSchedule,
    ProfileRun,
    RngStream,
    constant_strategy,
    engine,
    perturbed,
    run_continuous,
    run_discrete,
    survival_strategy,
)
from recording import recorded
from reference_division import reference_divide

U = 2.0**-53  # unit roundoff of a double
TINY = 2.0**-1074  # the smallest subnormal


def _gamma(k: int) -> float:
    """Relative error bound of k chained roundings (Higham's gamma_k)."""
    return k * U / (1.0 - k * U)


def _exact_rule(y, lam, pay, keep):
    """y_i keep + sum_j lam_ij y_i / sum_k lam_kj y_k pay_j in rationals; 1/M where nothing is invested."""
    m, n = len(y), len(pay)
    y, pay, keep = [Fraction(v) for v in y], [Fraction(p) for p in pay], Fraction(keep)
    lam = [[Fraction(x) for x in row] for row in lam]
    invested = [sum(lam[i][j] * y[i] for i in range(m)) for j in range(n)]
    shares = [
        [lam[i][j] * y[i] / invested[j] if invested[j] else Fraction(1, m) for j in range(n)]
        for i in range(m)
    ]
    return [keep * y[i] + sum(shares[i][j] * pay[j] for j in range(n)) for i in range(m)], invested


def _kernel(cells):
    """``_steps`` with the size rule set to ``cells``."""

    def steps(lam, pay, keep):
        with mock.patch.object(engine, "FLOAT_CELLS", cells):
            return engine._steps(lam, pay, keep)

    return steps


FLOATS, ARRAYS = _kernel(10**9), _kernel(0)

_special = st.sampled_from([0.0, 5e-324, 1e-310])


@st.composite
def division_steps(draw):
    # N >= 8 too: the array kernel's products go through BLAS, which may
    # split or fuse a longer sum differently
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4) | st.integers(8, 12))
    # wealth is 0 or normal: a subnormal wealth loses relative precision in
    # its products that no operation count bounds (the bounded order's
    # tests in test_engine cover it)
    y = draw(st.lists(st.just(0.0) | st.floats(2.0**-30, 16.0), min_size=m, max_size=m))
    assume(sum(y) > 0.0)
    lam = np.array(draw(st.lists(st.lists(_special | st.floats(0.0, 1.0), min_size=n, max_size=n),
                                 min_size=m, max_size=m)))
    dead = draw(st.integers(-1, n - 1))  # an asset nobody holds
    if dead >= 0:
        lam[:, dead] = 0.0
    pay = np.array(draw(st.lists(_special | st.floats(0.0, 4.0), min_size=n, max_size=n)))
    keep = draw(st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0))
    return np.array(y), lam, pay, keep


@given(division_steps())
@example((np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]), 0.9))  # held, 0 invested
@example((np.array([0.5, 2.0, 1.0]), np.full((3, 8), 0.125), np.linspace(0.0, 4.0, 8), 0.7))  # N = 8
@settings(max_examples=400, deadline=None)
def test_both_kernels_lie_within_the_operation_count_bound_of_the_exact_rule(case):
    y, lam, pay, keep = case
    m, n = lam.shape
    scaled = engine._claims(lam, pay)[0]  # the weights both kernels read
    exact, invested = _exact_rule(y.tolist(), scaled.tolist(), pay.tolist(), keep)
    # the bound below assumes no invested wealth is subnormal, so that
    # products underflowing there do not count
    assume(all(inv == 0 or inv >= 2.0**-960 for inv in invested))
    # a product y_i s_ij: 1 rounding; its invested wealth: M more; the
    # share: 1; its product with the payoff: 1; the payout sum after keep
    # y (1): N + 1; the free share's own sum and 1/M: N.  A held asset
    # with nothing invested splits 1/M: 1 rounding where the share took M + 2.
    bound = Fraction(_gamma(m + 2 * n + 5))
    # Underflow adds absolute error the relative bound misses: at most
    # 2^-1075 to each product y_i s_ij, which moves share j by at most
    # (M + 1) 2^-1075 / invested_j, and 2^-1075 to each quotient, each
    # product with a payoff, keep y and the free share.
    slack = Fraction(TINY) * (n + 1 + sum((m + 1) * Fraction(p) / inv for p, inv in zip(pay.tolist(), invested) if inv))
    for steps in (FLOATS, ARRAYS):
        divide, (step,) = steps(lam[None], pay[None], [keep])
        got = divide(y if divide is engine._divide_bounded else y.tolist(), step)
        for i, value in enumerate(np.asarray(got).tolist()):
            assert abs(Fraction(value) - exact[i]) <= bound * exact[i] + slack, (divide.__name__, i, value, float(exact[i]))


def _grid(rng, m, n, substeps, sole_holder=False):
    lam = rng.dirichlet(np.ones(n), size=(2 * substeps + 1, m))
    if sole_holder:  # investor m - 1 alone holds asset n - 1
        lam[:, :, -1] = 0.0
        lam[:, -1, :] = 0.0
        lam[:, -1, -1] = 1.0
        lam[:, :-1, :-1] /= lam[:, :-1, :-1].sum(axis=2, keepdims=True)
    return lam


def _rk4(y, lam, b, v, h, cells):
    """``_rk4`` with the size rule set to ``cells``, and its calls to the array kernel."""
    with mock.patch.object(engine, "FLOAT_CELLS", cells), \
            mock.patch.object(engine, "_divide_bounded", wraps=engine._divide_bounded) as bounded:
        out = engine._rk4(y, lam, b, v, h, 0.0)
    return out, bounded.call_count


# Each rate agrees between the kernels within twice the bound above, a few
# ulps, and RK4 carries that over the 50 substeps with a growth factor set
# by the rates.  The largest difference on these grids is 2.6e-16; the
# tolerance is about 400 times that.
RK4_RTOL = 1e-13


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 2), (4, 3), (3, 4)])
def test_float_rk4_matches_the_array_rk4(m, n):
    # one RK4 loop on either kernel's rates: only the rates' order differs
    rng = np.random.default_rng([m, n])
    for _ in range(20):
        lam = _grid(rng, m, n, 50)
        b = rng.uniform(0.0, 1.0, n)
        y0, v = rng.uniform(0.1, 3.0, m), rng.uniform(0.0, 0.6)
        floats, _ = _rk4(y0, lam, b, v, 0.02, 10**9)
        arrays, _ = _rk4(y0, lam, b, v, 0.02, 0)
        np.testing.assert_allclose(floats, arrays, rtol=RK4_RTOL, atol=0)


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2)])
def test_float_rk4_redoes_a_tiny_holder_with_the_bounded_order(m, n):
    # the sole holder of the last asset starts at 1e-310, where drift /
    # invested would overflow; every share is formed before it meets the
    # drift, so the float kernel needs no fallback to the array form, and
    # agrees with it
    rng = np.random.default_rng([7, m, n])
    lam = _grid(rng, m, n, 50, sole_holder=True)
    b = rng.uniform(0.2, 1.0, n)
    y0 = np.append(rng.uniform(0.5, 2.0, m - 1), 1e-310)
    floats, fallbacks = _rk4(y0, lam, b, 0.5, 0.02, 10**9)
    arrays, array_calls = _rk4(y0, lam, b, 0.5, 0.02, 0)
    assert fallbacks == 0 and array_calls == 4 * 50
    assert np.all(np.isfinite(floats)) and floats[-1] > 0.01
    np.testing.assert_allclose(floats, arrays, rtol=RK4_RTOL, atol=0)


def _per_substep(y, lam, b, v, h):
    """RK4 one substep at a time on ``_float_kernel(M, N)``, as lists: one
    kernel call per stage, and numpy's wealth rule on each substep's result."""
    divide, points = engine._steps(lam, b, [-v] * len(lam))
    assert divide is engine._float_kernel(*lam.shape[1:])
    points = list(points)
    half, sixth = 0.5 * h, h / 6.0
    y = y.tolist()
    for i in range(len(lam) // 2):
        left, mid, right = points[2 * i : 2 * i + 3]
        k1 = divide(y, left)
        k2 = divide([u + half * k for u, k in zip(y, k1)], mid)
        k3 = divide([u + half * k for u, k in zip(y, k2)], mid)
        k4 = divide([u + h * k for u, k in zip(y, k3)], right)
        y = [u + sixth * (p + 2.0 * q + 2.0 * r + s) for u, p, q, r, s in zip(y, k1, k2, k3, k4)]
        wealth = np.array(y)
        if not (np.all((0.0 <= wealth) & (wealth < math.inf)) and wealth.max() > 0.0):
            raise DomainError(f"integrator produced an invalid state near t={0.0 + (i + 1) * h}")
    return y


def _fused_and_per_substep(y, lam, b, v, h):
    """(float.hex of the result or the DomainError's message, array-kernel
    fallbacks) of ``_rk4`` and of ``_per_substep``."""
    out = []
    for rk4 in (lambda: engine._rk4(y, lam, b, v, h, 0.0), lambda: _per_substep(y, lam, b, v, h)):
        with mock.patch.object(engine, "_divide_bounded", wraps=engine._divide_bounded) as spy, \
                np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                result = [u.hex() for u in np.asarray(rk4(), dtype=float).tolist()]
            except DomainError as exc:
                result = str(exc)
        out.append((result, spy.call_count))
    return out


@st.composite
def rk4_pieces(draw):
    """A piece of 1 to 4 substeps in any market the float kernel serves, with
    zero, subnormal and huge entries in the wealth, the weights and the drift."""
    m = draw(st.integers(1, engine.FLOAT_CELLS))
    n = draw(st.integers(1, engine.FLOAT_CELLS // m))
    points = 2 * draw(st.integers(1, 4)) + 1

    def entries(size, normal):
        out = draw(st.lists(normal, min_size=size, max_size=size))
        for i in draw(st.sets(st.integers(0, size - 1), max_size=3)):
            out[i] = draw(_special | st.floats(0.0, 1e300))
        return np.array(out)

    y = entries(m, st.floats(2.0**-30, 16.0))
    lam = entries(points * m * n, st.floats(0.0, 1.0)).reshape(points, m, n)
    b = entries(n, st.floats(0.0, 4.0))
    v, h = draw(st.floats(0.0, 2.0)), draw(st.floats(1e-3, 1.0))
    return y, lam, b, v, h


@given(rk4_pieces())
@example((np.array([1.5]), np.full((3, 1, 1), 1.0), np.array([0.4]), 0.3, 0.01))  # M = N = 1
@example((np.array([1.0, 2.0]), np.full((5, 2, 1), 0.5), np.array([0.4]), 0.3, 0.1))  # N = 1
@example((np.full(10, 0.5), np.full((5, 10, 1), 0.1), np.array([1.0]), 0.3, 0.1))  # M = 10
@example((np.array([1.0, 1e-310]), np.tile([[1.0, 0.0], [0.0, 1.0]], (5, 1, 1)), np.array([0.4, 0.2]), 0.5, 0.1))
@example((np.array([1.0, 0.0]), np.tile([[1.0, 0.0], [0.0, 1.0]], (5, 1, 1)), np.array([0.4, 0.2]), 0.5, 0.1))
@settings(max_examples=400, deadline=None)
def test_the_generated_rk4_loop_is_the_per_substep_loop_bit_for_bit(piece):
    # the result, a DomainError's time included, and the fallbacks to the
    # array kernel where a stage divides by 0: each stage's rates must be
    # the float kernel's, and the loop must stop at the same substep
    fused, per_substep = _fused_and_per_substep(*piece)
    assert fused == per_substep


def _middle_redo(kind):
    """A 2 x 2 piece of four substeps: from grid point 5 on, investor 2
    alone holds asset 2, and its wealth is 0 there (its shares divide by
    0) or 1e-310 (an invested wealth so small that drift / invested would
    overflow)."""
    lam = np.full((9, 2, 2), 0.5)
    lam[5:] = [[1.0, 0.0], [0.0, 1.0]]
    y = np.array([1.0, 0.0 if kind == "zero-division" else 1e-310])
    return y, lam, np.array([0.4, 0.2]), 0.5, 0.1


@pytest.mark.parametrize("kind", ["zero-division", "wealth-check"])
def test_the_generated_rk4_loop_resumes_after_a_middle_redo(kind):
    y, lam, b, v, h = _middle_redo(kind)
    # substeps 0 and 1 leave the sole holder's wealth where it was
    start = engine._rk4(y, lam[:5], b, v, h, 0.0)
    assert (start[1] == 0.0) if kind == "zero-division" else (0.0 < start[1] < 1e-300)
    (fused, fallbacks), per_substep = _fused_and_per_substep(y, lam, b, v, h)
    # a zero holder: substep 2's second stage alone divides by 0, splits
    # asset 2's drift 1/M on the array kernel, and lifts the holder above
    # 0; a tiny holder needs no fallback at all
    assert fallbacks == (1 if kind == "zero-division" else 0)
    assert (fused, fallbacks) == per_substep
    assert np.all(np.isfinite([float.fromhex(u) for u in fused]))


def _runs(make_run):
    with mock.patch.object(engine, "FLOAT_CELLS", 10**9):
        floats = make_run()
    with mock.patch.object(engine, "FLOAT_CELLS", 0):
        arrays = make_run()
    return floats, arrays


def test_a_discrete_run_agrees_on_both_kernels():
    model = DiscreteIIDModel(
        atoms=(((1.0, 0.0, 0.3), 0.4), ((0.0, 1.0, 0.0), 0.2), ((0.2, 0.0, 1.0), 0.3)),
        probabilities=(0.5, 0.3, 0.2),
    )
    spec = MarketSpec(3, 3, [1.0, 2.0, 0.5], payoff_model=model)
    handles = [survival_strategy(), constant_strategy([0.2, 0.5, 0.3]), constant_strategy([0.6, 0.0, 0.4])]
    floats, arrays = _runs(lambda: recorded(run_discrete, ProfileRun(spec, handles, 300, RngStream(3))))
    # the kernels differ only in the order of operations: the discrete
    # oracle's tolerance (test_engine_oracle.RTOL)
    np.testing.assert_allclose(floats[0].wealth, arrays[0].wealth, rtol=1e-12, atol=0)
    for (traj, lam, _), cells in ((floats, 10**9), (arrays, 0)):
        for k in range(0, traj.n_records, 37):
            with mock.patch.object(engine, "FLOAT_CELLS", cells):
                replay = engine.discrete_step(traj.wealth[k], lam[k], traj.dx[k], traj.dv[k])
            assert np.array_equal(traj.wealth[k + 1], replay), k


def test_a_continuous_run_agrees_on_both_kernels():
    kernel = KernelSpec(
        jump_atoms=(((1.0, 0.0), 0.1, 1.0), ((0.0, 0.8), 0.05, 1.5)),
        drift=(0.4, 0.2),
        v_rate=0.3,
        gamma_v=0.2,
    )
    spec = MarketSpec(3, 2, [1.0, 1.5, 0.7], payoff_model=kernel)
    handles = [
        survival_strategy(),
        constant_strategy([0.3, 0.7]),
        perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 1.0), [0.6, 0.4]),
    ]
    floats, arrays = _runs(
        lambda: run_continuous(ProfileRun(spec, handles, 4.0, RngStream(5), record_dt=0.5))
    )
    assert floats.is_jump.any()
    np.testing.assert_array_equal(floats.times, arrays.times)
    # as above, the continuous oracle's tolerance (test_engine_oracle.CONTINUOUS_RTOL)
    np.testing.assert_allclose(floats.wealth, arrays.wealth, rtol=1e-10, atol=0)


def test_the_size_rule_splits_the_benchmark_markets():
    # 2 x 2 and 3 x 2 step on floats, each on the one kernel generated for
    # its shape, 40 x 10 on arrays
    sizes = {
        (2, 2): engine._float_kernel(2, 2),
        (3, 2): engine._float_kernel(3, 2),
        (40, 10): engine._divide_bounded,
    }
    for (m, n), kernel in sizes.items():
        lam = np.full((1, m, n), 1.0 / n)
        assert engine._steps(lam, np.ones((1, n)), [1.0])[0] is kernel


@st.composite
def float_division_steps(draw):
    """One step of any market the float kernel serves (M N <= FLOAT_CELLS),
    with zero and subnormal entries, an asset nobody holds and wealth that
    may leave a held asset with nothing invested."""
    m = draw(st.integers(1, engine.FLOAT_CELLS))
    n = draw(st.integers(1, engine.FLOAT_CELLS // m))

    def entries(size, normal):
        # mostly normal values, whose sums round, and a few special ones
        out = draw(st.lists(normal, min_size=size, max_size=size))
        for i in draw(st.sets(st.integers(0, size - 1), max_size=size)):
            out[i] = draw(_special | st.floats(0.0, 1e300))
        return out

    y = entries(m, st.floats(2.0**-30, 16.0))
    lam = np.reshape(entries(m * n, st.floats(0.0, 1.0)), (m, n))
    dead = draw(st.integers(-1, n - 1))
    if dead >= 0:
        lam[:, dead] = 0.0
    pay = np.array(entries(n, st.floats(0.0, 4.0)))
    keep = draw(st.sampled_from([0.0, 1.0, -0.3]) | st.floats(-1.0, 1.0))
    return y, lam, pay, keep


@given(float_division_steps())
@example(([2.0], np.array([[0.5]]), np.array([1.5]), 0.7))  # M = N = 1
@example(([1.0, 3.0], np.array([[0.2, 0.0], [0.6, 0.0]]), np.array([1.0, 2.0]), 0.9))  # unclaimed column
@example(([1.0, 0.0], np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]), 0.9))  # held, nothing invested
@settings(max_examples=600, deadline=None)
def test_the_generated_kernel_is_the_reduce_form_bit_for_bit(case):
    y, lam, pay, keep = case
    divide, (step,) = engine._steps(lam[None], pay[None], [keep])
    scaled, claimed, pad, free = engine._claims(lam, pay)
    try:
        reference = reference_divide(y, scaled.tolist(), claimed.tolist(), pad.tolist(), keep, float(free))
    except ZeroDivisionError:
        # a held asset with nothing invested: the step is the array
        # kernel's on the same constants, which splits that asset 1/M
        reference = (engine._divide_bounded(np.array(y), (scaled, claimed, keep)) + free).tolist()
    # float.hex tells -0.0 from 0.0 and matches NaN with NaN
    assert [v.hex() for v in divide(y, step)] == [v.hex() for v in reference]


def _collections(run, profile):
    """Collections per generation while ``run(profile)`` runs, after a full collection."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        run(profile)
    finally:
        gc.callbacks.remove(count)
    return counts


def test_float_steps_trigger_no_collection():
    # a chunk of float steps is a few lists, and its step tuples are made
    # one at a time, so a run stays below the collector's first threshold.
    # Lists per step for a whole 2,000-step block made 21 collections a
    # run, and one of generation 2 every few runs.
    iid = DiscreteIIDModel(atoms=(((1.0, 0.0), 0.3), ((0.0, 1.0), 0.2)), probabilities=(0.6, 0.4))
    spec = MarketSpec(2, 2, [1.0, 1.5], payoff_model=iid)
    discrete = ProfileRun(spec, [survival_strategy(), constant_strategy([0.3, 0.7])], 2000, RngStream(4))
    kernel = KernelSpec(
        jump_atoms=(((1.2, 0.0), 0.1, 1.0), ((0.0, 0.8), 0.05, 1.5)), drift=(0.4, 0.2), v_rate=0.3, gamma_v=0.2
    )
    spec = MarketSpec(3, 2, [1.0, 1.5, 0.7], payoff_model=kernel)
    handles = [
        survival_strategy(),
        constant_strategy([0.3, 0.7]),
        perturbed(survival_strategy(), PerturbationSchedule("inverse_t", 1.0), [0.6, 0.4]),
    ]
    continuous = ProfileRun(spec, handles, 10.0, RngStream(4), record_dt=0.5)
    for run, profile in ((run_discrete, discrete), (run_continuous, continuous)):
        run(profile)  # first-call allocations (lazy imports, the kernel cache)
        assert _collections(run, profile) == [0, 0, 0], run.__name__


def _openblas_picks_its_kernel_at_run_time() -> bool:
    """numpy links a DYNAMIC_ARCH OpenBLAS, on an x86-64 CPU that has AVX2."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        from numpy._core._multiarray_umath import __cpu_features__
    except (ImportError, KeyError, TypeError):
        return False
    return (
        "openblas" in blas.get("name", "").lower()
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
        and __cpu_features__.get("AVX2", False)
    )


DISCRETE = {
    "name": "discrete",
    "market": {"investors": 2, "assets": 2, "initial_wealth": [1.0, 1.5]},
    "payoff_model": {
        "type": "iid",
        "atoms": [
            {"payoff": [1.0, 0.0], "delta": 0.3, "probability": 0.6},
            {"payoff": [0.0, 1.0], "delta": 0.2, "probability": 0.4},
        ],
    },
    "strategies": [{"kind": "survival_exact"}, {"kind": "constant", "weights": [0.3, 0.7]}],
    "horizon": 200,
    "seeds": [0, 1],
}
CONTINUOUS = {
    "name": "continuous",
    "market": {"investors": 3, "assets": 2, "initial_wealth": [1.0, 1.5, 0.7]},
    "payoff_model": {
        "type": "kernel",
        "jump_atoms": [
            {"payoff": [1.2, 0.0], "v": 0.1, "intensity": 1.0},
            {"payoff": [0.0, 0.8], "v": 0.05, "intensity": 1.5},
        ],
        "drift": [0.4, 0.2],
        "v_rate": 0.3,
        "gamma_v": 0.2,
    },
    "strategies": [
        {"kind": "survival_exact"},
        {"kind": "constant", "weights": [0.3, 0.7]},
        {
            "kind": "perturbed",
            "base": {"kind": "survival_exact"},
            "schedule": {"kind": "inverse_t", "coefficient": 1.0},
            "target": [0.6, 0.4],
        },
    ],
    "horizon": 2.0,
    "seeds": [0, 1],
    "record": {"grid": 0.5},
}


def _artifacts(tmp_path, label: str, env: dict, configs=(DISCRETE, CONTINUOUS)) -> dict:
    """The digest of every file ``marketsel run`` writes for ``configs``,
    run in a fresh process with the environment variables ``env`` added."""
    out = tmp_path / label
    out.mkdir()
    for cfg in configs:
        (out / f"{cfg['name']}.json").write_text(json.dumps(cfg))
    script = (
        "import sys\nfrom marketsel.cli import main\n"
        "for name in sys.argv[2:]:\n"
        "    assert main(['run', '--config', f'{sys.argv[1]}/{name}.json', '--out', sys.argv[1]]) == 0\n"
    )
    src = str(Path(marketsel.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", script, str(out), *(cfg["name"] for cfg in configs)]
    subprocess.run(argv, env={**os.environ, **env, "PYTHONPATH": src}, check=True, capture_output=True, timeout=300)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.suffix == ".csv" or p.name.endswith("_summary.json")
    }


@pytest.mark.skipif(
    not _openblas_picks_its_kernel_at_run_time(),
    reason="needs numpy on a DYNAMIC_ARCH OpenBLAS and an x86-64 CPU with AVX2",
)
def test_small_market_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # Haswell's kernels fuse multiply-adds and Sandybridge's do not; the
    # float kernel and the Simpson sum use no BLAS call at all
    haswell = _artifacts(tmp_path, "Haswell", {"OPENBLAS_CORETYPE": "Haswell"})
    assert len(haswell) == 6
    assert haswell == _artifacts(tmp_path, "Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"})


def _numpy_runs_avx512_loops() -> bool:
    """numpy dispatches AVX-512 loops on this x86-64 CPU."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512_SKX", False))


@pytest.mark.skipif(not _numpy_runs_avx512_loops(), reason="needs an x86-64 CPU on which numpy runs AVX-512 loops")
def test_continuous_artifacts_do_not_depend_on_the_exp_loop(tmp_path):
    # numpy's AVX-512 exp rounds some inputs otherwise than the AVX2 loop
    # that this variable leaves it; the continuous engine's total wealth
    # takes its exponentials from libm.  The config has drift and v > 0, so
    # every grid point takes one.
    avx512 = _artifacts(tmp_path, "avx512", {}, [CONTINUOUS])
    assert len(avx512) == 3
    avx2 = _artifacts(tmp_path, "avx2", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, [CONTINUOUS])
    assert avx512 == avx2


@given(st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.0, -1.0]),
                min_size=1, max_size=4))
def test_the_float_wealth_rule_is_the_array_rule(y):
    # the check the generated RK4 loop writes out on float locals is the
    # rule on an array: non-negative and finite with a positive total, NaN
    # anywhere failing
    a = np.array(y)
    with np.errstate(invalid="ignore"):
        expected = bool(0.0 <= a.min() and 0.0 < a.max() < math.inf)
    names = [f"n{i}" for i in range(len(y))]
    assert eval(engine._wealth_check(names), {"inf": math.inf}, dict(zip(names, y))) == expected
