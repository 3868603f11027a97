"""The two division kernels: Python floats in small markets, numpy arrays in wide ones.

``engine._steps`` gives a market of at most ``FLOAT_CELLS`` weights the
float kernel ``_divide`` and a wider one the array kernel
``_divide_array``.  Both are checked here against the division rule in
exact rational arithmetic, the one RK4 substep on one kernel's rates
against the same substep on the other's, whole runs on one kernel
against the other, and the artifacts of small markets against the BLAS
kernel numpy happens to pick at run time.
"""

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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import marketsel
from marketsel import (
    DiscreteIIDModel,
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
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
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
@settings(max_examples=400, deadline=None)
def test_both_kernels_lie_within_the_operation_count_bound_of_the_exact_rule(case):
    y, lam, pay, keep = case
    m, n = lam.shape
    scaled = engine._claims(lam, pay)[0]  # the weights both kernels read
    exact, invested = _exact_rule(y.tolist(), scaled.tolist(), pay.tolist(), keep)
    # the bound below assumes no invested wealth is subnormal, so that
    # products underflowing there do not count
    assume(all(inv == 0 or inv >= 2.0**-960 for inv in invested))
    held_idle = any(top > 0.0 and inv == 0 for top, inv in zip(scaled.max(axis=0), invested))
    for steps in (FLOATS, ARRAYS):
        divide, (step,) = steps(lam[None], pay[None], [keep])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                got = divide(y.tolist() if divide is engine._divide else y, step)
            except ZeroDivisionError:
                got = None
        if held_idle:
            # a held asset with no invested wealth: the fast order must not
            # return a finite answer, so that the bounded order redoes it
            assert got is None or not np.isfinite(got).all()
            continue
        # invested wealth: M roundings; its quotient: 1; the payout sum: N;
        # keep, the product with y and the free share: 3.  Products that
        # underflow add at most 2^-1075 each, N y_max + 1 of them in all.
        slack = Fraction(n * float(y.max()) + 1.0) * Fraction(TINY)
        for i, value in enumerate(np.asarray(got).tolist()):
            bound = Fraction(_gamma(m + n + 4)) * exact[i] + slack
            assert abs(Fraction(value) - exact[i]) <= bound, (divide.__name__, i, value, float(exact[i]))


def _grid(rng, m, n, substeps, sole_holder=False):
    lam = rng.dirichlet(np.ones(n), size=(2 * substeps + 1, m))
    if sole_holder:  # investor m - 1 alone holds asset n - 1
        lam[:, :, -1] = 0.0
        lam[:, -1, :] = 0.0
        lam[:, -1, -1] = 1.0
        lam[:, :-1, :-1] /= lam[:, :-1, :-1].sum(axis=2, keepdims=True)
    return lam


def _rk4(y, lam, b, v, h, cells):
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
    # one _substep on either kernel's rates: only the rates' order differs
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
    # the sole holder of the last asset starts at 1e-310, so drift / invested
    # overflows on the fast order and both kernels take the bounded one
    rng = np.random.default_rng([7, m, n])
    lam = _grid(rng, m, n, 50, sole_holder=True)
    b = rng.uniform(0.2, 1.0, n)
    y0 = np.append(rng.uniform(0.5, 2.0, m - 1), 1e-310)
    floats, redo_floats = _rk4(y0, lam, b, 0.5, 0.02, 10**9)
    arrays, redo_arrays = _rk4(y0, lam, b, 0.5, 0.02, 0)
    assert redo_floats > 0 and redo_arrays > 0
    assert np.all(np.isfinite(floats)) and floats[-1] > 0.01
    np.testing.assert_allclose(floats, arrays, rtol=RK4_RTOL, atol=0)


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
    # 2 x 2 and 3 x 2 step on floats, 40 x 10 on arrays
    sizes = {(2, 2): engine._divide, (3, 2): engine._divide, (40, 10): engine._divide_array}
    for (m, n), kernel in sizes.items():
        lam = np.full((1, m, n), 1.0 / n)
        assert engine._steps(lam, np.ones((1, n)), [1.0])[0] is kernel


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


def _artifacts(tmp_path, coretype: str) -> dict:
    """The digest of every file ``marketsel run`` writes for both configs,
    run in a fresh process on the BLAS kernel ``coretype``."""
    out = tmp_path / coretype
    out.mkdir()
    for cfg in (DISCRETE, CONTINUOUS):
        (out / f"{cfg['name']}.json").write_text(json.dumps(cfg))
    script = (
        "import sys\nfrom marketsel.cli import main\n"
        "for name in ('discrete', 'continuous'):\n"
        "    assert main(['run', '--config', f'{sys.argv[1]}/{name}.json', '--out', sys.argv[1]]) == 0\n"
    )
    src = str(Path(marketsel.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": src}
    argv = [sys.executable, "-c", script, str(out)]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
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
    haswell = _artifacts(tmp_path, "Haswell")
    assert len(haswell) == 6
    assert haswell == _artifacts(tmp_path, "Sandybridge")


@given(st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.0, -1.0]),
                min_size=1, max_size=4))
def test_the_float_wealth_rule_is_the_array_rule(y):
    # non-negative and finite with a positive total, NaN anywhere failing
    a = np.array(y)
    with np.errstate(invalid="ignore"):
        expected = bool(0.0 <= a.min() and 0.0 < a.max() < math.inf)
    assert engine._wealth_rule(y) == expected
