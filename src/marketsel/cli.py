"""Configuration-driven experiment runner.

Subcommands:

  run             execute a scenario (built-in by name, or a JSON config
                  file) over a seed batch, writing one trajectory CSV per
                  seed plus an aggregate summary JSON
  list-scenarios  print the built-in scenario catalog
  validate        schema-check a config file and report every violation

Configs are strict JSON validated against the shipped schema
(``marketsel/schemas/scenario.schema.json``); unknown keys anywhere are
rejected so typos cannot silently change an experiment.  Output is a pure
function of (config, seed): trajectory CSVs hold exactly the text of
``"%.17g"`` for each value (round-trip exact for doubles) and summaries
have sorted keys.  The CSV text is rendered in whole-array numpy passes
from a longdouble product; a value whose rounding that product cannot
settle (a near-tie, about 1-2% of values) is formatted with ``"%.17g"``
itself, so the width of longdouble changes only the speed: where it is
plain double, every value is.  On one machine with one numpy and BLAS
build identical inputs give byte-identical files, and parallel seed
execution matches serial execution exactly.  Small markets
(``engine.FLOAT_CELLS``) divide payoffs in straight-line Python float
code generated for their shape, every sum formed left to right (between
continuous jumps, in one generated RK4 loop with the same sums), and the
continuous diagnostics sum in grid order, so neither depends on the BLAS
kernel either; wide markets may differ in the last bits between
machines.  The continuous total wealth takes its exponentials from
libm, but the Gibbs gap takes numpy's ``log``, whose loop numpy picks by
CPU feature (AVX-512 or not), so the last bits of a run whose gap meets
an input the two loops round differently can differ between CPUs even
with one build.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import jsonschema
import numpy as np

from .core import DomainError, MarketSpec, Trajectory, as_simplex
from .diagnostics import run_summary, wilson_interval
from .engine import ProfileRun, profile_errors, run as run_engine
from .payoffs import DiscreteIIDModel, KernelSpec, MarkovModulatedModel, RngStream
from .scenarios import get_scenario, list_scenarios
from .strategies import (
    PerturbationSchedule,
    constant_strategy,
    handle_errors,
    perturbed,
    survival_mc_strategy,
    survival_strategy,
    table_strategy,
)

OUTPUT_DIR_ENV = "MARKETSEL_OUT"
DEFAULT_OUTPUT_DIR = "marketsel-out"

# Values rendered per chunk by trajectory_csv, so one chunk's temporaries
# stay near 256 KiB whatever the trajectory's shape.  Larger chunks are
# faster on wide trajectories, but their temporaries raise the heap's
# high-water mark of a long-lived process for good.
CSV_CHUNK_VALUES = 1024


class ConfigError(Exception):
    """Invalid scenario configuration; carries one message per violation."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: everything needed to run one seed batch."""

    name: str
    market: MarketSpec
    strategies: tuple
    horizon: float
    seeds: tuple
    record_dt: Optional[float]
    dt: float
    survival_floor: float
    trend_tol: float


def _schema() -> dict:
    path = resources.files("marketsel").joinpath("schemas/scenario.schema.json")
    with path.open() as fh:
        return json.load(fh)


def _schema_errors(data: dict) -> list:
    validator = jsonschema.Draft202012Validator(_schema())
    found = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    messages = []
    for err in found:
        best = jsonschema.exceptions.best_match([err])
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in best.absolute_path
        )
        messages.append(f"{path}: {best.message}")
    return messages


def _build_model(spec: dict, errors: list, path: str):
    kind = spec.get("type")
    try:
        if kind == "iid":
            return _build_iid(spec, errors, path)
        if kind == "markov":
            regimes = []
            for i, reg in enumerate(spec["regimes"]):
                model = _build_iid(reg, errors, f"{path}.regimes[{i}]")
                if model is not None:
                    regimes.append(model)
            if len(regimes) != len(spec["regimes"]):
                return None
            return MarkovModulatedModel(
                states=tuple(spec["states"]),
                transition=spec["transition"],
                regimes=tuple(regimes),
                initial_state=spec.get("initial_state", 0),
            )
        if kind == "kernel":
            return KernelSpec(
                jump_atoms=tuple(
                    (tuple(a["payoff"]), a["v"], a["intensity"]) for a in spec["jump_atoms"]
                ),
                drift=np.asarray(spec["drift"], dtype=float),
                v_rate=spec.get("v_rate", 0.0),
                gamma_v=spec.get("gamma_v"),
            )
    except DomainError as exc:
        errors.append(f"{path}: {exc}")
        return None
    errors.append(f"{path}.type: unknown model type {kind!r}")
    return None


def _build_iid(spec: dict, errors: list, path: str):
    atoms = tuple((tuple(atom["payoff"]), atom["delta"]) for atom in spec["atoms"])
    probs = tuple(atom["probability"] for atom in spec["atoms"])
    try:
        return DiscreteIIDModel(atoms=atoms, probabilities=probs)
    except DomainError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _simplex(values, errors: list, path: str):
    try:
        return as_simplex(values)
    except DomainError as exc:
        errors.append(f"{path}: {exc}")
        return None


def _build_strategy(spec: dict, errors: list, path: str):
    kind = spec["kind"]
    try:
        if kind == "constant":
            w = _simplex(spec["weights"], errors, f"{path}.weights")
            return constant_strategy(w) if w is not None else None
        if kind == "survival_exact":
            return survival_strategy()
        if kind == "survival_mc":
            return survival_mc_strategy(spec["samples"])
        if kind == "perturbed":
            base = _build_strategy(spec["base"], errors, f"{path}.base")
            target = _simplex(spec["target"], errors, f"{path}.target")
            sched = spec["schedule"]
            schedule = PerturbationSchedule(
                kind=sched["kind"], coefficient=sched.get("coefficient", 0.0)
            )
            if base is None or target is None:
                return None
            return perturbed(base, schedule, target)
        if kind == "table":
            default = [(t, w) for t, w in spec["default"]]
            per_regime = None
            if "regimes" in spec:
                per_regime = {}
                for key, entries in spec["regimes"].items():
                    if int(key) in per_regime:
                        errors.append(f"{path}.regimes.{key}: another key names regime {int(key)}")
                        return None
                    per_regime[int(key)] = [(t, w) for t, w in entries]
            return table_strategy(default, per_regime)
    except DomainError as exc:
        errors.append(f"{path}: {exc}")
        return None
    errors.append(f"{path}.kind: unknown strategy kind {kind!r}")
    return None


def _expand_seeds(spec) -> list:
    if isinstance(spec, dict):
        return list(range(spec["base"], spec["base"] + spec["count"]))
    return list(spec)


def _seed_errors(seeds: list, where: str) -> list:
    """Violations of a seed batch: it must be non-empty, with distinct seeds in [0, 2**64)."""
    if not seeds:
        return [f"{where}: selects no seeds"]
    errors = []
    if min(seeds) < 0 or max(seeds) >= 2**64:
        errors.append(f"{where}: seeds must lie in [0, 2**64)")
    if len(set(seeds)) != len(seeds):
        errors.append(f"{where}: duplicate seeds")
    return errors


def _non_finite(value, path: str = "$") -> list:
    """A violation for every number in a JSON value that is not a finite double, with its path.

    Python's ``json`` reads ``NaN`` and ``Infinity``, schema bounds let
    NaN through, and it reads an integer literal of any length, which
    ``float`` cannot convert once it exceeds the largest double.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path}: numbers must be finite, got {value!r}"]
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return [f"{path}: numbers must be finite, got an integer too large for a double"]
    if isinstance(value, dict):
        return [e for k, v in value.items() for e in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [e for i, v in enumerate(value) for e in _non_finite(v, f"{path}[{i}]")]
    return []


def parse_config_dict(data: dict) -> ScenarioConfig:
    """Validate a config mapping and build the runnable scenario."""
    if not isinstance(data, dict):
        raise ConfigError(["$: configuration must be a JSON object"])
    errors = _schema_errors(data) or _non_finite(data)
    if errors:
        raise ConfigError(errors)

    errors = []
    model = _build_model(data["payoff_model"], errors, "$.payoff_model")
    strategies = [
        _build_strategy(spec, errors, f"$.strategies[{i}]")
        for i, spec in enumerate(data["strategies"])
    ]
    market_spec = data["market"]
    market = MarketSpec(
        num_investors=market_spec["investors"],
        num_assets=market_spec["assets"],
        initial_wealth=market_spec["initial_wealth"],
        payoff_model=model,
    )
    horizon = float(data["horizon"])
    record_dt = data.get("record", {}).get("grid")
    dt = data.get("integrator", {}).get("dt", ProfileRun.dt)
    if model is not None:  # a model that failed to build has reported its errors
        errors += [f"${p}: {msg}" for p, msg in profile_errors(market, strategies, horizon, dt, record_dt)]
        for i, handle in enumerate(strategies):
            if handle is not None:
                errors += [f"$.strategies[{i}]{p}: {msg}" for p, msg in handle_errors(handle, model)]
    seeds = _expand_seeds(data["seeds"])
    errors += _seed_errors(seeds, "$.seeds")
    if errors:
        raise ConfigError(errors)

    diag = data.get("diagnostics", {})
    return ScenarioConfig(
        name=data.get("name", "scenario"),
        market=market,
        strategies=tuple(strategies),
        horizon=horizon,
        seeds=tuple(seeds),
        record_dt=record_dt,
        dt=dt,
        survival_floor=diag.get("survival_floor", 0.05),
        trend_tol=diag.get("trend_tol", 1e-4),
    )


def build_run(cfg: ScenarioConfig, seed: int) -> ProfileRun:
    """Materialize the engine assignment for one seed."""
    return ProfileRun(
        market=cfg.market,
        strategies=list(cfg.strategies),
        horizon=cfg.horizon,
        rng=RngStream(seed=seed, stream=0),
        dt=cfg.dt,
        record_dt=cfg.record_dt,
    )


# Decimal exponents of finite nonzero doubles, widened by one each way for
# a log10 that lands on the wrong side of a power of ten.
_G17_K_MIN, _G17_K_MAX = -325, 309


def _g17_tables() -> tuple:
    """The lookup tables of ``_g17``, built once per process with numpy.

    ``_g17`` lays each value out in one 48-byte row of six words: byte 0
    the sign, 1-5 ``0.000``, 6 the leading digit, 7 a point slot, 8-39
    four groups of four digits each followed by a point slot, 40 ``e``,
    41 the exponent's sign, 42-44 its digits and 45 the separator.  A
    keep-mask, chosen by sign, exponent class and count of significant
    digits, zeroes every byte that ``%.17g`` does not print.
    """
    q = range(16 - _G17_K_MAX, 17 - _G17_K_MIN)  # 16 - k for every k
    with np.errstate(over="ignore"):  # where longdouble is plain double
        pow10 = np.array([f"1e{e}" for e in q]).astype(np.longdouble)

    # The tables are built one digit at a time, so that no temporary is
    # large enough to stay resident once freed, and with the integer loops
    # that _g17 runs anyway, so that no other library code is paged in.
    def digit(n, d):
        return n // d - n // (10 * d) * 10

    n = np.arange(10000, dtype=np.int64)
    group = np.full((10000, 8), ord("."), np.uint8)
    zeros = np.zeros(10000, np.int64)
    run = np.ones(10000, bool)
    for j, d in enumerate((1000, 100, 10, 1)):
        group[:, 2 * j] = digit(n, d) + ord("0")
    for d in (1, 10, 100, 1000):
        run &= digit(n, d) == 0
        zeros += run
    lead = np.tile(np.frombuffer(b"-0.000d.", np.uint8), (10, 1))
    lead[:, 6] = np.arange(10) + ord("0")

    x = np.arange(_G17_K_MIN, _G17_K_MAX + 2)  # every exponent, carry included
    exp = np.tile(np.frombuffer(b"e+000,\0\0", np.uint8), (x.size, 2, 1))
    exp[:, 1, 5] = ord("\n")
    exp[x < 0, :, 1] = ord("-")
    for j, d in enumerate((100, 10, 1)):
        exp[:, :, 2 + j] = (digit(abs(x), d) + ord("0"))[:, None]

    # Exponent classes 0-20 print X = class - 4 in [-4, 16] in fixed
    # notation; 21 prints a two-digit exponent and 22 a three-digit one.
    cls = np.arange(23)[:, None]
    sci = cls >= 21
    fixed = ~sci & (cls >= 4)
    small = ~sci & (cls < 4)
    sig = np.arange(1, 18)
    shown = np.where(fixed, np.maximum(sig, cls - 3), sig)  # digits printed
    point = np.where(fixed, sig > cls - 3, sci & (sig > 1))
    slot = np.where(sci, 0, cls - 4)
    keep = np.zeros((2, 23, 17, 48), bool)
    keep[..., 6:39:2] = np.arange(17) < shown[..., None]
    keep[..., 7:40:2] = (np.arange(17) == slot[..., None]) & point[..., None]
    keep[..., 1:6] = small[..., None] & (np.arange(5) < 5 - cls[..., None])
    keep[:, 21, :, 40:45] = np.array([1, 1, 0, 1, 1], bool)
    keep[:, 22, :, 40:45] = True
    keep[1, :, :, 0] = True
    keep[..., 45] = True
    masks = np.zeros(keep.shape, np.uint8)
    masks[keep] = 0xFF
    masks = masks.view(np.uint64).reshape(-1, 6)
    mask_row = np.where(abs(x) < 100, 21, 22) * 17 - 1  # by exponent, less one
    mask_row[-4 - _G17_K_MIN:17 - _G17_K_MIN] = np.arange(21) * 17 - 1
    return (
        pow10,
        group.view(np.uint64)[:, 0],
        zeros,
        lead.view(np.uint64)[:, 0],
        exp.view(np.uint64).reshape(-1),
        mask_row,
        masks,
    )


_POW10, _GROUP, _ZEROS, _LEAD, _EXP, _MASK_ROW, _MASKS = _g17_tables()
_IDENTITY = bytes(range(256))
# Bound on the error of the fraction of N that _g17 forms: one rounding of
# the power of ten and one of the product, each within half an ulp (eps / 2
# relative), on an N below 10**17, with 1% to spare for the product of the
# two; and 2**-53 for rounding the fraction to a double.  Where longdouble
# is plain double it exceeds 0.5, so every value is formatted one at a time.
MARGIN = 1.01e17 * float(np.finfo(np.longdouble).eps) + 2.0**-53


def _g17(values, newline, buf: bytearray) -> bytes:
    """``format(v, ".17g")`` of each float64 in ``values``, each followed
    by ``"\\n"`` where ``newline`` is set and by ``","`` elsewhere.

    ``buf`` holds the rows, 48 bytes a value; a caller may reuse it.
    N = |v|·10**(16 - k), with k the decimal exponent of v, is formed in
    longdouble and rounded to the 17 significant digits.  A value is
    formatted by ``format`` itself where N lies within MARGIN of a
    rounding tie, where N falls outside [10**16, 10**17), and where it is
    not finite, so the text is always exact.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nonzero = np.isfinite(values) & (values != 0)
        a = np.where(nonzero, abs(values), 1.0)
        k = np.floor(np.log10(a)).astype(np.intp)
        a = a.astype(np.longdouble)
        n = a * _POW10[_G17_K_MAX - k]
        off = (n < 1e16) | (n >= 1e17)
        if off.any():
            i = np.flatnonzero(off)
            k[i] += np.where(n[i] < 1e16, -1, 1)
            n[i] = a[i] * _POW10[_G17_K_MAX - k[i]]
            off[i] = (n[i] < 1e16) | (n[i] >= 1e17)
        r = n.astype(np.int64)
        half = (n - r).astype(np.float64) - 0.5
        r += half > 0
        fast = nonzero & ~off & (abs(half) > MARGIN)
    r[~fast] = 0  # zeros print "0"; the rest are overwritten below
    k[~fast] = 0
    carry = r == 10**17
    r[carry] = 10**16
    k += carry
    # r = d0 followed by four groups of four digits
    hi = r // 10**8
    lo = r - hi * 10**8
    d0g1 = hi // 10000
    d0 = d0g1 // 10000
    g3 = lo // 10000
    groups = (d0g1 - d0 * 10000, hi - d0g1 * 10000, g3, lo - g3 * 10000)
    tz = np.zeros(values.size, np.int64)  # trailing zeros: at most 16, as d0 > 0 or r == 0
    run = np.ones(values.size, bool)
    for g in reversed(groups):
        tz += run * _ZEROS[g]
        run &= g == 0
    x = k - _G17_K_MIN
    out = np.frombuffer(buf, np.uint64).reshape(-1, 6)
    row = _MASK_ROW[x] + (17 - tz) + 391 * (values.view(np.int64) < 0)  # the sign bit
    np.take(_MASKS, row, axis=0, out=out, mode="clip")
    out[:, 0] &= _LEAD[d0]
    for j, g in enumerate(groups, 1):
        out[:, j] &= _GROUP[g]
    out[:, 5] &= _EXP[2 * x + newline]
    slow = np.flatnonzero(~fast & (values != 0))
    if slow.size:
        text = b"".join(format(v, ".17g").encode().ljust(45, b"\0") for v in values[slow].tolist())
        out.view(np.uint8)[slow, :45] = np.frombuffer(text, np.uint8).reshape(-1, 45)
    return bytes(buf).translate(_IDENTITY, b"\0")  # as bytes and with a table: 2x faster


def _csv_lines(columns) -> list:
    """The CSV lines of 2-D (rows, c) or 1-D (rows,) arrays side by side,
    as strings of at most CSV_CHUNK_VALUES values each."""
    rows = len(columns[0])
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    parts = []
    buf = bytearray()
    for i0 in range(0, rows * width, CSV_CHUNK_VALUES):
        i1 = min(i0 + CSV_CHUNK_VALUES, rows * width)
        if len(buf) != 48 * (i1 - i0):
            buf = bytearray(48 * (i1 - i0))
        r0 = i0 // width
        block = np.column_stack([c[r0:-(-i1 // width)] for c in columns]).ravel()
        newline = np.arange(i0, i1) % width == width - 1
        parts.append(_g17(block[i0 - r0 * width:i1 - r0 * width], newline, buf).decode("ascii"))
    return parts


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV, ``"%.17g"`` per value.

    The text is exactly ``format(v, ".17g")`` of each value, which is
    ``"%.17g" % v`` for every double, non-finite values and signed zeros
    included.  ``_g17`` renders whole chunks of values in numpy passes
    and formats one at a time each value whose rounding longdouble
    cannot settle, so the width of longdouble changes only the speed.
    """
    m = traj.num_investors
    header = (
        ["t"]
        + [f"Y{i + 1}" for i in range(m)]
        + [f"r{i + 1}" for i in range(m)]
        + ["W", "H"]
        + [f"UH{i + 1}" for i in range(m)]
        + [f"closeness{i + 1}" for i in range(m)]
    )
    columns = (
        traj.times, traj.wealth, traj.rel, traj.total,
        traj.pressure, traj.gap_integral, traj.closeness,
    )
    return "".join([",".join(header) + "\n", *_csv_lines(columns)])


def run_seed(cfg: ScenarioConfig, seed: int, *, csv_path: Optional[str] = None) -> dict:
    """Execute one seed of a parsed scenario; the worker unit for parallel batches.

    Returns {"seed", "summary"}.  With ``csv_path`` the trajectory CSV is
    written there by the process that ran the seed, so its text never
    crosses a process pool; without it no CSV is rendered.
    """
    traj = run_engine(build_run(cfg, seed))
    recording = traj.validate()
    summary = run_summary(traj, floor=cfg.survival_floor, trend_tol=cfg.trend_tol)
    summary["seed"] = seed
    if recording:
        summary["recording_violations"] = recording
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(trajectory_csv(traj))
    return {"seed": seed, "summary": summary}


def _csv_path(out_dir: str, name: str, seed: int) -> str:
    return os.path.join(out_dir, f"{name}_seed{seed}.csv")


def _aggregate(cfg: ScenarioConfig, per_seed: list) -> dict:
    ok = [r for r in per_seed if "error" not in r]
    n = len(ok)
    investors = []
    if n:
        m = len(ok[0]["summary"]["investors"])
        for i in range(m):
            rows = [r["summary"]["investors"][i] for r in ok]
            survived = sum(1 for row in rows if row["survives"])
            lo, hi = wilson_interval(survived, n)
            investors.append(
                {
                    "survives_count": survived,
                    "survives_fraction": survived / n,
                    "survives_ci95": [lo, hi],
                    "mean_terminal_rel": float(np.mean([row["terminal_rel"] for row in rows])),
                    "mean_growth_terminal": float(
                        np.mean([row["growth_terminal"] for row in rows])
                    ),
                }
            )
    return {
        "scenario": cfg.name,
        "survival_floor": cfg.survival_floor,
        "seed_count": len(cfg.seeds),
        "completed": n,
        "failed": len(per_seed) - n,
        "investors": investors,
    }


def _seed_result(seed: int, call) -> dict:
    try:
        return call()
    except OSError:
        raise  # an artifact that cannot be written fails the whole run
    except Exception as exc:  # noqa: BLE001 - per-seed failures are data
        return {"seed": seed, "error": str(exc), "error_type": type(exc).__name__}


def run_batch(
    cfg: ScenarioConfig,
    jobs: int = 1,
    seeds=None,
    out_dir: Optional[str] = None,
) -> dict:
    """Run every seed of a parsed scenario, serially or with a worker pool.

    Returns {"config", "per_seed", "aggregate"}; per-seed failures are
    recorded as {"seed", "error", "error_type"} entries, the exception's
    message and class name, rather than aborting the batch.
    With ``out_dir`` every seed writes ``<name>_seed<seed>.csv`` there
    itself, and an OSError from that write aborts the batch; without it
    no CSV is rendered.  Results are keyed and ordered by seed, so the
    output is identical for any job count.
    """
    batch = sorted(seeds) if seeds is not None else list(cfg.seeds)

    def csv_kwargs(seed):
        return {} if out_dir is None else {"csv_path": _csv_path(out_dir, cfg.name, seed)}

    per_seed = []
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                seed: pool.submit(run_seed, cfg, seed, **csv_kwargs(seed))
                for seed in batch
            }
            for seed in batch:
                per_seed.append(_seed_result(seed, futures[seed].result))
    else:
        for seed in batch:
            per_seed.append(
                _seed_result(seed, lambda: run_seed(cfg, seed, **csv_kwargs(seed)))
            )
    return {"config": cfg, "per_seed": per_seed, "aggregate": _aggregate(cfg, per_seed)}


def run_scenario(config, out_dir: str, jobs: int = 1, seeds=None) -> tuple:
    """Run a batch and write its artifacts.

    ``config`` is a ScenarioConfig, or a config mapping, which is parsed
    first.  Writes ``<name>_seed<seed>.csv`` per seed and
    ``<name>_summary.json``; returns (exit_code, written paths).  The exit
    code is 2 when every seed failed, else 0.
    """
    cfg = config if isinstance(config, ScenarioConfig) else parse_config_dict(config)
    os.makedirs(out_dir, exist_ok=True)
    result = run_batch(cfg, jobs=jobs, seeds=seeds, out_dir=out_dir)
    paths = []
    summary_per_seed = []
    for entry in result["per_seed"]:
        if "error" in entry:
            summary_per_seed.append(entry)
            continue
        paths.append(_csv_path(out_dir, cfg.name, entry["seed"]))
        summary_per_seed.append(entry["summary"])
    summary = _json_safe({"aggregate": result["aggregate"], "per_seed": summary_per_seed})
    summary_path = os.path.join(out_dir, f"{cfg.name}_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    paths.append(summary_path)
    agg = result["aggregate"]
    return (2 if agg["failed"] and not agg["completed"] else 0), paths


def _json_safe(obj):
    """Replace non-finite floats with None: strict JSON has no Infinity."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _parse_seeds_arg(text: str) -> list:
    try:
        if ":" in text:
            base, count = text.split(":", 1)
            seeds = list(range(int(base), int(base) + int(count)))
        else:
            seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(
            [f"--seeds: expected 'a,b,c' or 'base:count' with integers, got {text!r}"]
        ) from None
    errors = _seed_errors(seeds, "--seeds")
    if errors:
        raise ConfigError(errors)
    return seeds


def _json_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigError([f"$: not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["$: configuration must be a JSON object"])
    return data


def _read_config(path) -> dict:
    """The JSON object in the config file at ``path``; bytes that are not UTF-8 are a config error."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"$: not UTF-8 text: {exc}"]) from exc
    return _json_object(text)


def _load_config_arg(args) -> dict:
    if args.config and args.scenario:
        raise ConfigError(["give either --config or --scenario, not both"])
    if args.config:
        return _read_config(args.config)
    if args.scenario:
        try:
            return get_scenario(args.scenario).config
        except KeyError as exc:
            raise ConfigError([str(exc)]) from exc
    raise ConfigError(["run needs --config FILE or --scenario NAME"])


def _cmd_run(args) -> int:
    data = _load_config_arg(args)
    if args.grid is not None:
        data = {**data, "record": {**data.get("record", {}), "grid": args.grid}}
    cfg = parse_config_dict(data)
    seeds = None if args.seeds is None else _parse_seeds_arg(args.seeds)
    if args.jobs < 1:
        raise ConfigError([f"--jobs: must be at least 1, got {args.jobs}"])
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV, DEFAULT_OUTPUT_DIR)
    code, paths = run_scenario(cfg, out_dir, jobs=args.jobs, seeds=seeds)
    print(f"{cfg.name}: wrote {len(paths)} files to {out_dir}")
    if code:
        print("runtime failure: every seed failed; the summary lists the errors", file=sys.stderr)
    return code


def _cmd_list(_args) -> int:
    for info in list_scenarios():
        print(info.name)
        print(f"  exercises: {info.exercises}")
        print(f"  expected:  {info.expected}")
    return 0


def _cmd_validate(args) -> int:
    parse_config_dict(_read_config(args.config))
    print(f"{args.config}: valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketsel",
        description="Run and verify market-selection game scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario over a seed batch")
    p_run.add_argument("--config", help="path to a scenario JSON file")
    p_run.add_argument("--scenario", help="name of a built-in scenario")
    p_run.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or ./{DEFAULT_OUTPUT_DIR})")
    p_run.add_argument("--seeds", help="override seeds: 'a,b,c' or 'base:count'")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel workers over seeds")
    p_run.add_argument("--grid", type=float, help="continuous-time recording grid spacing")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list-scenarios", help="print the built-in scenario catalog")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="validate a scenario config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
