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
function of (config, seed): trajectory CSVs are written with 17
significant digits (round-trip exact for doubles) and summaries with
sorted keys, so on one machine with one numpy and BLAS build identical
inputs give byte-identical files, and parallel seed execution matches
serial execution exactly.  Small markets (``engine.FLOAT_CELLS``)
divide payoffs in straight-line Python float code generated for their
shape, every sum formed left to right (between continuous jumps, in one
generated RK4 loop with the same sums), and the continuous diagnostics
sum in grid order, so neither depends on the BLAS kernel either; wide
markets may differ in the last bits between machines.  The continuous
total wealth takes its exponentials from libm, but the Gibbs gap takes
numpy's ``log``, whose loop numpy picks by CPU feature (AVX-512 or not),
so the last bits of a run whose gap meets an input the two loops round
differently can differ between CPUs even with one build.

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
from .engine import ProfileRun, run as run_engine
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

# Rows rendered per block by trajectory_csv, so the float table it builds
# stays small whatever the horizon.
CSV_BLOCK_ROWS = 128


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
    market_spec = data["market"]
    n_inv = market_spec["investors"]
    n_assets = market_spec["assets"]
    if len(market_spec["initial_wealth"]) != n_inv:
        errors.append("$.market.initial_wealth: need one value per investor")
    model = _build_model(data["payoff_model"], errors, "$.payoff_model")
    if model is not None and model.num_assets != n_assets:
        errors.append(
            f"$.payoff_model: payoffs have {model.num_assets} assets, market declares {n_assets}"
        )

    strategies = [
        _build_strategy(spec, errors, f"$.strategies[{i}]")
        for i, spec in enumerate(data["strategies"])
    ]
    if len(strategies) != n_inv:
        errors.append(
            f"$.strategies: need exactly one strategy per investor "
            f"(got {len(strategies)}, expected {n_inv})"
        )
    for i, handle in enumerate(strategies):
        if handle is not None and model is not None:
            errors += [f"$.strategies[{i}]{p}: {msg}" for p, msg in handle_errors(handle, model)]

    seeds = _expand_seeds(data["seeds"])
    errors += _seed_errors(seeds, "$.seeds")

    horizon = data["horizon"]
    if not isinstance(model, KernelSpec) and model is not None:
        if float(horizon) != int(horizon):
            errors.append("$.horizon: discrete models need an integer number of steps")

    diag = data.get("diagnostics", {})
    if errors:
        raise ConfigError(errors)

    market = MarketSpec(
        num_investors=n_inv,
        num_assets=n_assets,
        initial_wealth=np.asarray(market_spec["initial_wealth"], dtype=float),
        payoff_model=model,
    )
    return ScenarioConfig(
        name=data.get("name", "scenario"),
        market=market,
        strategies=tuple(strategies),
        horizon=float(horizon),
        seeds=tuple(seeds),
        record_dt=data.get("record", {}).get("grid"),
        dt=data.get("integrator", {}).get("dt", 0.01),
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


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV, 17 significant digits per value.

    ``"%.17g" % v`` and ``format(v, ".17g")`` give the same text for
    every double, non-finite values and signed zeros included.
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
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    for k0 in range(0, traj.times.size, CSV_BLOCK_ROWS):
        rows = slice(k0, k0 + CSV_BLOCK_ROWS)
        block = np.column_stack(
            (
                traj.times[rows],
                traj.wealth[rows],
                traj.rel[rows],
                traj.total[rows],
                traj.pressure[rows],
                traj.gap_integral[rows],
                traj.closeness[rows],
            )
        )
        lines.extend(row_format % tuple(row) for row in block.tolist())
    return "\n".join(lines) + "\n"


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
        return {"seed": seed, "error": str(exc)}


def run_batch(
    cfg: ScenarioConfig,
    jobs: int = 1,
    seeds=None,
    out_dir: Optional[str] = None,
) -> dict:
    """Run every seed of a parsed scenario, serially or with a worker pool.

    Returns {"config", "per_seed", "aggregate"}; per-seed failures are
    recorded as {"seed", "error"} entries rather than aborting the batch.
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
            summary_per_seed.append({"seed": entry["seed"], "error": entry["error"]})
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
