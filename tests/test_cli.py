"""CLI and config-pipeline tests: strict schema validation with paths,
reproducible CSV/JSON artifacts, parallel-equals-serial execution, the
built-in catalog and the command-line entry points."""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from marketsel.cli import (
    ConfigError,
    _read_config,
    build_run,
    main,
    parse_config_dict,
    run_batch,
    run_scenario,
    run_seed,
    trajectory_csv,
)
from marketsel.engine import _alloc
from marketsel.engine import run as run_engine
from marketsel.scenarios import CATALOG, get_scenario, list_scenarios


def minimal_config(**overrides):
    cfg = {
        "name": "mini",
        "market": {"investors": 2, "assets": 2, "initial_wealth": [1.0, 1.0]},
        "payoff_model": {
            "type": "iid",
            "atoms": [
                {"payoff": [1.0, 0.0], "delta": 0.5, "probability": 0.6},
                {"payoff": [0.0, 1.0], "delta": 0.5, "probability": 0.4},
            ],
        },
        "strategies": [
            {"kind": "survival_exact"},
            {"kind": "constant", "weights": [0.5, 0.5]},
        ],
        "horizon": 50,
        "seeds": [0, 1, 2],
    }
    cfg.update(overrides)
    return cfg


MARKOV_MODEL = {
    "type": "markov",
    "states": ["calm", "stress"],
    "transition": [[0.9, 0.1], [0.5, 0.5]],
    "initial_state": 0,
    "regimes": [
        {"atoms": [{"payoff": [1.0, 0.0], "delta": 0.0, "probability": 1.0}]},
        {"atoms": [{"payoff": [0.0, 1.0], "delta": 0.0, "probability": 1.0}]},
    ],
}
KERNEL_MODEL = {
    "type": "kernel",
    "jump_atoms": [{"payoff": [1.0, 0.0], "v": 0.0, "intensity": 1.0}],
    "drift": [0.0, 0.0],
}


def seed_csv(cfg, seed):
    """The trajectory CSV of one seed, rendered in this process."""
    return trajectory_csv(run_engine(build_run(cfg, seed)))


class TestParseConfig:
    def test_minimal_valid_config_parses(self):
        cfg = parse_config_dict(minimal_config())
        assert cfg.name == "mini"
        assert cfg.market.num_investors == 2
        assert cfg.seeds == (0, 1, 2)

    def test_parse_from_text(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = parse_config_dict(_read_config(path))
        assert cfg.horizon == 50

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            _read_config(path)
        assert "not valid JSON" in err.value.errors[0]

    def test_delta_of_one_rejected_with_message(self):
        data = minimal_config()
        data["payoff_model"]["atoms"][0]["delta"] = 1.0
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert any("delta must lie in [0, 1)" in msg for msg in err.value.errors)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_config(seeds=[1, 1, 2]))
        assert any("duplicate seeds" in msg for msg in err.value.errors)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_config(horizons=99))
        assert any("horizons" in msg for msg in err.value.errors)

    def test_unknown_nested_key_rejected(self):
        data = minimal_config()
        data["market"]["currency"] = "EUR"
        with pytest.raises(ConfigError):
            parse_config_dict(data)

    def test_strategy_count_mismatch_reported(self):
        data = minimal_config()
        data["strategies"] = data["strategies"][:1] * 3
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert any("one strategy per investor" in msg for msg in err.value.errors)

    def test_initial_wealth_length_checked(self):
        data = minimal_config()
        data["market"]["initial_wealth"] = [1.0, 1.0, 1.0]
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert any("initial_wealth" in msg for msg in err.value.errors)

    def test_asset_count_mismatch_reported(self):
        data = minimal_config()
        data["market"]["assets"] = 3
        with pytest.raises(ConfigError):
            parse_config_dict(data)

    def test_seed_range_expansion(self):
        cfg = parse_config_dict(minimal_config(seeds={"base": 5, "count": 3}))
        assert cfg.seeds == (5, 6, 7)

    def test_fractional_horizon_for_discrete_model_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(minimal_config(horizon=10.5))
        assert any("integer number of steps" in msg for msg in err.value.errors)

    def test_mc_strategy_on_kernel_model_rejected(self):
        data = minimal_config()
        data["payoff_model"] = {
            "type": "kernel",
            "jump_atoms": [{"payoff": [1.0, 0.0], "v": 0.0, "intensity": 1.0}],
            "drift": [0.0, 0.0],
        }
        data["horizon"] = 2.0
        data["strategies"][0] = {"kind": "survival_mc", "samples": 10}
        data["strategies"][1] = {
            "kind": "perturbed",
            "base": {"kind": "survival_mc", "samples": 3},
            "schedule": {"kind": "zero"},
            "target": [0.5, 0.5],
        }
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert [msg.split(":")[0] for msg in err.value.errors if "finite-support" in msg] == [
            "$.strategies[0]",
            "$.strategies[1]",
        ]

    def test_probabilities_must_sum(self):
        data = minimal_config()
        data["payoff_model"]["atoms"][0]["probability"] = 0.7
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert any("sum to 1" in msg for msg in err.value.errors)

    def test_nested_perturbed_strategy_parses(self):
        data = minimal_config()
        data["strategies"][0] = {
            "kind": "perturbed",
            "base": {"kind": "survival_exact"},
            "schedule": {"kind": "inverse_t", "coefficient": 1.0},
            "target": [0.5, 0.5],
        }
        cfg = parse_config_dict(data)
        assert cfg.strategies[0].kind == "perturbed"

    def test_table_strategy_parses(self):
        data = minimal_config(payoff_model=MARKOV_MODEL)
        data["strategies"][1] = {
            "kind": "table",
            "default": [[0, [0.5, 0.5]], [25, [0.8, 0.2]]],
            "regimes": {"0": [[0, [0.4, 0.6]]]},
        }
        cfg = parse_config_dict(data)
        assert cfg.strategies[1].kind == "table"

    def test_table_strategy_bad_breakpoints_rejected(self):
        data = minimal_config()
        data["strategies"][1] = {
            "kind": "table",
            "default": [[10, [0.5, 0.5]], [10, [0.8, 0.2]]],
        }
        with pytest.raises(ConfigError) as err:
            parse_config_dict(data)
        assert any("breakpoints" in msg for msg in err.value.errors)

    def test_markov_config_parses(self):
        cfg = parse_config_dict(minimal_config(payoff_model=MARKOV_MODEL))
        assert cfg.market.payoff_model.states == ("calm", "stress")


class TestDeterminism:
    def test_same_seed_gives_byte_identical_csv(self):
        cfg = parse_config_dict(minimal_config())
        assert seed_csv(cfg, 1) == seed_csv(cfg, 1)

    def test_different_seeds_differ(self):
        cfg = parse_config_dict(minimal_config())
        assert seed_csv(cfg, 1) != seed_csv(cfg, 2)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = parse_config_dict(minimal_config(seeds=[0, 1, 2, 3]))
        (tmp_path / "serial").mkdir()
        (tmp_path / "parallel").mkdir()
        serial = run_batch(cfg, jobs=1, out_dir=str(tmp_path / "serial"))
        parallel = run_batch(cfg, jobs=2, out_dir=str(tmp_path / "parallel"))
        for a, b in zip(serial["per_seed"], parallel["per_seed"]):
            assert a["seed"] == b["seed"]
            name = f"mini_seed{a['seed']}.csv"
            csv = (tmp_path / "serial" / name).read_bytes()
            assert csv == (tmp_path / "parallel" / name).read_bytes()
            assert json.dumps(a["summary"], sort_keys=True) == json.dumps(
                b["summary"], sort_keys=True
            )

    def test_csv_round_trips_doubles(self):
        cfg = parse_config_dict(minimal_config(seeds=[0]))
        lines = seed_csv(cfg, 0).strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["t", "Y1"]
        # every value re-parses to the exact double that produced it
        traj = run_engine(build_run(cfg, 0))
        row = lines[1 + 7].split(",")
        assert float(row[0]) == traj.times[7]
        assert float(row[1]) == traj.wealth[7, 0]
        assert float(row[header.index("W")]) == traj.total[7]

    def test_trajectory_csv_layout(self):
        lines = seed_csv(parse_config_dict(minimal_config(seeds=[0])), 0).strip().splitlines()
        assert lines[0] == "t,Y1,Y2,r1,r2,W,H,UH1,UH2,closeness1,closeness2"
        assert len(lines) == 1 + 51  # header + initial state + 50 steps


def per_value_csv(traj):
    """The reference renderer: one ``format(v, ".17g")`` call per value."""
    m = traj.num_investors
    header = (
        ["t"]
        + [f"Y{i + 1}" for i in range(m)]
        + [f"r{i + 1}" for i in range(m)]
        + ["W", "H"]
        + [f"UH{i + 1}" for i in range(m)]
        + [f"closeness{i + 1}" for i in range(m)]
    )
    lines = [",".join(header)]
    for k in range(traj.times.size):
        row = (
            [traj.times[k]]
            + list(traj.wealth[k])
            + list(traj.rel[k])
            + [traj.total[k], traj.pressure[k]]
            + list(traj.gap_integral[k])
            + list(traj.closeness[k])
        )
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


class TestTrajectoryCsv:
    def test_matches_per_value_renderer_on_awkward_values(self, monkeypatch):
        import marketsel.cli as cli_mod

        monkeypatch.setattr(cli_mod, "CSV_CHUNK_VALUES", 7)  # chunks that split rows of 15
        rng = np.random.default_rng(3)
        traj = _alloc(20, 3, 2, "discrete")
        special = np.array([np.inf, np.nan, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                            1e-310, 1.0 / 3.0, 1e300, 123456789.0])
        for name in ("times", "wealth", "rel", "total", "pressure", "gap_integral", "closeness"):
            arr = getattr(traj, name)
            arr[...] = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-30, 30, arr.shape)
            flat = arr.reshape(-1)
            flat[rng.integers(0, flat.size, 6)] = rng.choice(special, 6)
        traj.gap_integral[5:, 1] = np.inf
        assert trajectory_csv(traj) == per_value_csv(traj)

    def test_matches_per_value_renderer_on_a_run(self):
        cfg = parse_config_dict(minimal_config(horizon=60))
        traj = run_engine(build_run(cfg, 4))
        assert trajectory_csv(traj) == per_value_csv(traj)

    @pytest.mark.parametrize("rows, investors", [(2001, 2), (501, 40)])
    def test_peak_memory_is_the_text_plus_one_chunk(self, rows, investors):
        """The renderer holds its chunks' text and then the joined text, and
        one chunk's temporaries at a time, not a whole table of values."""
        import tracemalloc

        traj = _alloc(rows, investors, 2, "discrete")
        rng = np.random.default_rng(5)
        for name in ("times", "wealth", "rel", "total", "pressure", "gap_integral", "closeness"):
            arr = getattr(traj, name)
            arr[...] = rng.standard_normal(arr.shape)
        tracemalloc.start()
        try:
            text = trajectory_csv(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text) + 1.5 * 2**20, (peak, len(text))


class TestRunScenario:
    def test_writes_expected_files(self, tmp_path):
        data = minimal_config(seeds=[0, 1, 2])
        code, paths = run_scenario(data, str(tmp_path))
        assert code == 0
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == [
            "mini_seed0.csv",
            "mini_seed1.csv",
            "mini_seed2.csv",
            "mini_summary.json",
        ]
        summary = json.loads((tmp_path / "mini_summary.json").read_text())
        assert summary["aggregate"]["seed_count"] == 3
        assert len(summary["per_seed"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        data = minimal_config(seeds=[0, 1])
        run_scenario(data, str(tmp_path / "a"))
        run_scenario(data, str(tmp_path / "b"))
        for name in ("mini_seed0.csv", "mini_seed1.csv", "mini_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_aggregate_reports_fractions_and_intervals(self, tmp_path):
        result = run_batch(parse_config_dict(minimal_config(seeds=[0, 1, 2, 3])))
        agg = result["aggregate"]
        assert agg["completed"] == 4
        inv = agg["investors"][0]
        assert 0.0 <= inv["survives_fraction"] <= 1.0
        lo, hi = inv["survives_ci95"]
        assert 0.0 <= lo <= hi <= 1.0

    def test_workers_write_their_own_csvs(self, tmp_path):
        cfg = parse_config_dict(minimal_config(seeds=[0, 1, 2]))
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            out.mkdir()
            result = run_batch(cfg, jobs=jobs, out_dir=str(out))
            assert all(set(entry) == {"seed", "summary"} for entry in result["per_seed"])
            for seed in (0, 1, 2):
                assert (out / f"mini_seed{seed}.csv").read_text() == seed_csv(cfg, seed)

    def test_without_out_dir_no_csv_is_rendered(self, monkeypatch):
        import marketsel.cli as cli_mod

        def no_csv(traj):
            raise AssertionError("rendered a CSV")

        monkeypatch.setattr(cli_mod, "trajectory_csv", no_csv)
        cfg = parse_config_dict(minimal_config(seeds=[0, 1]))
        assert run_seed(cfg, 0).keys() == {"seed", "summary"}
        result = run_batch(cfg)
        assert [entry.keys() for entry in result["per_seed"]] == [{"seed", "summary"}] * 2

    def test_a_share_of_zero_does_not_survive_at_floor_zero(self):
        # investor 2 holds only the asset that never pays, so its wealth
        # reaches exactly 0 and the log share's tail slope reads +inf
        atoms = [{"payoff": [1.0, 0.0], "delta": 0.5, "probability": 1.0}]
        data = minimal_config(
            payoff_model={"type": "iid", "atoms": atoms},
            strategies=[{"kind": "survival_exact"}, {"kind": "constant", "weights": [0.0, 1.0]}],
            horizon=1200,
            seeds=[0],
            diagnostics={"survival_floor": 0.0},
        )
        result = run_batch(parse_config_dict(data))
        zero = result["per_seed"][0]["summary"]["investors"][1]
        assert zero["min_rel"] == 0.0 and zero["tail_slope"] == math.inf
        assert not zero["survives"]
        assert result["aggregate"]["investors"][1]["survives_count"] == 0

    def test_unwritable_csv_is_a_runtime_failure(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(seeds=[0, 1])))
        out_dir = tmp_path / "out"
        (out_dir / "mini_seed0.csv").mkdir(parents=True)  # fails even for root
        for jobs in ("1", "2"):
            code = main(["run", "--config", str(path), "--out", str(out_dir), "--jobs", jobs])
            assert code == 2
            assert "runtime failure:" in capsys.readouterr().err


class TestCatalog:
    def test_expected_scenarios_present(self):
        names = [info.name for info in list_scenarios()]
        assert names == [
            "survival-perturbed",
            "closeness-divergence",
            "dominance-2pt",
            "growth-rates",
            "continuous-jump-equivalence",
        ]

    def test_catalog_is_stable_across_calls(self):
        first = [(i.name, i.exercises, i.expected) for i in list_scenarios()]
        second = [(i.name, i.exercises, i.expected) for i in list_scenarios()]
        assert first == second

    def test_entries_describe_purpose_and_expectation(self):
        for info in list_scenarios():
            assert info.exercises
            assert info.expected
            assert info.config["name"] == info.name

    def test_all_configs_pass_validation(self):
        for info in list_scenarios():
            cfg = parse_config_dict(copy.deepcopy(info.config))
            assert cfg.name == info.name

    def test_every_catalog_scenario_runs_one_seed(self):
        for info in list_scenarios():
            result = run_batch(parse_config_dict(copy.deepcopy(info.config)), seeds=[0])
            (entry,) = result["per_seed"]
            assert "error" not in entry, (info.name, entry.get("error"))
            investors = entry["summary"]["investors"]
            assert len(investors) == info.config["market"]["investors"]

    def test_benchmark_workload_configs_pass_validation(self, monkeypatch):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        for seed in range(5):
            for name in workloads.NAMES:
                parse_config_dict(copy.deepcopy(workloads.make(name, seed, CATALOG).config))

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("nope")


class TestMainEntryPoint:
    def test_validate_subcommand_accepts_valid_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        assert main(["validate", "--config", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_subcommand_flags_errors(self, tmp_path, capsys):
        data = minimal_config()
        data["payoff_model"]["atoms"][0]["delta"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert "delta must lie in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds", [[2**64], [0, 2**64], {"base": 2**64 - 1, "count": 2}]
    )
    def test_seeds_beyond_64_bits_are_a_config_error(self, tmp_path, capsys, seeds):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(seeds=seeds)))
        out_dir = tmp_path / "out"
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.count("config error: $.seeds: seeds must lie in [0, 2**64)") == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b"])
    def test_name_that_is_not_a_file_name_is_a_config_error(self, tmp_path, capsys, name):
        # the name is part of every artifact path, so it may not leave --out
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(name=name)))
        out_dir = tmp_path / "out"
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.count("config error: $.name: ") == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        # a UTF-16 byte order mark once ended in a UnicodeDecodeError traceback
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(minimal_config()).encode("utf-16-le"))
        out_dir = tmp_path / "out"
        extra = ["--out", str(out_dir)] if command == "run" else []
        assert main([command, "--config", str(path), *extra]) == 1
        assert "config error: $: not UTF-8 text: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(horizon=math.inf)))
        assert main(["validate", "--config", str(path)]) == 1
        assert "config error: $.horizon: numbers must be finite, got inf" in capsys.readouterr().err

    def test_nan_initial_wealth_is_a_config_error(self, tmp_path, capsys):
        data = minimal_config()
        data["market"]["initial_wealth"] = [math.nan, 1.0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        message = "config error: $.market.initial_wealth[0]: numbers must be finite, got nan"
        assert err.count(message) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "where", ["$.horizon", "$.market.initial_wealth[1]"]
    )
    def test_huge_integer_literal_is_a_config_error(self, tmp_path, capsys, where):
        # json reads a 400-digit literal as an int, which float() cannot convert
        data = minimal_config()
        if where == "$.horizon":
            data["horizon"] = 10**400
        else:
            data["market"]["initial_wealth"] = [1.0, 10**400]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        message = f"config error: {where}: numbers must be finite, got an integer too large for a double"
        assert err.count(message) == 2
        assert not out_dir.exists()

    def test_integer_literal_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # Python refuses to read an int of more than 4,300 digits from text
        text = json.dumps(minimal_config(horizon=1)).replace('"horizon": 1', '"horizon": ' + "1" * 5000)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.count("config error: $: not valid JSON") == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("grid", ["nan", "inf"])
    def test_non_finite_grid_is_a_config_error(self, tmp_path, capsys, grid):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(path), "--out", str(out_dir), "--grid", grid]
        assert main(argv) == 1
        message = f"config error: $.record.grid: numbers must be finite, got {grid}"
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir), f"--jobs={jobs}"]) == 1
        assert f"config error: --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_list_scenarios_prints_catalog(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "dominance-2pt" in out
        assert "exercises:" in out

    def test_run_with_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(seeds=[0])))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "mini_seed0.csv").exists()
        assert (out_dir / "mini_summary.json").exists()

    def test_run_with_builtin_scenario_and_seed_override(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--scenario", "continuous-jump-equivalence", "--seeds", "0,1",
             "--out", str(out_dir), "--jobs", "2"]
        )
        assert code == 0
        assert (out_dir / "continuous-jump-equivalence_seed0.csv").exists()
        assert (out_dir / "continuous-jump-equivalence_seed1.csv").exists()

    def test_run_rejects_bad_config_with_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(minimal_config(seeds=[1, 1])))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "model, strategy, where",
        [
            (None, {"kind": "constant", "weights": [0.2, 0.3, 0.5]}, "$.strategies[1].weights"),
            (None, {"kind": "perturbed", "base": {"kind": "survival_exact"},
                    "schedule": {"kind": "zero"}, "target": [0.2, 0.3, 0.5]},
             "$.strategies[1].target"),
            (None, {"kind": "table", "default": [[0, [0.5, 0.5]], [5, [0.2, 0.3, 0.5]]]},
             "$.strategies[1].default[1][1]"),
            (MARKOV_MODEL, {"kind": "table", "default": [[0, [0.5, 0.5]]],
                            "regimes": {"1": [[0, [0.5, 0.5]], [5, [0.2, 0.3, 0.5]]]}},
             "$.strategies[1].regimes.1[1][1]"),
            (MARKOV_MODEL, {"kind": "table", "default": [[0, [0.5, 0.5]]],
                            "regimes": {"7": [[0, [0.4, 0.6]]]}},
             "$.strategies[1].regimes.7"),
            (None, {"kind": "table", "default": [[0, [0.5, 0.5]]],
                    "regimes": {"0": [[0, [0.4, 0.6]]]}},
             "$.strategies[1].regimes.0"),
            (KERNEL_MODEL, {"kind": "table", "default": [[0, [0.5, 0.5]]],
                            "regimes": {"0": [[0, [0.4, 0.6]]]}},
             "$.strategies[1].regimes.0"),
            (MARKOV_MODEL, {"kind": "table", "default": [[0, [0.5, 0.5]]],
                            "regimes": {"1": [[0, [0.4, 0.6]]], "01": [[0, [0.7, 0.3]]]}},
             "$.strategies[1].regimes.01"),
        ],
        ids=["constant", "perturbed-target", "table-entry", "regime-entry", "unknown-regime",
             "regimes-on-iid", "regimes-on-kernel", "regime-named-twice"],
    )
    def test_strategy_that_does_not_fit_the_model_is_a_config_error(
        self, tmp_path, capsys, model, strategy, where
    ):
        # a weight vector needs one weight per asset, and a table's regimes
        # key a regime of a markov model; both commands report the path
        data = minimal_config(horizon=2.0 if model is KERNEL_MODEL else 50)
        data["payoff_model"] = model or data["payoff_model"]
        data["strategies"][1] = strategy
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--config", str(path)]) == 1
            assert f"config error: {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "model, where",
        [
            ({"type": "iid", "atoms": [
                {"payoff": [1.0, 0.0], "delta": 0.5, "probability": 0.5},
                {"payoff": [0.0, 1.0, 0.0], "delta": 0.5, "probability": 0.5}]},
             "$.payoff_model: all payoff vectors must have the same length"),
            ({**MARKOV_MODEL, "transition": [[0.5, 0.5], [1.0]]},
             "$.payoff_model: transition matrix shape"),
            ({**MARKOV_MODEL, "regimes": [MARKOV_MODEL["regimes"][0], {"atoms": [
                {"payoff": [0.0, 1.0], "delta": 0.0, "probability": 0.5},
                {"payoff": [1.0, 0.0, 0.0], "delta": 0.0, "probability": 0.5}]}]},
             "$.payoff_model.regimes[1]: all payoff vectors must have the same length"),
        ],
        ids=["iid-atoms", "markov-transition", "markov-regime-atoms"],
    )
    def test_ragged_payoff_model_is_a_config_error(self, tmp_path, capsys, model, where):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(payoff_model=model)))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"config error: {where}" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("v", [1.0, 1.5])
    def test_jump_v_of_one_or_more_is_a_config_error(self, tmp_path, capsys, v):
        # KernelSpec checks each jump's v < 1 before it derives gamma_v
        # from them, and the cli reports its message at the model's path
        model = {**KERNEL_MODEL, "jump_atoms": [{"payoff": [1.0, 0.0], "v": v, "intensity": 1.0}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(payoff_model=model, horizon=2.0)))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            assert main([*argv, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert "config error: $.payoff_model: jump_atoms[0]: v must lie in [0, 1)" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_requires_some_config(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 1

    def test_run_missing_config_file_is_a_runtime_failure(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "runtime failure:" in capsys.readouterr().err

    def test_run_malformed_json_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error: $: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds", ["abc", "1:x", "3,,b", "5:0", "-1,2", "4,4", ",", pytest.param("", id="empty")]
    )
    def test_run_bad_seeds_is_a_config_error(self, tmp_path, capsys, seeds):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), f"--seeds={seeds}", "--out", str(out_dir)]) == 1
        assert "config error: --seeds:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_colon_syntax(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--seeds", "10:2", "--out", str(out_dir)]) == 0
        assert (out_dir / "mini_seed10.csv").exists()
        assert (out_dir / "mini_seed11.csv").exists()

    def test_grid_flag_overrides_recording(self, tmp_path):
        data = minimal_config(seeds=[0], horizon=2.0)
        data["payoff_model"] = {
            "type": "kernel",
            "jump_atoms": [{"payoff": [1.0, 0.0], "v": 0.0, "intensity": 0.1}],
            "drift": [0.0, 0.0],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir), "--grid", "0.25"]) == 0
        lines = (out_dir / "mini_seed0.csv").read_text().strip().splitlines()
        assert len(lines) >= 1 + 8  # header plus at least the 0.25-spaced grid

    def test_grid_flag_leaves_the_catalog_unchanged(self, tmp_path):
        before = copy.deepcopy(CATALOG["dominance-2pt"].config)
        argv = ["run", "--scenario", "dominance-2pt", "--seeds", "0", "--grid", "0.5"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert CATALOG["dominance-2pt"].config == before

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(seeds=[0])))
        monkeypatch.setenv("MARKETSEL_OUT", str(tmp_path / "envout"))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "mini_seed0.csv").exists()


class TestFailureHandling:
    def test_per_seed_failures_are_recorded_not_fatal(self, monkeypatch):
        import marketsel.cli as cli_mod

        original = cli_mod.run_seed

        def flaky(cfg, seed, **kwargs):
            if seed == 1:
                raise RuntimeError("boom")
            return original(cfg, seed, **kwargs)

        monkeypatch.setattr(cli_mod, "run_seed", flaky)
        result = cli_mod.run_batch(parse_config_dict(minimal_config(seeds=[0, 1, 2])))
        errors = [r for r in result["per_seed"] if "error" in r]
        assert [e["seed"] for e in errors] == [1]
        assert result["aggregate"]["completed"] == 2
        assert result["aggregate"]["failed"] == 1

    def test_run_exits_two_only_when_every_seed_fails(self, tmp_path, monkeypatch, capsys):
        import marketsel.cli as cli_mod

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(seeds=[0, 1])))
        engine = cli_mod.run_engine

        def fail_on(seeds):
            def run_engine(run):
                if run.rng.seed in seeds:
                    raise RuntimeError(f"boom {run.rng.seed}")
                return engine(run)

            return run_engine

        monkeypatch.setattr(cli_mod, "run_engine", fail_on({1}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "some")]) == 0
        monkeypatch.setattr(cli_mod, "run_engine", fail_on({0, 1}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "all")]) == 2
        assert "runtime failure:" in capsys.readouterr().err
        summary = json.loads((tmp_path / "all" / "mini_summary.json").read_text())
        assert [e["error"] for e in summary["per_seed"]] == ["boom 0", "boom 1"]

    def test_a_failed_seed_names_its_exception_type(self, tmp_path, monkeypatch):
        import marketsel.cli as cli_mod

        engine = cli_mod.run_engine

        def run_engine(run):
            if run.rng.seed == 1:
                raise ValueError("no payoff")
            return engine(run)

        monkeypatch.setattr(cli_mod, "run_engine", run_engine)
        code, _ = run_scenario(minimal_config(seeds=[0, 1]), str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "mini_summary.json").read_text())
        assert summary["per_seed"][1] == {
            "seed": 1, "error": "no payoff", "error_type": "ValueError"
        }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_run_parses_the_config_once(self, tmp_path, monkeypatch, jobs):
        import marketsel.cli as cli_mod

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(seeds=[0, 1, 2])))
        calls = []
        parse = cli_mod.parse_config_dict

        def counting(data):
            calls.append(1)
            return parse(data)

        monkeypatch.setattr(cli_mod, "parse_config_dict", counting)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 0
        assert len(calls) == 1
        summary = json.loads((out / "mini_summary.json").read_text())
        assert summary["aggregate"]["completed"] == 3

    def test_summary_json_is_strict_even_with_infinite_diagnostics(self, tmp_path):
        # a strategy that abandons an asset has an infinite gap integral;
        # the written summary must still be standard JSON
        data = minimal_config(seeds=[0])
        data["strategies"][1] = {"kind": "constant", "weights": [1.0, 0.0]}
        code, _ = run_scenario(data, str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "mini_summary.json").read_text(), parse_constant=lambda s: pytest.fail(f"non-standard JSON token {s}"))
        assert summary["per_seed"][0]["investors"][1]["gap_total"] is None
