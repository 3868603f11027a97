"""The module-level names that the benchmark's tracer rebinds.

``perfbench/spans.py`` measures its layers by rebinding these names from
outside the package, and the tier-1 suite does not collect ``perfbench``,
so a rename here would break the traced benchmark run and pass every other
test.  Its observers also read what the traced calls take and return, and
a traced run must write the untraced run's bytes without a failed seed.
These tests go once the package times its own stages and the tracer no
longer rebinds names (ROADMAP item 2).
"""

import copy
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import marketsel
from marketsel import cli, core, diagnostics, engine
from marketsel.scenarios import CATALOG

TRACED = [
    (engine, name)
    for name in (
        "evaluate",
        "make_simplex",
        "discrete_claim_vector",
        "divergence_rows",
        "_sample_arrays",
        "next_jump",
        "expected_claim_rates",
        "discrete_step",
        "_drift_rates",
    )
] + [
    (cli, name)
    for name in (
        "main",
        "parse_config_dict",
        "run_scenario",
        "run_batch",
        "run_seed",
        "run_engine",
        "run_summary",
        "trajectory_csv",
    )
] + [(diagnostics, "identity_report"), (core.Trajectory, "validate")]


def test_every_traced_name_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name in TRACED
        if not callable(getattr(owner, name, None))
    ]
    assert missing == []


def _tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def _continuous_drift_config():
    config = copy.deepcopy(CATALOG["continuous-jump-equivalence"].config)
    config["name"] = "continuous-drift"
    config["payoff_model"].update(drift=[0.4, 0.2], v_rate=0.3)
    config["strategies"].append(
        {
            "kind": "perturbed",
            "base": {"kind": "survival_exact"},
            "schedule": {"kind": "inverse_t", "coefficient": 1.5},
            "target": [0.3, 0.7],
        }
    )
    config["market"] = {"investors": 3, "assets": 2, "initial_wealth": [1.0, 1.5, 0.5]}
    config["horizon"] = 3.0
    return config


def _digests(config, out_dir):
    code, paths = cli.run_scenario(config, str(out_dir), seeds=[0, 1])
    assert code == 0
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize(
    "config",
    [CATALOG["dominance-2pt"].config, _continuous_drift_config()],
    ids=["dominance-2pt", "continuous-drift"],
)
def test_a_traced_run_writes_the_untraced_bytes(config, tmp_path):
    plain = _digests(config, tmp_path / "plain")
    tracer = _tracer()
    with tracer.installed(marketsel):
        traced = _digests(config, tmp_path / "traced")
    assert traced == plain
    summary = json.loads((tmp_path / "traced" / f"{config['name']}_summary.json").read_text())
    assert [entry for entry in summary["per_seed"] if "error" in entry] == []
    assert tracer.counts["records"] > 0 and tracer.counts["trajectory_bytes"] > 0
