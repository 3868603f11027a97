"""Tests of the benchmark's own parts: generator, output checker, instrumentation.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import marketsel  # noqa: E402
from marketsel import cli, core, engine  # noqa: E402
from marketsel.core import PATH_RTOL  # noqa: E402
from marketsel.scenarios import CATALOG  # noqa: E402


def small_config():
    cfg = copy.deepcopy(CATALOG["dominance-2pt"].config)
    cfg["horizon"] = 40
    return cfg


def write_batch(out_dir, config=None, seeds=(0, 1, 2)):
    cli.run_scenario(config or small_config(), str(out_dir), seeds=list(seeds))
    return out_dir


def summary_path(out_dir):
    return out_dir / "dominance-2pt_summary.json"


def edit_summary(out_dir, edit):
    path = summary_path(out_dir)
    data = json.loads(path.read_text())
    edit(data["per_seed"])
    path.write_text(json.dumps(data))


def run_check(out_dir, seeds=(0, 1, 2), continuous=False):
    return check.check_batch(out_dir, "dominance-2pt", list(seeds), PATH_RTOL, continuous)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_configs_are_deterministic_and_valid(name):
    a, b = workloads.make(name, 7, CATALOG), workloads.make(name, 7, CATALOG)
    assert a.config == b.config and a.config_sha256 == b.config_sha256
    assert a.batch_seeds(0) != workloads.make(name, 8, CATALOG).batch_seeds(0)
    cli.parse_config_dict(a.config)


def test_generated_configs_depend_on_the_seed():
    for name in ("continuous-drift", "wide-markov"):
        assert workloads.make(name, 1, CATALOG).config != workloads.make(name, 2, CATALOG).config


def test_checker_accepts_real_artifacts(tmp_path):
    failed, passed, digest = run_check(write_batch(tmp_path))
    assert failed == {} and len(passed) == 3 and len(digest) == 64


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda rows: rows[1]["identities"].update(exponent_rel_err=1e-6), "exponent_rel_err"),
        (lambda rows: rows[1]["identities"].update(total_wealth_max_rel_err=None),
         "total_wealth_max_rel_err"),
        (lambda rows: rows[1]["identities"].update(upper_bound_margin=-1e-6), "upper_bound_margin"),
        (lambda rows: rows[1].update(recording_violations=["wealth must stay strictly positive"]),
         "recording violations"),
        (lambda rows: rows.__setitem__(1, {"seed": 1, "error": "boom"}), "boom"),
        (lambda rows: rows.pop(1), "missing"),
    ],
)
def test_checker_catches_a_perturbed_summary(tmp_path, edit, needle):
    out = write_batch(tmp_path)
    edit_summary(out, edit)
    failed, passed, _ = run_check(out)
    assert list(failed) == [1] and len(passed) == 2
    assert any(needle in p for p in failed[1])


def test_checker_catches_a_truncated_csv_and_hashes_every_byte(tmp_path):
    out = write_batch(tmp_path)
    _, _, clean = run_check(out)
    csv = out / "dominance-2pt_seed2.csv"
    text = csv.read_text()
    csv.write_text(text.replace("0", "1", 1))
    assert run_check(out)[0] == {} and run_check(out)[2] != clean
    csv.write_text("".join(text.splitlines(keepends=True)[:-1]))
    failed, _, _ = run_check(out)
    assert list(failed) == [2] and "CSV has" in failed[2][0]


def test_dominance_expectation():
    def entries(n, good):
        return [
            {"investors": [{"min_rel": 0.5, "terminal_rel": 0.99 if i < good else 0.5}]}
            for i in range(n)
        ]

    assert check.dominance_problems(entries(100, 100)) == []
    assert check.dominance_problems(entries(100, 78)) == []  # not significantly below 80%
    assert "dominated" in check.dominance_problems(entries(100, 60))[0]


def test_tracer_self_times_account_for_wall():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(range(n))

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle(n):
        return traced_leaf(n) + traced_leaf(n)

    root = tracer.wrap("root", tracer.wrap("middle", middle))
    root(20000)
    totals = tracer.totals()
    assert {k: v[0] for k, v in totals.items()} == {"leaf": 2, "middle": 1, "root": 1}
    wall = totals["root"][1]
    assert sum(v[2] for v in totals.values()) == pytest.approx(wall, rel=1e-9)
    assert totals["middle"][1] == pytest.approx(totals["middle"][2] + totals["leaf"][1])


def test_instrumentation_leaves_artifacts_unchanged_and_is_removed(tmp_path):
    plain = write_batch(tmp_path / "plain")
    before = (cli.run_seed, cli.run_batch, engine.evaluate, core.Trajectory.validate)
    sink = []
    with spans.seed_timer(cli, sink):
        timed = write_batch(tmp_path / "timed")
    tracer = spans.Tracer()
    with tracer.installed(marketsel):
        traced = write_batch(tmp_path / "traced")
    assert (cli.run_seed, cli.run_batch, engine.evaluate, core.Trajectory.validate) == before
    assert sorted(seed for seed, *_ in sink) == [0, 1, 2]
    digests = {run_check(d)[2] for d in (plain, timed, traced)}
    assert len(digests) == 1
    totals = tracer.totals()
    assert totals["cli.run_seed"][0] == 3 and totals["payoffs.sample"][0] == 3 * 40
    assert tracer.counts["evaluate.survival_exact"] == tracer.counts["evaluate.constant"] == 120


def test_seed_timer_runs_inside_pool_workers(tmp_path):
    sink = []
    with spans.seed_timer(cli, sink):
        cli.run_scenario(small_config(), str(tmp_path / "pool"), jobs=2, seeds=[0, 1, 2])
    write_batch(tmp_path / "serial")
    assert sorted(seed for seed, *_ in sink) == [0, 1, 2]
    assert all(pid != os.getpid() and rss > 0 for _, _, pid, rss in sink)
    assert run_check(tmp_path / "pool")[2] == run_check(tmp_path / "serial")[2]
