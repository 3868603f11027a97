"""marketsel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One closed-loop client issues ``marketsel run`` invocations
(``cli.main(["run", ...])``) back to back, each over a fixed number of
seeds, until ``--seconds`` of invocation time is used.  Each invocation's
artifacts are checked and hashed after it returns, outside the timed
region.  The last line of stdout is the result object; the lines before it
hold the details (config and artifact digests, machine block, tail
percentile).  See perfbench/README.md for the metrics.

``--trace 0`` reports the end-to-end metrics with only the per-seed timer
installed.  ``--trace 1`` runs the closed loop for a third of the time, replays
its invocations serially untraced (when the workload uses a pool) and then
serially with spans, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 9
TRACE_PASS_SHARE = 1 / 3

# Figures of the baseline table in ROADMAP.md, reconciled by --trace 1.
BASELINE = {
    "discrete_us_per_step": 92.5,
    "csv_ms_per_2000_rows": 44.0,
    "parse_config_dict_ms": 1.8,
    "drift_rates_us_per_call": 130.0,
}


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """The ``marketsel`` package of this checkout, with ``marketsel.cli`` loaded."""
    if not (SRC / "marketsel" / "__init__.py").is_file():
        _die(f"no marketsel package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import marketsel
    import marketsel.cli  # noqa: F401 - the package does not import its CLI

    return marketsel


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _machine() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "loadavg_start": _read("/proc/loadavg").split()[:3],
    }


@dataclass
class Pass:
    """Outcome of running a list of invocations once."""

    walls: list = field(default_factory=list)
    seed_times: list = field(default_factory=list)  # (seed, s, pid, maxrss_kb)
    failed: dict = field(default_factory=dict)  # seed -> problems
    passed: list = field(default_factory=list)  # summary entries
    passed_per_call: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    peak_rss_kb: int = 0

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def attempted(self) -> int:
        return len(self.failed) + len(self.passed)


class Bench:
    def __init__(self, program, workload, work: Path):
        self.program = program
        self.cli = program.cli
        self.w = workload
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config, indent=1))
        self.setup_ready, self.setup_import = [], []

    def _argv(self, out_dir: Path, first: int, count: int, jobs: int) -> list:
        source = ["--scenario", self.w.scenario] if self.w.scenario else ["--config", str(self.config_path)]
        return ["run", *source, "--out", str(out_dir), "--seeds", f"{first}:{count}", "--jobs", str(jobs)]

    def invoke(self, out_dir: Path, first: int, count: int, jobs: int):
        """One timed ``marketsel run``; returns (wall seconds, error or None)."""
        argv = self._argv(out_dir, first, count, jobs)
        error = None
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crashing invocation is a failed batch
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        if error is None and code != 0:
            error = f"exit code {code}"
        return wall, error

    def run_checked(self, first: int, count: int, jobs: int, pass_: Pass, out_name: str):
        """Invoke over seeds first..first+count-1, then check, hash and delete the artifacts."""
        out_dir = self.work / out_name
        wall, error = self.invoke(out_dir, first, count, jobs)
        pass_.walls.append(wall)
        seeds = list(range(first, first + count))
        if error is not None:
            pass_.failed.update({s: [error] for s in seeds})
            pass_.digests.append(None)
            pass_.passed_per_call.append(0)
        else:
            failed, passed, digest = check.check_batch(
                out_dir, self.w.config["name"], seeds, self.program.core.PATH_RTOL,
                continuous=self.w.config["payoff_model"]["type"] == "kernel",
            )
            pass_.failed.update(failed)
            pass_.passed.extend(passed)
            pass_.passed_per_call.append(len(passed))
            pass_.digests.append(digest)
        shutil.rmtree(out_dir, ignore_errors=True)

    def closed_loop(self, seconds: float) -> tuple:
        """Invocations back to back until ``seconds`` of invocation time; timed per seed."""
        pass_, batches = Pass(), []
        with spans.seed_timer(self.cli, pass_.seed_times):
            while pass_.wall < seconds:
                first, count = self.w.batch_seeds(len(batches))
                batches.append((first, count))
                n_before = len(pass_.seed_times)
                self.run_checked(first, count, self.w.jobs, pass_, "batch")
                # Peak of this invocation: this process plus each pool worker.
                own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                workers = {}
                for _, _, pid, rss in pass_.seed_times[n_before:]:
                    if pid != os.getpid():
                        workers[pid] = max(workers.get(pid, 0), rss)
                pass_.peak_rss_kb = max(pass_.peak_rss_kb, own + sum(workers.values()))
                # Set-up probes run between invocations, so that their median
                # samples the machine over the run rather than one moment.
                if len(self.setup_ready) < SETUP_REPEATS:
                    self.probe_setup()
        while len(self.setup_ready) < SETUP_REPEATS:
            self.probe_setup()
        return pass_, batches

    def replay(self, batches: list, jobs: int, tracer=None) -> Pass:
        """Run the same invocations again, with spans when ``tracer`` is given."""
        pass_ = Pass()
        installed = (
            tracer.installed(self.program)
            if tracer is not None else contextlib.nullcontext()
        )
        with installed:
            for first, count in batches:
                self.run_checked(first, count, jobs, pass_, "replay")
        return pass_

    def warm_up(self):
        out_dir = self.work / "warmup"
        self.invoke(out_dir, self.w.warmup_seed, 1, self.w.jobs)
        shutil.rmtree(out_dir, ignore_errors=True)

    def probe_setup(self):
        """Time one fresh interpreter from spawn to the point where the first seed can start."""
        t_spawn = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(self.config_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=60, check=True,
        )
        marks = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_ready.append(marks["ready"] - t_spawn)
        self.setup_import.append(marks["imported"] - marks["up"])


def _tail(times: list) -> tuple:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _problems(*passes) -> dict:
    out = {}
    for p in passes:
        for seed, problems in p.failed.items():
            out.setdefault(str(seed), problems)
    return out


def end_to_end(main: Pass, setup_s: float) -> tuple:
    times = [t for _, t, _, _ in main.seed_times]
    tail, pct = _tail(times) if times else (float("nan"), float("nan"))
    # Median over invocations: one slow stretch of a shared machine then
    # moves the figure less than a total over the run would.
    metrics = {
        "seeds_per_s": statistics.median([ok / wall for ok, wall in zip(main.passed_per_call, main.walls)]),
        "seed_ms_p50": 1e3 * statistics.median(times) if times else float("nan"),
        "seed_ms_tail": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": main.peak_rss_kb / 1024.0,
        "passed_frac": len(main.passed) / main.attempted,
    }
    details = {"tail_percentile": pct, "seed_time_samples": len(times)}
    return metrics, details


def per_layer(w, first: Pass, serial: Pass, traced: Pass, tracer, import_s: float):
    tot = tracer.totals()
    n = traced.attempted
    jobs = w.jobs

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, 0))[0] / n

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0, 0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0, 0))[2] / n

    counts = {k: v / n for k, v in tracer.counts.items()}
    stages = calls("engine.drift_rates")
    steps = calls("payoffs.sample") + stages / 4.0
    evaluations = calls("strategies.evaluate")
    kinds = ("constant", "survival_exact", "survival_mc", "perturbed", "table")
    m = {
        "engine.run.self_s": own("engine.run"),
        "engine.us_per_step": 1e6 * incl("engine.run") / (steps * n) if steps else 0.0,
        "engine.steps": steps,
        "engine.rk4_stages": stages,
        "engine.us_per_rk4_stage": 1e6 * incl("engine.drift_rates") / (stages * n) if stages else 0.0,
        "engine.jumps": calls("engine.discrete_step"),
        "engine.records": counts.get("records", 0.0),
        "engine.discrete_step.self_s": own("engine.discrete_step"),
        "engine.drift_rates.self_s": own("engine.drift_rates"),
        "engine.trajectory_bytes": counts.get("trajectory_bytes", 0.0),
        "payoffs.rng_draws": counts.get("rng_draws", 0.0),
        "strategies.evaluate.time_invariant_share": (
            (counts.get("evaluate.constant", 0.0) + counts.get("evaluate.table", 0.0)) / evaluations
            if evaluations else 0.0
        ),
        "strategies.survival_discrete_mc.draws": counts.get("mc_draws", 0.0),
        "core.Trajectory.validate.self_s": own("core.Trajectory.validate"),
        "cli.main.self_s": own("cli.main"),
        "cli.run_scenario.self_s": own("cli.run_scenario"),
        "cli.run_batch.self_s": own("cli.run_batch"),
        "cli.run_seed.self_s": own("cli.run_seed"),
        "cli.trajectory_csv.bytes": counts.get("csv_bytes", 0.0),
        "cli.import_s": import_s,
        "diagnostics.run_summary.self_s": own("diagnostics.run_summary"),
        "diagnostics.identity_report.self_s": own("diagnostics.identity_report"),
        "trace.overhead_s": (traced.wall - serial.wall) / n,
        "trace.self_share": sum(v[2] for v in tot.values()) / traced.wall,
        "trace.spans": len(tracer.name_id) / n,
    }
    for name in ("payoffs.expected_claim_rates", "payoffs.next_jump", "payoffs.sample",
                 "strategies.evaluate", "strategies.discrete_claim_vector", "core.make_simplex",
                 "core.divergence_rows", "cli.parse_config_dict"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    m["cli.trajectory_csv.self_s"] = own("cli.trajectory_csv")
    for kind in kinds:
        m[f"strategies.evaluate.calls.{kind}"] = counts.get(f"evaluate.{kind}", 0.0)
    if jobs > 1:
        m["cli.pool.overhead_s"] = (first.wall - serial.wall / jobs) / n
        m["cli.pool.efficiency"] = serial.wall / (jobs * first.wall)
    else:
        m["cli.pool.overhead_s"], m["cli.pool.efficiency"] = 0.0, 1.0

    return m, _reconcile(w.name, tot, (traced.wall - serial.wall) / len(tracer.name_id))


def _reconcile(workload: str, tot: dict, per_span: float) -> dict:
    """Traced figures next to the ROADMAP baseline table.

    ``untraced_est`` takes the measured tracer cost per span off once for
    the span itself and once for each span below it.
    """

    def per_call(name, scale):
        calls, incl, _, below = tot.get(name, (0, 0.0, 0.0, 0))
        if not calls:
            return None
        return {"traced": scale * incl / calls,
                "untraced_est": scale * (incl - per_span * (calls + below)) / calls}

    out = {"per_span_overhead_us": 1e6 * per_span}
    if workload == "discrete-2x2":
        steps = tot["payoffs.sample"][0]
        run = per_call("engine.run", 1e6 * tot["engine.run"][0] / steps)
        csv = per_call("cli.trajectory_csv", 1e3 * 2000.0 / 2001.0)
        out["discrete_us_per_step"] = {"baseline": BASELINE["discrete_us_per_step"], **run}
        out["csv_ms_per_2000_rows"] = {"baseline": BASELINE["csv_ms_per_2000_rows"], **csv}
        out["parse_config_dict_ms"] = {"baseline": BASELINE["parse_config_dict_ms"],
                                       **per_call("cli.parse_config_dict", 1e3)}
    if workload == "continuous-drift":
        out["drift_rates_us_per_call"] = {"baseline": BASELINE["drift_rates_us_per_call"],
                                          **per_call("engine.drift_rates", 1e6)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = _load_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = _machine()
    w = workloads.make(args.workload, args.seed, program.scenarios.CATALOG)
    program.cli.parse_config_dict(w.config)  # a schema error fails here, before any timing

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(program, w, work)
        bench.warm_up()
        seconds = args.seconds * (TRACE_PASS_SHARE if args.trace else 1.0)
        first, batches = bench.closed_loop(seconds)
        setup_s, import_s = statistics.median(bench.setup_ready), statistics.median(bench.setup_import)
        passes = [first]
        if args.trace:
            serial = bench.replay(batches, 1) if w.jobs > 1 else first
            tracer = spans.Tracer()
            traced = bench.replay(batches, 1, tracer)
            passes += [serial, traced] if w.jobs > 1 else [traced]
            metrics, reconcile = per_layer(w, first, serial, traced, tracer, import_s)
            tracer.save(OUT / f"spans-{w.name}.npz")
            extra = {"reconcile": reconcile, "traced_seeds": traced.attempted,
                     "traced_wall_s": traced.wall}
            wanted = declared["per_layer"]
        else:
            metrics, extra = end_to_end(first, setup_s)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = {m["name"] for m in wanted}
    if names != set(metrics):
        _die(f"metric set differs from BENCHMARK.json: {sorted(names ^ set(metrics))}")
    run_problems = []
    if w.name == "discrete-2x2":
        run_problems += check.dominance_problems(first.passed)
    if any(p.digests != first.digests for p in passes):
        run_problems.append("artifacts differ between passes of the same invocations")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    machine["loadavg_end"] = _read("/proc/loadavg").split()[:3]
    details = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "config_sha256": w.config_sha256, "jobs": w.jobs, "seeds_per_invocation": w.chunk,
        "invocations": [
            {"seeds": f"{a}:{c}", "wall_s": t, "sha256": d}
            for (a, c), t, d in zip(batches, first.walls, first.digests)
        ],
        "failed_frac": failed / attempted,
        "problems": {"run": run_problems, "seeds": _problems(*passes)},
        "setup_s": setup_s, "import_s": import_s, "machine": machine, **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"details-{w.name}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(details))
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
