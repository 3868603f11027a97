"""Instrumentation installed from outside the program.

Two kinds, never active together:

* ``seed_timer`` -- the one timer of an untraced run.  It replaces
  ``cli.run_seed`` with a wrapper that times the call and attaches
  (seconds, pid, peak RSS) to the result, and ``cli.run_batch`` with a
  wrapper that takes those records off again before anything is written,
  so the artifacts are unchanged.  Pool workers run the wrapper too.
* ``Tracer`` -- spans around the module-level names that callers look up
  (``cli.parse_config_dict``, ``engine.evaluate``, ...), plus counters
  taken at the same boundaries.  Spans are kept in flat arrays and turned
  into self times once, at the end.
"""

from __future__ import annotations

import contextlib
import os
import resource
from array import array
from time import perf_counter

import numpy as np

_TIMING_KEY = "_perfbench_seed"
# The pool pickles the timed wrapper by reference, so it must be a
# module-level function; it finds the function it wraps here.
_originals = {}


def _timed_run_seed(*args, **kwargs):
    t0 = perf_counter()
    out = _originals["run_seed"](*args, **kwargs)
    out[_TIMING_KEY] = (
        perf_counter() - t0,
        os.getpid(),
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


@contextlib.contextmanager
def _patched(patches):
    """Set (owner, attribute, value) triples, restoring the old values on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def seed_timer(cli, sink: list):
    """Time every ``cli.run_seed`` call; append (seed, s, pid, maxrss_kb) to ``sink``."""
    run_batch = cli.run_batch

    def collecting_run_batch(*args, **kwargs):
        result = run_batch(*args, **kwargs)
        for entry in result["per_seed"]:
            record = entry.pop(_TIMING_KEY, None)
            if record is not None:
                sink.append((entry["seed"],) + tuple(record))
        return result

    _originals["run_seed"] = cli.run_seed
    with _patched([(cli, "run_seed", _timed_run_seed), (cli, "run_batch", collecting_run_batch)]):
        yield


def _mc_draws(handle) -> int:
    if handle.kind == "survival_mc":
        return handle.n_samples
    if handle.kind == "perturbed":
        return _mc_draws(handle.base)
    return 0


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.seed = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._seed_now = -1
        self.counts = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, observe=None, seed_arg=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(args, result)`` runs after the span closes, to take
        counts; ``seed_arg`` is the index of the positional argument that
        carries the simulation seed, which then labels every nested span.
        """
        nid = self._id(name)
        name_id, parent, seed, start, end = self.name_id, self.parent, self.seed, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            if seed_arg is not None:
                self._seed_now = args[seed_arg]
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            seed.append(self._seed_now)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                if seed_arg is not None:
                    self._seed_now = -1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, marketsel):
        """Rebind the traced names of the ``marketsel`` package for the duration of the block."""
        cli, engine, diagnostics = marketsel.cli, marketsel.engine, marketsel.diagnostics
        core, payoffs = marketsel.core, marketsel.payoffs
        count = self._count

        def on_evaluate(args, result):
            handle = args[0]
            count("evaluate." + handle.kind)
            draws = _mc_draws(handle)
            if draws:
                count("mc_draws", draws)

        def on_sample(args, result):
            count("rng_draws", 2 if isinstance(args[0], payoffs.MarkovModulatedModel) else 1)

        def on_next_jump(args, result):
            if result is not None:
                count("rng_draws", 2)

        def on_engine(args, result):
            count("trajectory_bytes", sum(
                v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)
            ))

        def on_summary(args, result):
            count("records", result["records"])

        def on_csv(args, result):
            count("csv_bytes", len(result))  # the CSV is ASCII

        w = self.wrap
        patches = [
            (cli, "main", w("cli.main", cli.main)),
            (cli, "parse_config_dict", w("cli.parse_config_dict", cli.parse_config_dict)),
            (cli, "run_scenario", w("cli.run_scenario", cli.run_scenario)),
            (cli, "run_batch", w("cli.run_batch", cli.run_batch)),
            (cli, "run_seed", w("cli.run_seed", cli.run_seed, seed_arg=1)),
            (cli, "run_engine", w("engine.run", cli.run_engine, observe=on_engine)),
            (cli, "run_summary", w("diagnostics.run_summary", cli.run_summary, observe=on_summary)),
            (cli, "trajectory_csv", w("cli.trajectory_csv", cli.trajectory_csv, observe=on_csv)),
            (diagnostics, "identity_report", w("diagnostics.identity_report", diagnostics.identity_report)),
            (core.Trajectory, "validate", w("core.Trajectory.validate", core.Trajectory.validate)),
            (engine, "evaluate", w("strategies.evaluate", engine.evaluate, observe=on_evaluate)),
            (engine, "discrete_claim_vector",
             w("strategies.discrete_claim_vector", engine.discrete_claim_vector)),
            (engine, "make_simplex", w("core.make_simplex", engine.make_simplex)),
            (engine, "divergence_rows", w("core.divergence_rows", engine.divergence_rows)),
            (engine, "_sample_arrays", w("payoffs.sample", engine._sample_arrays, observe=on_sample)),
            (engine, "next_jump", w("payoffs.next_jump", engine.next_jump, observe=on_next_jump)),
            (engine, "expected_claim_rates",
             w("payoffs.expected_claim_rates", engine.expected_claim_rates)),
            (engine, "discrete_step", w("engine.discrete_step", engine.discrete_step)),
            (engine, "_drift_rates", w("engine.drift_rates", engine._drift_rates)),
        ]
        with _patched(patches):
            yield

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds, descendant spans).

        Spans nest strictly (one thread, synchronous calls), so the time
        a span's children cover is the sum of their durations.
        """
        n = len(self.name_id)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        # A child always comes after its parent, so one backward sweep
        # sums subtree sizes.
        subtree = [1] * n
        for i, p in zip(range(n - 1, -1, -1), reversed(self.parent)):
            if p >= 0:
                subtree[p] += subtree[i]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own_by_name = np.bincount(names, weights=own, minlength=k)
        below = np.bincount(names, weights=np.array(subtree, dtype=float) - 1.0, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]), float(own_by_name[i]), int(below[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        """Write every span once: name, start, end, parent index and seed."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            seed=np.frombuffer(self.seed, dtype=np.int64),
        )
