"""Output checker, run on each invocation's artifacts outside the timed region.

Per seed it checks the summary written by ``marketsel run``: the
bookkeeping identities within ``core.PATH_RTOL``, no recording
violations, and a trajectory CSV with one row per record.  Over the whole
run of ``discrete-2x2`` it checks the catalog's stated outcome for
``dominance-2pt``.  It also hashes every artifact, so two versions of the
program can be shown to write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Catalog expectation for dominance-2pt: "candidate investor's minimum
# share >= 0.05 in >= 95% of seeds and terminal share >= 0.95 in >= 80% of
# seeds".
DOMINANCE_FLOOR, DOMINANCE_MIN_SHARE = 0.05, 0.95
DOMINANCE_TERMINAL, DOMINANCE_TERMINAL_SHARE = 0.95, 0.80


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def summary_problems(entry: dict, rtol: float, continuous: bool) -> list:
    """Everything wrong with one seed's summary entry (empty when it passes)."""
    if "error" in entry:
        return [f"seed failed: {entry['error']}"]
    problems = []
    if entry.get("recording_violations"):
        problems.append(f"recording violations: {entry['recording_violations']}")
    ident = entry.get("identities", {})
    exp_err = ident.get("exponent_rel_err")
    if not (_finite(exp_err) and exp_err <= rtol):
        problems.append(f"exponent_rel_err {exp_err!r} exceeds {rtol}")
    w_err = ident.get("total_wealth_max_rel_err")
    # The continuous engine has no per-step total-wealth identity; the
    # summary writes its NaN as null.
    if not continuous and not (_finite(w_err) and w_err <= rtol):
        problems.append(f"total_wealth_max_rel_err {w_err!r} exceeds {rtol}")
    for key in ("lower_bound_margin", "upper_bound_margin"):
        margin = ident.get(key)
        # null stands for +inf: a retention floor that underflowed bounds nothing
        if key == "lower_bound_margin" and margin is None:
            continue
        if not (_finite(margin) and margin >= -rtol):
            problems.append(f"{key} {margin!r} below -{rtol}")
    return problems


def csv_problems(text: str, records: int, investors: int) -> list:
    lines = text.splitlines()
    problems = []
    if len(lines) != records + 2:
        problems.append(f"CSV has {len(lines)} lines, expected {records + 2}")
    width = 3 + 4 * investors
    if any(line.count(",") != width - 1 for line in lines):
        problems.append(f"CSV rows do not all have {width} columns")
    return problems


def check_batch(out_dir: Path, name: str, seeds: list, rtol: float, continuous: bool):
    """Check and hash the artifacts of one invocation.

    Returns (failed seeds -> problems, passing summary entries, sha256).
    """
    summary_path = out_dir / f"{name}_summary.json"
    try:
        summary_bytes = summary_path.read_bytes()
        per_seed = {e["seed"]: e for e in json.loads(summary_bytes)["per_seed"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {s: [f"summary unreadable: {exc}"] for s in seeds}, [], None
    digest = hashlib.sha256()
    digest.update(summary_path.name.encode() + b"\0" + summary_bytes)
    failed, passed = {}, []
    for seed in seeds:
        entry = per_seed.get(seed)
        if entry is None:
            failed[seed] = ["seed missing from summary"]
            continue
        problems = summary_problems(entry, rtol, continuous)
        csv_path = out_dir / f"{name}_seed{seed}.csv"
        if "error" not in entry:
            try:
                csv_bytes = csv_path.read_bytes()
            except OSError as exc:
                problems.append(f"CSV unreadable: {exc}")
            else:
                digest.update(csv_path.name.encode() + b"\0" + csv_bytes)
                problems += csv_problems(
                    csv_bytes.decode("ascii", "replace"),
                    entry.get("records", -1),
                    len(entry.get("investors", [])),
                )
        if problems:
            failed[seed] = problems
        else:
            passed.append(entry)
    return failed, passed, digest.hexdigest()


def _wilson_upper(successes: int, n: int, z: float = 1.96) -> float:
    p = successes / n
    centre = p + z * z / (2 * n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (centre + half) / (1 + z * z / n)


def dominance_problems(entries: list) -> list:
    """The catalog's dominance-2pt expectation, over every seed of a run.

    The expectation is a statement about seed fractions, so a run of a few
    dozen seeds fails it only when the observed fraction is significantly
    below the stated one: the Wilson 95% upper bound falls short of it.
    """
    n = len(entries)
    if n == 0:
        return ["no seeds to check the dominance expectation on"]
    rows = [e["investors"][0] for e in entries]
    kept = sum(1 for r in rows if r["min_rel"] >= DOMINANCE_FLOOR)
    dominant = sum(1 for r in rows if r["terminal_rel"] >= DOMINANCE_TERMINAL)
    problems = []
    if _wilson_upper(kept, n) < DOMINANCE_MIN_SHARE:
        problems.append(f"candidate kept its floor in only {kept} of {n} seeds")
    if _wilson_upper(dominant, n) < DOMINANCE_TERMINAL_SHARE:
        problems.append(f"candidate dominated in only {dominant} of {n} seeds")
    return problems
