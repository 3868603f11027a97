"""The module-level names that the benchmark's tracer rebinds.

``perfbench/spans.py`` measures its layers by rebinding these names from
outside the package, and the tier-1 suite does not collect ``perfbench``,
so a rename here would break the traced benchmark run and pass every other
test.  This test goes once the package times its own stages and the
tracer no longer rebinds names (ROADMAP item 2).
"""

from marketsel import cli, core, diagnostics, engine

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
