"""Deterministic workload generator.

Every workload is one closed-loop client: it issues ``marketsel run``
invocations one after another, each over a fixed number of seeds
(``chunk``), until the measuring time is used up.  Everything the program
receives -- the scenario config and the seed list of each invocation -- is
a function of the workload seed alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np

# Simulation seeds of a run are drawn from [base, base + SEED_SPAN); the
# last one is reserved for the untimed warm-up invocation.
SEED_SPAN = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    chunk: int  # seeds per `marketsel run` invocation
    jobs: int
    base: int  # first simulation seed
    scenario: str | None = None  # run by catalog name instead of a config file

    @property
    def config_sha256(self) -> str:
        canonical = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def batch_seeds(self, i: int) -> tuple:
        """(first seed, count) of the i-th invocation."""
        first = self.base + i * self.chunk
        if first + self.chunk > self.base + SEED_SPAN - 1:
            raise ValueError("seed range of the run exhausted")
        return first, self.chunk

    @property
    def warmup_seed(self) -> int:
        return self.base + SEED_SPAN - 1


def _simplex(rng, n, floor=0.02):
    """Random point of the simplex with every component >= floor / n."""
    w = rng.dirichlet(np.ones(n)) * (1.0 - floor) + floor / n
    return [float(x) for x in w / w.sum()]


def _discrete_2x2(seed: int, catalog) -> dict:
    # The catalog scenario verbatim: this workload is the plain baseline
    # whose expected outcome the catalog states.
    return copy.deepcopy(catalog["dominance-2pt"].config)


def _continuous_drift(seed: int, catalog) -> dict:
    rng = np.random.default_rng([seed, 1])
    atoms = [
        {
            "payoff": [float(rng.uniform(0.5, 1.5)), 0.0],
            "v": float(rng.uniform(0.02, 0.15)),
            "intensity": float(rng.uniform(0.5, 2.0)),
        },
        {
            "payoff": [0.0, float(rng.uniform(0.5, 1.5))],
            "v": float(rng.uniform(0.02, 0.15)),
            "intensity": float(rng.uniform(0.5, 2.0)),
        },
    ]
    return {
        "name": "continuous-drift",
        "market": {
            "investors": 3,
            "assets": 2,
            "initial_wealth": [float(x) for x in rng.uniform(0.5, 2.0, 3)],
        },
        "payoff_model": {
            "type": "kernel",
            "jump_atoms": atoms,
            "drift": [0.4, 0.2],
            "v_rate": 0.3,
            "gamma_v": 0.2,
        },
        "strategies": [
            {"kind": "survival_exact"},
            {"kind": "constant", "weights": _simplex(rng, 2, floor=0.2)},
            {
                "kind": "perturbed",
                "base": {"kind": "survival_exact"},
                "schedule": {"kind": "inverse_t", "coefficient": float(rng.uniform(0.5, 2.0))},
                "target": _simplex(rng, 2, floor=0.2),
            },
        ],
        "horizon": 10.0,
        "seeds": {"base": 0, "count": 1},
        "record": {"grid": 0.5},
        "integrator": {"dt": 0.01},
        "diagnostics": {"survival_floor": 0.05},
    }


_WIDE_M, _WIDE_N, _WIDE_ATOMS = 40, 10, 6


def _wide_regime(rng) -> dict:
    probs = rng.dirichlet(np.ones(_WIDE_ATOMS)) * 0.9 + 0.1 / _WIDE_ATOMS
    probs = probs / probs.sum()
    atoms = []
    for k in range(_WIDE_ATOMS):
        payoff = rng.uniform(0.0, 1.0, _WIDE_N) * (rng.random(_WIDE_N) < 0.6)
        payoff[k % _WIDE_N] += 0.5  # no all-zero payoff row
        atoms.append(
            {
                "payoff": [float(x) for x in payoff],
                "delta": float(rng.uniform(0.8, 0.97)),
                "probability": float(probs[k]),
            }
        )
    # Probabilities must sum to one within 1e-12; fold the rounding into
    # the last atom.
    atoms[-1]["probability"] = 1.0 - sum(a["probability"] for a in atoms[:-1])
    return {"atoms": atoms}


def _wide_strategy(rng, m: int) -> dict:
    kind = ("survival_exact", "constant", "perturbed", "survival_mc", "table")[m % 5]
    if kind == "survival_exact":
        return {"kind": kind}
    if kind == "constant":
        return {"kind": kind, "weights": _simplex(rng, _WIDE_N)}
    if kind == "perturbed":
        return {
            "kind": kind,
            "base": {"kind": "survival_exact"},
            "schedule": {"kind": "inverse_t", "coefficient": float(rng.uniform(0.5, 4.0))},
            "target": _simplex(rng, _WIDE_N),
        }
    if kind == "survival_mc":
        return {"kind": kind, "samples": 64}
    return {
        "kind": "table",
        "default": [[0, _simplex(rng, _WIDE_N)], [250, _simplex(rng, _WIDE_N)]],
        "regimes": {"1": [[0, _simplex(rng, _WIDE_N)]]},
    }


def _wide_markov(seed: int, catalog) -> dict:
    rng = np.random.default_rng([seed, 2])
    stay = rng.uniform(0.7, 0.95, 2)
    return {
        "name": "wide-markov",
        "market": {
            "investors": _WIDE_M,
            "assets": _WIDE_N,
            "initial_wealth": [float(x) for x in rng.uniform(0.5, 2.0, _WIDE_M)],
        },
        "payoff_model": {
            "type": "markov",
            "states": ["calm", "stress"],
            "transition": [
                [float(stay[0]), float(1.0 - stay[0])],
                [float(1.0 - stay[1]), float(stay[1])],
            ],
            "regimes": [_wide_regime(rng), _wide_regime(rng)],
        },
        "strategies": [_wide_strategy(rng, m) for m in range(_WIDE_M)],
        "horizon": 500,
        "seeds": {"base": 0, "count": 1},
        "diagnostics": {"survival_floor": 0.05},
    }


# name -> (config builder, seeds per invocation, --jobs, catalog name)
_SPECS = {
    "discrete-2x2": (_discrete_2x2, 8, 1, "dominance-2pt"),
    "continuous-drift": (_continuous_drift, 8, 1, None),
    "wide-markov": (_wide_markov, 8, 2, None),
}

NAMES = tuple(_SPECS)


def make(name: str, seed: int, catalog) -> Workload:
    """Build workload ``name`` for workload seed ``seed``.

    ``catalog`` is ``marketsel.scenarios.CATALOG``; it is passed in so that
    this module imports nothing from the program under test.
    """
    build, chunk, jobs, scenario = _SPECS[name]
    base = (seed % 10**9) * SEED_SPAN
    return Workload(name, build(seed, catalog), chunk, jobs, base, scenario)
