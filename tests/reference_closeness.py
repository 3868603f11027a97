"""The closeness integral recomputed from a run's recorded series.

An oracle for the engines' closeness sums, outside the package: the
squared distance of each recorded weight row to the candidate, times the
selection-clock increment of that record, summed.
"""

import numpy as np

from marketsel import DomainError


def closeness_integral(lam, lam_hat, d_pressure) -> float:
    """Integral of the squared distance to the candidate against the clock."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    lam_hat = np.atleast_2d(np.asarray(lam_hat, dtype=float))
    dh = np.asarray(d_pressure, dtype=float)
    if lam.shape != lam_hat.shape or lam.shape[0] != dh.size:
        raise DomainError("series must be aligned")
    if np.any(dh < 0.0):
        raise DomainError("pressure increments must be >= 0")
    return float((((lam - lam_hat) ** 2).sum(axis=1) * dh).sum())
