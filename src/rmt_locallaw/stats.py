"""Unfolding and gap statistics: unfolded bulk gaps, their exact empirical
CDFs and the two-sample Kolmogorov-Smirnov distance between gap pools.

Reference statistics for the Gaussian ensembles are sampled empirically at
the same matrix size rather than taken from closed-form kernels, so
finite-size effects cancel in comparisons.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, EmptyError
from .linalg import eigenvalues
from .semicircle import nsc_eval

__all__ = ["EmpiricalCDF", "unfold", "ks_distance"]


def unfold(spectrum, kappa_cut: float) -> np.ndarray:
    """Unfolded bulk gaps of a spectrum: the spacings of x_j = N * n_sc(lambda_j)
    over the bulk eigenvalues |lambda_j| <= 2 - kappa_cut, in ascending order
    (empty below two bulk eigenvalues)."""
    if not 0 < kappa_cut < 2:
        raise ConfigError(f"kappa_cut must be in (0, 2), got {kappa_cut}")
    lam = eigenvalues(spectrum)
    points = lam.size * nsc_eval(lam)
    return np.diff(points[np.abs(lam) <= 2.0 - kappa_cut])


class EmpiricalCDF:
    """Exact step representation of an empirical distribution function."""

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=float).ravel())
        if vals.size == 0:
            raise EmptyError("empirical CDF of an empty sample")
        self.values = vals
        self.n = vals.size

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.values, x, side="right") / self.n
        return out if out.ndim else float(out)

    @property
    def jumps(self) -> np.ndarray:
        return np.unique(self.values)


def ks_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Two-sample Kolmogorov-Smirnov distance, exact over the merged jump set."""
    grid = np.union1d(a.jumps, b.jumps)
    return float(np.max(np.abs(a(grid) - b(grid))))
