"""Unfolding and gap statistics: unfolded bulk gaps, their exact empirical
CDFs and the two-sample Kolmogorov-Smirnov distance between gap pools.

Reference statistics for the Gaussian ensembles are sampled empirically at
the same matrix size rather than taken from closed-form kernels, so
finite-size effects cancel in comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyError
from .linalg import eigenvalues
from .semicircle import nsc_eval

__all__ = ["UnfoldedSample", "EmpiricalCDF", "unfold", "ks_distance"]


@dataclass(frozen=True)
class UnfoldedSample:
    """Eigenvalues mapped to x_j = N * n_sc(lambda_j), with a bulk mask."""

    points: np.ndarray
    bulk_mask: np.ndarray

    @property
    def bulk_points(self) -> np.ndarray:
        return self.points[self.bulk_mask]

    def bulk_gaps(self) -> np.ndarray:
        pts = self.bulk_points
        return np.diff(pts) if pts.size >= 2 else np.empty(0)


def unfold(spectrum, kappa_cut: float) -> UnfoldedSample:
    """Unfold a sorted spectrum; bulk = eigenvalues with |lambda| <= 2 - kappa_cut."""
    if not 0 < kappa_cut < 2:
        raise ConfigError(f"kappa_cut must be in (0, 2), got {kappa_cut}")
    lam = eigenvalues(spectrum)
    points = lam.size * nsc_eval(lam)
    return UnfoldedSample(points=np.atleast_1d(points), bulk_mask=np.abs(lam) <= 2.0 - kappa_cut)


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
