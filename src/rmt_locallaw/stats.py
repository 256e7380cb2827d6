"""Unfolding, gap statistics and two-ensemble comparisons.

Reference statistics for the Gaussian ensembles are sampled empirically at
the same matrix size rather than taken from closed-form kernels, so
finite-size effects cancel in comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .ensembles import EntryDistribution, VarianceProfile, sample_matrix
from .errors import ConfigError, EmptyError
from .linalg import eigenvalues, eigh
from .parallel import pmap
from .seeding import derive_seed
from .semicircle import nsc_eval

__all__ = [
    "UnfoldedSample",
    "EmpiricalCDF",
    "GreenComparisonReport",
    "unfold",
    "ks_distance",
    "sine_kernel",
    "green_comparison",
]


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


def unfold(spectrum, kappa_cut: float, matrix_dim: int | None = None) -> UnfoldedSample:
    """Unfold a sorted spectrum; bulk = eigenvalues with |lambda| <= 2 - kappa_cut.

    matrix_dim overrides N when the input is a partial list of eigenvalues.
    """
    if not 0 < kappa_cut < 2:
        raise ConfigError(f"kappa_cut must be in (0, 2), got {kappa_cut}")
    lam = eigenvalues(spectrum)
    n = matrix_dim if matrix_dim is not None else lam.size
    points = n * nsc_eval(lam)
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

    def to_csv(self, path, schema: str = "empirical-cdf") -> None:
        jumps = self.jumps
        write_csv(path, schema, ["value", "cdf"], zip(jumps, self(jumps)))


def ks_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Two-sample Kolmogorov-Smirnov distance, exact over the merged jump set."""
    grid = np.union1d(a.jumps, b.jumps)
    return float(np.max(np.abs(a(grid) - b(grid))))


def sine_kernel(x):
    """K(x) = sin(pi x)/(pi x), continuously extended with K(0) = 1."""
    out = np.sinc(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


FUNCTIONALS = {
    "trace": lambda m: (m.real, m.imag),
    "abs2": lambda m: (abs(m) ** 2,),
    "smooth_log": lambda m: (math.log1p(abs(m) ** 2),),
}


def _jackknife_se(vals: np.ndarray) -> float:
    n = vals.size
    if n < 2:
        return float("nan")
    loo = (vals.sum() - vals) / (n - 1)
    return float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


@dataclass
class GreenComparisonReport:
    """Per-z functional differences between two entry laws on one profile."""

    rows: list
    moment_mismatch: dict
    functional: str
    sample_count: int
    seed: int = 0

    def max_abs_zscore(self) -> float:
        return max(abs(r["zscore"]) for r in self.rows)

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "functional": self.functional,
                "sample_count": self.sample_count,
                "seed": self.seed,
                "moment_mismatch": self.moment_mismatch,
                "rows": [
                    {**{k: v for k, v in r.items() if k != "z"}, "z": [r["z"].real, r["z"].imag]}
                    for r in self.rows
                ],
            },
            sort_keys=True,
        )


def green_comparison(
    p: VarianceProfile,
    d_a: EntryDistribution,
    d_b: EntryDistribution,
    beta: int,
    z_list,
    functional: str = "trace",
    n_samples: int = 100,
    seed: int = 0,
    eta_epsilon: float = 0.1,
    slack: float = 0.1,
    kappa_cut: float = 0.5,
    workers: int | None = None,
) -> GreenComparisonReport:
    """Monte Carlo Green-function comparison of two entry laws.

    Both ensembles share the profile p and use common per-sample seeds, so
    identical laws give exactly zero difference. Each z must sit in the
    comparison regime N^(-1-eps) <= eta <= N^(-1) (up to `slack`) with
    |E| <= 2 - 2*kappa_cut. The report carries jackknife standard errors and
    the fourth-moment mismatch of the component laws.
    """
    if functional not in FUNCTIONALS:
        raise ConfigError(f"unknown functional {functional!r}; catalog: {sorted(FUNCTIONALS)}")
    n = p.n
    z_list = [complex(z) for z in z_list]
    lo = n ** (-1.0 - eta_epsilon) * (1.0 - slack)
    hi = n ** (-1.0) * (1.0 + slack)
    for z in z_list:
        if not lo <= z.imag <= hi:
            raise ConfigError(f"eta={z.imag} outside the comparison regime [{lo:.3g}, {hi:.3g}]")
        if abs(z.real) > 2.0 - 2.0 * kappa_cut:
            raise ConfigError(f"|E|={abs(z.real)} outside the bulk window {2.0 - 2.0 * kappa_cut}")

    fn = FUNCTIONALS[functional]

    def _job(si):
        s = derive_seed(seed, si)
        out = []
        for d in (d_a, d_b):
            lam = eigh(sample_matrix(p, d, beta, s), compute_vectors=False).eigenvalues
            out.append([fn(complex(np.mean(1.0 / (lam - z)))) for z in z_list])
        return out

    stats = pmap(_job, list(range(n_samples)), workers)
    rows = []
    for zi, z in enumerate(z_list):
        n_stats = len(FUNCTIONALS[functional](0j))
        for comp in range(n_stats):
            va = np.array([s[0][zi][comp] for s in stats])
            vb = np.array([s[1][zi][comp] for s in stats])
            diff = va - vb
            se = _jackknife_se(diff)
            mean_diff = float(diff.mean())
            rows.append(
                {
                    "z": z,
                    "component": comp,
                    "mean_a": float(va.mean()),
                    "mean_b": float(vb.mean()),
                    "diff": mean_diff,
                    "stderr": se,
                    "zscore": mean_diff / se if se and se > 0 else 0.0,
                }
            )
    mismatch = {f"m{k}": abs(_component_moment(d_a, k) - _component_moment(d_b, k)) for k in range(1, 5)}
    mismatch["max"] = max(mismatch.values())
    return GreenComparisonReport(
        rows=rows, moment_mismatch=mismatch, functional=functional, sample_count=n_samples, seed=seed
    )


def _component_moment(d: EntryDistribution, k: int) -> float:
    if k == 1:
        return 0.0
    if k == 2:
        return 1.0
    if k == 3:
        return d.m3
    if k == 4:
        return d.m4
    raise ValueError(k)
