"""Variance profiles, entry distributions and Hermitian matrix sampling.

A variance profile is the doubly stochastic matrix of entry variances
sigma^2_ij (each column sums to one); an entry distribution is a standardized
(mean 0, variance 1) law. Together with a symmetry class beta in {1, 2} and a
seed they determine one Hermitian sample, reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateProfileError,
    NotFoundError,
    SamplingError,
)
from .seeding import generator

__all__ = [
    "VarianceProfile",
    "EntryDistribution",
    "MatrixSample",
    "wigner_profile",
    "band_profile",
    "catalog_distribution",
    "sample_matrix",
]

_COLSUM_TOL = 1e-12
_SPECTRUM_TOL = 1e-9
# draws per chunk of the streamed sampling and Monte Carlo steps (512 KiB of float64)
DRAW_CHUNK = 1 << 16
# rows per block of sample_matrix's draws and fill; the draw order, so the
# bytes of every sample, depend on it
_SAMPLE_ROWS = 64


@dataclass(frozen=True)
class VarianceProfile:
    """Matrix of entry variances with derived spectral parameters.

    m_param = 1 / max_ij sigma^2_ij; c_inf / c_sup = N * min / max variance;
    delta_plus / delta_minus measure the gap of Spec(Sigma) below 1 and
    above -1.
    """

    n: int
    variances: np.ndarray
    m_param: float
    c_inf: float
    c_sup: float
    sigma_spectrum: np.ndarray
    delta_minus: float
    delta_plus: float
    profile_id: str = "custom"

    @classmethod
    def from_variances(
        cls, variances, profile_id: str = "custom", validate: bool = True, spectrum=None
    ) -> "VarianceProfile":
        """Profile of a variance grid. `spectrum` is Spec(Sigma) when the caller
        knows it in closed form; otherwise a dense eigvalsh computes it.

        With `validate`, a structural defect (asymmetry, column sums,
        negativity, a spectrum outside [-1, 1] or without its eigenvalue 1)
        is a ValueError listing every defect found. The spectral-gap
        conditions are not checked: a degenerate but stochastic profile is
        still samplable, and delta_plus, delta_minus and edge_exponent_a
        report it."""
        var = np.array(variances, dtype=float)
        if var.ndim != 2 or var.shape[0] != var.shape[1] or var.shape[0] < 1:
            raise ValueError(f"variances must be a square grid, got shape {var.shape}")
        n = var.shape[0]
        var.setflags(write=False)
        vmax = float(var.max())
        spectrum = np.sort(np.linalg.eigvalsh(var) if spectrum is None else np.asarray(spectrum, dtype=float))
        if n >= 2:
            delta_plus = float(1.0 - spectrum[-2])
            delta_minus = float(1.0 + spectrum[0])
        else:
            delta_plus = delta_minus = 1.0
        prof = cls(
            n=n,
            variances=var,
            m_param=(1.0 / vmax) if vmax > 0 else math.inf,
            c_inf=float(n * var.min()),
            c_sup=float(n * vmax),
            sigma_spectrum=spectrum,
            delta_minus=delta_minus,
            delta_plus=delta_plus,
            profile_id=profile_id,
        )
        if validate:
            violations = []
            sym = float(np.max(np.abs(var - var.T)))
            if sym > _COLSUM_TOL:
                violations.append(f"variances not symmetric (residual {sym:.3g})")
            colres = prof.column_sum_residual()
            if colres > _COLSUM_TOL:
                violations.append(f"column sums deviate from 1 by {colres:.3g}")
            if np.any(var < 0):
                violations.append("negative variances")
            if abs(spectrum[-1] - 1.0) > _SPECTRUM_TOL:
                violations.append(f"largest Sigma eigenvalue {float(spectrum[-1])!r} != 1")
            if spectrum[0] < -1.0 - _SPECTRUM_TOL or spectrum[-1] > 1.0 + _SPECTRUM_TOL:
                violations.append("Sigma spectrum escapes [-1, 1]")
            if violations:
                raise ValueError("invalid variance profile: " + "; ".join(violations))
        return prof

    def column_sum_residual(self) -> float:
        return float(np.max(np.abs(self.variances.sum(axis=0) - 1.0)))

    @property
    def edge_exponent_a(self) -> int:
        """Edge exponent A of the control function: 1 under condition (VV),
        every variance comparable to 1/N, else 2."""
        return 1 if self.c_inf > 0 and np.isfinite(self.c_sup) else 2


def wigner_profile(n: int) -> VarianceProfile:
    """Flat profile sigma^2_ij = 1/n (standard Wigner normalization).

    Sigma is the projection onto the constant vector: Spec = {0^(n-1), 1}.
    """
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    spectrum = np.zeros(n)
    spectrum[-1] = 1.0
    return VarianceProfile.from_variances(np.full((n, n), 1.0 / n), profile_id=f"wigner-{n}", spectrum=spectrum)


def band_profile(n: int, w: int, shape: Callable[[float], float]) -> VarianceProfile:
    """Band profile from a symmetric nonnegative shape function.

    Raw weights shape(d/w)/w at circular distance d = min(i-j mod n, j-i mod n),
    then columns are rescaled to sum exactly to one and re-symmetrized
    (Sinkhorn-style, at most 50 rounds, tolerance 1e-12). The grid is a
    symmetric circulant, so Spec(Sigma) is the real part of the FFT of its
    first row.
    """
    if not 1 <= w <= n:
        raise ValueError(f"bandwidth must satisfy 1 <= w <= n, got w={w}, n={n}")
    dists = np.arange(n // 2 + 1, dtype=float)
    weights = np.array([float(shape(d / w)) for d in dists]) / w
    if np.any(weights < 0):
        raise ValueError("shape function must be nonnegative")
    if not np.any(weights > 0):
        raise DegenerateProfileError("shape vanished on the whole sampled lattice")
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    d = np.minimum(d, n - d)
    var = weights[d]
    for _ in range(50):
        colsums = var.sum(axis=0)
        if np.any(colsums <= 0):
            raise DegenerateProfileError("a column of the band profile has zero mass")
        var = var / colsums[None, :]
        var = 0.5 * (var + var.T)
        if np.max(np.abs(var.sum(axis=0) - 1.0)) < _COLSUM_TOL:
            break
    else:
        raise ConvergenceError("band profile normalization did not reach 1e-12 in 50 rounds")
    return VarianceProfile.from_variances(var, profile_id=f"band-{n}-{w}", spectrum=np.fft.fft(var[0]).real)


_SQRT3 = math.sqrt(3.0)
_CATALOG_KINDS = ("bernoulli", "gaussian", "uniform")
_ATOM_KINDS = ("discrete-atoms", "gaussian-divisible")


@dataclass(frozen=True)
class EntryDistribution:
    """Standardized entry law (mean 0, variance 1), given by its kind.

    kind is one of bernoulli | gaussian | uniform | discrete-atoms |
    gaussian-divisible; atoms holds (value, probability) pairs for the two
    atom kinds, and gamma is the Gaussian mixing weight of a
    gaussian-divisible law: xi = sqrt(1-gamma)*atom_law + sqrt(gamma)*N(0,1).
    Its moments follow from these fields; dist_id (default: the kind) keys
    the random stream of every sample drawn from it.
    """

    kind: str
    atoms: tuple | None
    gamma: float = 0.0
    dist_id: str = ""

    def __post_init__(self):
        # so that no field can be ignored by the sampler: a known kind, atoms
        # exactly on the atom kinds, a gamma only on gaussian-divisible
        if self.kind not in _CATALOG_KINDS + _ATOM_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.gamma != 0.0 and self.kind != "gaussian-divisible":
            raise ValueError(f"a {self.kind} law takes no gamma, got {self.gamma}")
        if self.kind in _CATALOG_KINDS and self.atoms is not None:
            raise ValueError(f"a {self.kind} law takes no atoms")
        if self.kind in _ATOM_KINDS:
            # each test reads "not (... <= tol)", so that a NaN fails it; a NaN or
            # infinite atom value or probability fails the sum or moment test
            if not self.atoms:
                raise ValueError(f"{self.kind} law requires atoms")
            probs = np.array([p for _, p in self.atoms])
            if not abs(probs.sum() - 1.0) <= 1e-12 or np.any(probs < -1e-15):
                raise ValueError("atom probabilities must be nonnegative and sum to 1")
            # mean 0 and variance 1 to the tolerance three_point_construct asserts
            mean = sum(p * v for v, p in self.atoms)
            var = sum(p * v * v for v, p in self.atoms)
            if not (abs(mean) <= 1e-12 and abs(var - 1.0) <= 1e-12):
                raise ValueError(f"atoms must have mean 0 and variance 1, got mean {mean:.3g}, variance {var:.3g}")
        if not self.dist_id:
            object.__setattr__(self, "dist_id", self.kind)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        if self.kind == "bernoulli":
            x = rng.integers(0, 2, size=size).astype(float)
            x *= 2.0
            x -= 1.0
            return x
        if self.kind == "uniform":
            return rng.uniform(-_SQRT3, _SQRT3, size=size)
        if self.kind == "discrete-atoms":
            return self._sample_atoms(rng, size)
        # gaussian-divisible: sqrt(1-gamma)*base + sqrt(gamma)*g, formed in place
        # with g drawn in chunks: the same roundings and the same normal stream
        # as whole arrays
        x = self._sample_atoms(rng, size)
        x *= math.sqrt(1.0 - self.gamma)
        flat = x.reshape(-1)
        scale = math.sqrt(self.gamma)
        for j in range(0, flat.size, DRAW_CHUNK):
            g = rng.standard_normal(min(DRAW_CHUNK, flat.size - j))
            g *= scale
            flat[j:j + g.size] += g
        return x

    def _sample_atoms(self, rng, size):
        """Atom k where cum[k-1] <= u < cum[k], the last atom for u past the
        end: vals[searchsorted(cum, u, "right").clip(0, len(vals) - 1)],
        selected in place over u. The masks u >= cum[k] nest because cum
        rises, so writing each atom over its mask in order leaves the right
        one, bit for bit."""
        vals = [v for v, _ in self.atoms]
        cum = np.cumsum([p for _, p in self.atoms])
        u = rng.random(size)
        masks = [u >= c for c in cum[:-1]]
        u.fill(vals[0])
        for v, mask in zip(vals[1:], masks):
            np.copyto(u, v, where=mask)
        return u


def catalog_distribution(name: str) -> EntryDistribution:
    """Catalog of standardized laws: bernoulli, gaussian, uniform."""
    if name in _CATALOG_KINDS:
        return EntryDistribution(kind=name, atoms=None)
    raise NotFoundError(f"unknown distribution {name!r}")


@dataclass(frozen=True)
class MatrixSample:
    """One Hermitian sample tied to its profile, distribution and seed."""

    symmetry_class: int
    entries: np.ndarray
    profile_id: str
    dist_id: str
    seed: int

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def sample_matrix(p: VarianceProfile, d: EntryDistribution, beta: int, seed: int) -> MatrixSample:
    """Draw one Hermitian (beta=2) or real symmetric (beta=1) sample.

    Entry (i, j), i < j, is an independent standardized draw scaled to
    variance sigma^2_ij (real and imaginary parts each sigma^2_ij/2 for
    beta=2); the diagonal is real with variance sigma^2_ii. All randomness is
    a pure function of (profile, distribution, beta, seed): one stream, taken
    in blocks of 64 rows, n values per row, the block's rows of x and then
    (beta=2) of y. Each entry below the diagonal is an exact (conjugate) copy
    of its mirror, so the sample is Hermitian to the last bit.
    """
    if beta not in (1, 2):
        raise SamplingError(f"symmetry class must be 1 or 2, got {beta}")
    if p.column_sum_residual() > 1e-8:
        raise SamplingError("profile violates the column-sum normalization")
    n = p.n
    var = p.variances
    rng = generator(seed, p.profile_id, d.dist_id, beta)
    h = np.empty((n, n), dtype=complex if beta == 2 else float)
    # one block of rows at a time, so that h is the only n x n array: draw
    # the block's rows of x, then of y; fill the entries on and above the
    # diagonal; copy those below it from their mirrors, exactly (conjugated),
    # so that no arithmetic can give a zero of the other sign; then the
    # diagonal
    for r0 in range(0, n, _SAMPLE_ROWS):
        rows = slice(r0, r0 + _SAMPLE_ROWS)
        x = d.sample(rng, (min(_SAMPLE_ROWS, n - r0), n))
        sigma = np.sqrt(var[rows, r0:])
        if beta == 2:
            y = d.sample(rng, x.shape)
            h[rows, r0:] = sigma * (x[:, r0:] + 1j * y[:, r0:]) / math.sqrt(2.0)
        else:
            h[rows, r0:] = sigma * x[:, r0:]
        np.conjugate(h[:r0, rows].T, out=h[rows, :r0])
        square = h[rows, rows]
        np.copyto(square, square.T.conj(), where=np.tri(len(square), k=-1, dtype=bool))
        np.fill_diagonal(square, np.diag(sigma) * np.diag(x[:, rows]))
    h.setflags(write=False)
    return MatrixSample(symmetry_class=beta, entries=h, profile_id=p.profile_id, dist_id=d.dist_id, seed=seed)
