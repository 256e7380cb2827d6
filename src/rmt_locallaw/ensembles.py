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
# rows per block of the row-blocked passes over n x n arrays (sample_matrix's
# draws and fill, the variance symmetry check, the OU flow's products, the
# Hermitian part eigh takes of an array), so that their temporaries are
# ROW_BLOCK x n; sample_matrix's draw order, so the bytes of every sample,
# depend on it
ROW_BLOCK = 64


@dataclass(frozen=True)
class VarianceProfile:
    """Matrix of entry variances with derived spectral parameters.

    m_param = 1 / max_ij sigma^2_ij; c_inf / c_sup = N * min / max variance;
    delta_plus / delta_minus measure the gap of Spec(Sigma) below 1 and
    above -1. `variances` is read-only and need not be contiguous: a flat
    profile's grid is a zero-stride view of one value and costs O(1), a band
    profile's holds n^2 doubles.
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

        With `validate`, entries that are not finite, or else any structural
        defect (asymmetry, column sums, negativity, a spectrum outside [-1, 1]
        or without its eigenvalue 1), is a ValueError listing what was found.
        The spectral-gap conditions are not checked: a degenerate but
        stochastic profile is still samplable, and delta_plus, delta_minus
        and edge_exponent_a report it."""
        var = np.asarray(variances, dtype=float)
        if var.flags.writeable:
            # a read-only grid is kept as it is (a broadcast view stays a
            # view); a writable one is copied, so that the profile never
            # aliases an array its caller can change
            var = var.copy()
            var.setflags(write=False)
        if var.ndim != 2 or var.shape[0] != var.shape[1] or var.shape[0] < 1:
            raise ValueError(f"variances must be a square grid, got shape {var.shape}")
        n = var.shape[0]
        vmax, vmin = float(var.max()), float(var.min())
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
            c_inf=n * vmin,
            c_sup=float(n * vmax),
            sigma_spectrum=spectrum,
            delta_minus=delta_minus,
            delta_plus=delta_plus,
            profile_id=profile_id,
        )
        if validate:
            # a NaN passes every comparison below, and inf - inf warns: such a grid gets no residual check
            if not (math.isfinite(vmin) and math.isfinite(vmax)):
                raise ValueError("invalid variance profile: variances not finite")
            violations = []
            # max |var - var^T|, over the row blocks on and above the
            # diagonal against their mirror column blocks: no n x n
            # temporary, and no transposed read of the whole grid
            b = ROW_BLOCK
            sym = float(np.max([np.max(np.abs(var[r:r + b, r:] - var[r:, r:r + b].T)) for r in range(0, n, b)]))
            if sym > _COLSUM_TOL:
                violations.append(f"variances not symmetric (residual {sym:.3g})")
            colres = prof.column_sum_residual()
            if colres > _COLSUM_TOL:
                violations.append(f"column sums deviate from 1 by {colres:.3g}")
            if vmin < 0:  # a NaN minimum does not count as negative
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
    # a read-only view of one value: the grid costs 8 bytes, not n^2 doubles
    flat = np.broadcast_to(np.float64(1.0 / n), (n, n))
    return VarianceProfile.from_variances(flat, profile_id=f"wigner-{n}", spectrum=spectrum)


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
        # an atom law: its draw_chunks stream, laid out in C order
        x = np.empty(size)
        flat = x.reshape(-1)
        j = 0
        for chunk in self.draw_chunks(rng, flat.size):
            flat[j:j + chunk.size] = chunk
            j += chunk.size
        return x

    def draw_chunks(self, rng: np.random.Generator, n: int):
        """The values of sample(rng, n), in order, as arrays of at most
        DRAW_CHUNK values each, so that a consumer never holds all n.

        An atom law takes every uniform first and keeps only each draw's atom
        index, in the smallest unsigned type that holds it (one byte up to
        256 atoms): atom k where cum[k-1] <= u < cum[k], the last atom for u
        past the end, i.e. searchsorted(cum, u, "right").clip(0, len - 1).
        That is the number of edges u reaches, edge k >= 1 being the least of
        cum[k-1:-1]. The edges are cum[:-1] when cum rises; when a probability
        inside the -1e-15 tolerance makes cum dip, they still give the last k
        with u >= cum[k-1]. A gaussian-divisible chunk is then
        sqrt(1-gamma)*atoms + sqrt(gamma)*g, with g the chunk's normals: the
        roundings and the stream of the whole-array form."""
        if self.kind in _CATALOG_KINDS:
            for j in range(0, n, DRAW_CHUNK):
                yield self.sample(rng, min(DRAW_CHUNK, n - j))
            return
        vals = np.array([v for v, _ in self.atoms])
        cum = np.cumsum([p for _, p in self.atoms])
        edges = np.minimum.accumulate(cum[-2::-1])[::-1]
        index = np.zeros(n, dtype=np.min_scalar_type(len(vals) - 1))
        for j in range(0, n, DRAW_CHUNK):
            u = rng.random(min(DRAW_CHUNK, n - j))
            block = index[j:j + u.size]
            for edge in edges:
                np.add(block, u >= edge, out=block)
        # each product atom * sqrt(1-gamma) rounds as it would per draw
        # (exactly the atom when gamma is 0), so it is formed once per atom
        scaled = vals * math.sqrt(1.0 - self.gamma)
        normals = np.empty(min(n, DRAW_CHUNK))
        for j in range(0, n, DRAW_CHUNK):
            x = scaled[index[j:j + DRAW_CHUNK]]
            if self.kind == "gaussian-divisible":
                g = rng.standard_normal(out=normals[:x.size])
                g *= math.sqrt(self.gamma)
                x += g
            yield x


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
    in blocks of ROW_BLOCK rows, n values per row, the block's rows of x and
    then (beta=2) of y. Each entry below the diagonal is an exact (conjugate)
    copy of its mirror, so the sample is Hermitian to the last bit.
    """
    if beta not in (1, 2):
        raise SamplingError(f"symmetry class must be 1 or 2, got {beta}")
    if not p.column_sum_residual() <= 1e-8:  # written so that a NaN residual fails it
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
    for r0 in range(0, n, ROW_BLOCK):
        rows = slice(r0, r0 + ROW_BLOCK)
        x = d.sample(rng, (min(ROW_BLOCK, n - r0), n))
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
