"""Dense Hermitian eigensolver wrapper, LU resolvents of minors and their
quadratic forms.

The resolvent path is an LU factorization with partial pivoting of
(H^(T) - z), reused across right-hand sides; the spectral path goes through
the full eigendecomposition. The two stay independent so they can check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import MatrixSample
from .errors import ConvergenceError, DomainError, SolverError, SymmetryError

__all__ = [
    "Spectrum", "ResolventSlice", "eigenvalues", "eigh", "minor", "surviving_indices", "resolvent", "quadratic_form_z",
]

_HERM_TOL = 1e-12


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, MatrixSample):
        return h.entries
    return np.asarray(h)


def _check_hermitian(a: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > _HERM_TOL * scale:
        raise SymmetryError(f"matrix is not Hermitian (defect {defect:.3g})")


@dataclass
class Spectrum:
    """Eigenvalues in ascending order, optional eigenvector columns, residual."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual: float | None = None

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def eigenvalues(spectrum) -> np.ndarray:
    """Float eigenvalues, ascending, of a Spectrum or of an array (sorted here)."""
    if isinstance(spectrum, Spectrum):
        return np.asarray(spectrum.eigenvalues, dtype=float)
    return np.sort(np.asarray(spectrum, dtype=float))


def eigh(h, compute_vectors: bool = True) -> Spectrum:
    """Full spectrum of a Hermitian matrix, ascending.

    Backed by LAPACK's Householder reduction + tridiagonal diagonalization;
    ordering of degenerate eigenvalues is the solver's stable output order.
    """
    a = _as_matrix(h)
    _check_hermitian(a)
    a = 0.5 * (a + a.conj().T)
    try:
        if compute_vectors:
            w, u = np.linalg.eigh(a)
            resid = float(np.max(np.linalg.norm(a @ u - u * w[None, :], axis=0))) if a.size else 0.0
            return Spectrum(eigenvalues=w, eigenvectors=u, residual=resid)
        w = np.linalg.eigvalsh(a)
        return Spectrum(eigenvalues=w)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(str(exc)) from exc


def surviving_indices(n: int, t) -> np.ndarray:
    """Original indices that survive removal of the set t, ascending."""
    t = set(int(k) for k in t)
    for k in t:
        if not 0 <= k < n:
            raise IndexError(f"minor index {k} out of range for dimension {n}")
    return np.array([i for i in range(n) if i not in t], dtype=int)


def minor(h, t) -> np.ndarray:
    """Minor H^(T): rows and columns in t removed, order preserved."""
    a = _as_matrix(h)
    keep = surviving_indices(a.shape[0], t)
    return a[np.ix_(keep, keep)]


@dataclass
class ResolventSlice:
    """Resolvent G^(T)(z) of a minor, addressable by original indices."""

    z: complex
    surviving: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        self._pos = {int(orig): k for k, orig in enumerate(self.surviving)}

    def entry(self, i: int, j: int) -> complex:
        """G^(T)_ij with i, j original indices (must survive the minor)."""
        try:
            return complex(self.entries[self._pos[int(i)], self._pos[int(j)]])
        except KeyError as exc:
            raise IndexError(f"index {exc.args[0]} was removed by the minor set") from exc


def resolvent(h, z: complex, t=()) -> ResolventSlice:
    """G^(T)(z) = (H^(T) - z)^-1 by complex LU with partial pivoting."""
    if not complex(z).imag > 0:
        raise DomainError(f"resolvent requires Im z > 0, got {z}")
    a = _as_matrix(h)
    keep = surviving_indices(a.shape[0], t)
    am = a if keep.size == a.shape[0] else a[np.ix_(keep, keep)]
    m = am.shape[0]
    shifted = am - complex(z) * np.eye(m)
    try:
        g = np.linalg.inv(shifted)  # LAPACK zgesv: getrf + getrs against the identity
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"shifted solve failed at z={z}: {exc}") from exc
    if not np.all(np.isfinite(g)):
        raise SolverError(f"shifted solve produced non-finite entries at z={z}")
    return ResolventSlice(z=complex(z), surviving=keep, entries=g)


def quadratic_form_z(h, i: int, j: int, t, z: complex):
    """Quadratic form Z^(T)_ij = a^i . G^(T) a^j and K^(T)_ij.

    a^i is the i-th column of H restricted to the indices surviving t; the
    caller supplies the exact removal set (include i itself to form the
    K^(iT) quantities). Returns the pair (Z, K) with
    K^(T)_ij = h_ij - z*delta_ij - Z^(T)_ij.
    """
    a = _as_matrix(h)
    n = a.shape[0]
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for dimension {n}")
    sl = resolvent(a, z, t)
    ai = a[sl.surviving, i]
    aj = a[sl.surviving, j]
    zval = complex(ai.conj() @ sl.entries @ aj)
    kval = complex(a[i, j]) - complex(z) * (1.0 if i == j else 0.0) - zval
    return zval, kval
