"""Dense Hermitian eigensolver wrapper and LU resolvents of minors.

The resolvent path is an LU factorization with partial pivoting of
(H^(T) - z), inverted from its factors (LAPACK zgetrf + zgetri); the
spectral path goes through numpy's full eigendecomposition. The two stay
independent so they can check each other. Eigenvalues alone come from the
LAPACK routines in `lapack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack
from .ensembles import ROW_BLOCK, MatrixSample
from .errors import ConvergenceError, DomainError, SolverError, SymmetryError

__all__ = ["Spectrum", "ResolventSlice", "eigenvalues", "eigh", "surviving_indices", "resolvent"]

_HERM_TOL = 1e-12


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, MatrixSample):
        return h.entries
    return np.asarray(h)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 * (a + a^H) in a new array, once max |a - a^H| is checked against
    _HERM_TOL * max(1, max |a|) (a SymmetryError above it). Each ROW_BLOCK-row
    block goes against its mirror column block, so the new array is the only
    n x n allocation; its entries are those of the whole-array expression."""
    out = np.empty(a.shape, dtype=np.result_type(a.dtype, 0.5))
    scales, defects = [0.0], [0.0]
    for r in range(0, a.shape[0], ROW_BLOCK):
        rows = slice(r, r + ROW_BLOCK)
        mirror = a[:, rows].T.conj()
        scales.append(np.max(np.abs(a[rows])))
        defects.append(np.max(np.abs(a[rows] - mirror)))
        block = out[rows]
        np.add(a[rows], mirror, out=block)
        block *= 0.5
    # np.max, not max, so that a NaN propagates as in the whole-array form
    scale, defect = max(1.0, float(np.max(scales))), float(np.max(defects))
    if defect > _HERM_TOL * scale:
        raise SymmetryError(f"matrix is not Hermitian (defect {defect:.3g})")
    return out


@dataclass
class Spectrum:
    """Eigenvalues in ascending order and, optionally, eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def eigenvalues(spectrum) -> np.ndarray:
    """Float eigenvalues, ascending, of a Spectrum or of an array (sorted here)."""
    if isinstance(spectrum, Spectrum):
        return np.asarray(spectrum.eigenvalues, dtype=float)
    return np.sort(np.asarray(spectrum, dtype=float))


def eigh(h, compute_vectors: bool = True) -> Spectrum:
    """Full spectrum of a Hermitian matrix, ascending.

    Backed by LAPACK's Householder reduction + tridiagonal diagonalization;
    ordering of degenerate eigenvalues is the solver's stable output order.
    A MatrixSample is exactly Hermitian by construction and is used as it
    is; any other array is checked and symmetrized first. Eigenvalues alone
    come from `lapack.eigvalsh` (two-stage reduction for complex input);
    with vectors, numpy's eigh, which the tests use as the spectral oracle.

    LAPACK overwrites the array it is given. For eigenvalues alone, a
    handed-over sample's entries (MatrixSample), when C-ordered float64 or
    complex128, go to LAPACK as they are; a read-only sample's are copied,
    and a plain array is never written.
    """
    if isinstance(h, MatrixSample):
        a = h.entries
        fresh = h.handed_over
    else:
        a = _hermitian_part(np.asarray(h))
        fresh = True
    if not compute_vectors:
        # C-ordered float64 or complex128, copied unless no caller keeps it
        dtype = complex if a.dtype.kind == "c" else float
        return Spectrum(eigenvalues=lapack.eigvalsh(a.astype(dtype, order="C", copy=not fresh)))
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(str(exc)) from exc
    return Spectrum(eigenvalues=w, eigenvectors=u)


def surviving_indices(n: int, t) -> np.ndarray:
    """Original indices that survive removal of the set t, ascending."""
    t = set(int(k) for k in t)
    for k in t:
        if not 0 <= k < n:
            raise IndexError(f"minor index {k} out of range for dimension {n}")
    return np.array([i for i in range(n) if i not in t], dtype=int)


@dataclass
class ResolventSlice:
    """Resolvent G^(T)(z) of a minor, addressable by original indices."""

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
    """G^(T)(z) = (H^(T) - z)^-1 by complex LU with partial pivoting.

    The inverse is formed in place in a C-ordered complex128 buffer holding
    H^(T) - z, which LAPACK reads as its transpose; read C-ordered again,
    the buffer is G. With t = (), a handed-over sample's entries
    (MatrixSample), when C-ordered complex128, are that buffer; otherwise
    it is a copy, and a read-only sample or a plain array is never written.
    Nothing assumes H Hermitian.
    """
    if not complex(z).imag > 0:
        raise DomainError(f"resolvent requires Im z > 0, got {z}")
    a = _as_matrix(h)
    keep = surviving_indices(a.shape[0], t)
    if keep.size == a.shape[0] and isinstance(h, MatrixSample) and h.handed_over:
        g = np.asarray(a, dtype=complex, order="C")  # the entries themselves, unless a cast or reorder copies
    else:
        g = np.array(a if keep.size == a.shape[0] else a[np.ix_(keep, keep)], dtype=complex, order="C")
    g.flat[:: g.shape[0] + 1] -= complex(z)
    try:
        lapack.invert(g)
    except SolverError as exc:
        raise SolverError(f"shifted solve failed at z={z}: {exc}") from exc
    if not np.all(np.isfinite(g)):
        raise SolverError(f"shifted solve produced non-finite entries at z={z}")
    return ResolventSlice(surviving=keep, entries=g)
