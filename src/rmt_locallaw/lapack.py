"""The LAPACK routines the package's linear algebra needs, called by ctypes from
the OpenBLAS numpy ships.

numpy exposes neither an inverse from the LU factors (it inverts by solving
against the identity) nor the two-stage Hermitian reduction. Its OpenBLAS
exports both, through the 64-bit-integer interface whose symbols carry the
scipy_ prefix and the 64_ suffix. Symbols are bound on first use. A ctypes
call releases the GIL, so jobs on `pmap`'s threads stay parallel.

Both entry points take a C-ordered array and overwrite it. LAPACK reads a
C-ordered buffer as the transpose of the matrix it holds.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ConvergenceError, RMTError, SolverError
from .parallel import numpy_openblas

__all__ = ["ROUTINES", "invert", "eigvalsh"]

# Which LAPACK routine computes what; recorded in each run's manifest.
ROUTINES = {
    "resolvent": "zgetrf+zgetri",
    "eigenvalues_complex": "zheevd_2stage",
    "eigenvalues_real": "dsyevd",
    "eigenvectors": "numpy.linalg.eigh (zheevd/dsyevd)",
}

_INT = ctypes.POINTER(ctypes.c_int64)
_BUF = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # gfortran's hidden length of each character argument, passed last

_SIGNATURES = {
    # (M, N, A, LDA, IPIV, INFO)
    "scipy_zgetrf_64_": (_INT, _INT, _BUF, _INT, _BUF, _INT),
    # (N, A, LDA, IPIV, WORK, LWORK, INFO)
    "scipy_zgetri_64_": (_INT, _BUF, _INT, _BUF, _BUF, _INT, _INT),
    # (JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, RWORK, LRWORK, IWORK, LIWORK, INFO)
    "scipy_zheevd_2stage_64_": (_CHAR, _CHAR, _INT, _BUF, _INT, _BUF, _BUF, _INT, _BUF, _INT, _BUF, _INT, _INT,
                                _LEN, _LEN),
    # (JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO)
    "scipy_dsyevd_64_": (_CHAR, _CHAR, _INT, _BUF, _INT, _BUF, _BUF, _INT, _BUF, _INT, _INT, _LEN, _LEN),
}

_bound: dict = {}


def _routine(symbol: str):
    fn = _bound.get(symbol)
    if fn is None:
        try:
            fn = getattr(numpy_openblas().handle, symbol)
        except AttributeError:
            raise RMTError(f"numpy's OpenBLAS does not export {symbol} (numpy >= 2.0 wheels do)") from None
        fn.argtypes = _SIGNATURES[symbol]
        fn.restype = None
        _bound[symbol] = fn
    return fn


def _ints(*values):
    return [ctypes.c_int64(v) for v in values]


def invert(a: np.ndarray) -> None:
    """Overwrite the square C-ordered complex128 array a with its inverse.

    zgetrf factors the buffer and zgetri inverts it from the factors. LAPACK
    sees a^T, and the inverse of a^T read C-ordered is the inverse of a.
    SolverError when a is singular.
    """
    n = a.shape[0]
    if a.dtype != np.complex128 or not a.flags.c_contiguous or a.shape != (n, n):
        raise ValueError("invert needs a square C-ordered complex128 array")
    if n == 0:
        return
    nn, info = _ints(n, 0)
    ipiv = np.empty(n, dtype=np.int64)
    _routine("scipy_zgetrf_64_")(nn, nn, a.ctypes.data, nn, ipiv.ctypes.data, info)
    if info.value != 0:
        raise SolverError(f"zgetrf returned info={info.value}: the matrix is singular")

    def getri(work, lwork):
        fn = _routine("scipy_zgetri_64_")
        fn(nn, a.ctypes.data, nn, ipiv.ctypes.data, work.ctypes.data, ctypes.c_int64(lwork), info)
        if info.value != 0:
            raise SolverError(f"zgetri returned info={info.value}: the matrix is singular")

    query = np.empty(1, dtype=np.complex128)
    getri(query, -1)  # a workspace query: returns the size in WORK(1)
    lwork = max(1, int(query[0].real))
    getri(np.empty(lwork, dtype=np.complex128), lwork)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a bit-exactly Hermitian C-ordered array,
    which is overwritten.

    Complex input goes to the two-stage reduction zheevd_2stage, real input
    to the one-stage dsyevd, both with JOBZ='N' and UPLO='L'. For exactly
    Hermitian input the buffer read as a Fortran array is a's conjugate,
    which has a's eigenvalues; for real input it holds the same bytes as
    the Fortran copy numpy.linalg.eigvalsh passes to the same dsyevd call.
    ConvergenceError when the tridiagonal solver fails.
    """
    n = a.shape[0]
    if a.dtype not in (np.complex128, np.float64) or not a.flags.c_contiguous or a.shape != (n, n):
        raise ValueError("eigvalsh needs a square C-ordered complex128 or float64 array")
    w = np.empty(n, dtype=np.float64)
    if n == 0:
        return w
    nn, info = _ints(n, 0)
    # both routines take (JOBZ, UPLO, N, A, LDA, W), then each workspace array
    # followed by its length, then INFO
    if a.dtype == np.complex128:
        name, kinds = "zheevd_2stage", (np.complex128, np.float64, np.int64)  # WORK, RWORK, IWORK
    else:
        name, kinds = "dsyevd", (np.float64, np.int64)  # WORK, IWORK
    fn = _routine(f"scipy_{name}_64_")

    def call(sizes):
        arrays = [np.empty(max(1, size), dtype=kind) for size, kind in zip(sizes, kinds)]
        work = [arg for arr, size in zip(arrays, sizes) for arg in (arr.ctypes.data, ctypes.c_int64(size))]
        fn(b"N", b"L", nn, a.ctypes.data, nn, w.ctypes.data, *work, info, 1, 1)
        if info.value != 0:
            raise ConvergenceError(f"{name} returned info={info.value}: the eigenvalue iteration did not converge")
        return arrays

    # a query (every length -1) returns each array's size in its first entry
    queries = call([-1] * len(kinds))
    call([int(q[0].real) for q in queries])
    return w
