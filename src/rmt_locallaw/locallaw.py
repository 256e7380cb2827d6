"""Resolvent diagnostics and the per-sample maths of the spectral-law experiments.

Per-sample quantities: the self-consistent error terms A_i, Z_i, Upsilon_i,
the diagonal/off-diagonal deviations Lambda_d / Lambda_o, and the exact
self-consistent identity residual. `sample_map`, the one seeded per-sample job
(the runner's experiment bodies drive it), and what they make of samples: a
local-law scan row, counting, rigidity and edge statistics, averaged-Z moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import ROW_BLOCK, MatrixSample, VarianceProfile, sample_matrix
from .errors import ConfigError
from .linalg import eigenvalues, resolvent, surviving_indices
from .parallel import pmap
from .seeding import derive_seed
from .semicircle import classical_locations, in_domain, msc_eval, nsc_eval, theta_eval

__all__ = [
    "ResolventDiagnostics",
    "diagnostics",
    "verify_perturbation_identities",
    "sample_map",
    "check_scan_grid",
    "scan_row",
    "counting_gap",
    "rigidity_stat",
    "EdgeReport",
    "edge_check",
    "z_moment_bounds",
    "z_moment_rows",
    "x_control",
]


def x_control(n: int, m_param: float, z: complex, log_alpha: float) -> float:
    """Scan control size X(z) = (ln N)^(10+2a) (kappa+eta)^(1/4) / sqrt(M eta)."""
    kappa = abs(abs(z.real) - 2.0)
    eta = z.imag
    return float(math.log(n) ** (10 + 2 * log_alpha) * (kappa + eta) ** 0.25 / math.sqrt(m_param * eta))


@dataclass
class ResolventDiagnostics:
    """Per-(H, z) record of the self-consistent resolvent quantities."""

    m_n: complex
    lambda_d: float
    lambda_o: float
    z_terms: np.ndarray
    upsilon_terms: np.ndarray
    upsilon_max: float
    mainseeq_residual: float


def _row_passes(a: np.ndarray, g: np.ndarray, var: np.ndarray):
    """Four O(n^2) reductions of one resolvent g of a Hermitian a: sum_j
    var_ij g_jj, as two real matrix-vector products (var is real, so it is
    never cast to complex), then sum_j a_ij g_ji (column sums of
    conj(a) * g), sum_j var_ij g_ij g_ji and max_{i != j} |g_ij| (Lambda_o),
    taken over blocks of ROW_BLOCK rows so that every array is read in row
    order and the only temporary is one ROW_BLOCK x n scratch block."""
    n = a.shape[0]
    gd = np.diag(g)
    # one product over all of var: a short block goes through other dgemv
    # paths and can move a row's sum by an ulp, a 1-row block through a dot;
    # a flat profile's zero-stride view goes through numpy's own loop
    var_g = var @ gd.real + 1j * (var @ gd.imag)
    dots = np.zeros(n, dtype=complex)
    pw_row = np.empty(n, dtype=complex)
    off_max = []
    scratch = np.empty((min(n, ROW_BLOCK), n), dtype=complex)
    for j in range(0, n, ROW_BLOCK):
        rows = slice(j, j + ROW_BLOCK)
        blk = scratch[: min(ROW_BLOCK, n - j)]
        np.conjugate(a[rows], out=blk)
        blk *= g[rows]
        dots += blk.sum(axis=0)
        np.multiply(g[rows], g[:, rows].T, out=blk)
        pw_row[rows] = np.einsum("ij,ij->i", var[rows], blk)
        off = np.abs(g[rows], out=blk.real)
        np.fill_diagonal(off[:, rows], 0.0)
        off_max.append(off.max())
    return dots, var_g, pw_row, float(np.max(off_max))


def diagnostics(
    h: MatrixSample,
    p: VarianceProfile,
    z: complex,
    minor_route: bool = False,
) -> ResolventDiagnostics:
    """All self-consistent quantities of one sample at one spectral point.

    The default route extracts every minor quantity from a single full
    resolvent (one LU solve) in O(n^2): the rank-one update identities give
    A_i and E_i, and row i of (H - z)G = I gives the Schur quadratic form
    a^i* G^(i) a^i = -sum_{j != i} h_ij G_ji / G_ii. minor_route=True instead
    solves each of the n minors separately, which is O(n) times slower and
    used to cross-check. The identity residual
    max_i |G_ii - 1/(-z - sum_j s2_ij G_jj + Y_i)| is exact algebra; on the
    default route it measures how far diag((H - z)G) is from 1.
    """
    a = h.entries if isinstance(h, MatrixSample) else np.asarray(h)
    n = a.shape[0]
    if p.n != n:
        raise ConfigError(f"profile dimension {p.n} != matrix dimension {n}")
    z = complex(z)
    var = p.variances
    g_full = resolvent(a, z).entries
    g = np.diag(g_full).copy()
    hdiag = np.real(np.diag(a))
    m_n = complex(np.mean(g))

    pv_diag = np.diag(var).copy()
    dots, var_g, pw_row, lambda_o = _row_passes(a, g_full, var)
    cross = (pw_row - pv_diag * g * g) / g
    a_terms = pv_diag * g + cross

    if minor_route:
        z_self = np.empty(n, dtype=complex)
        eiz = np.empty(n, dtype=complex)
        for i in range(n):
            keep = surviving_indices(n, (i,))
            gi = resolvent(a, z, (i,)).entries
            col = a[keep, i]
            z_self[i] = col.conj() @ gi @ col
            eiz[i] = var[i, keep] @ np.diag(gi)
    else:
        z_self = (hdiag * g - dots) / g
        eiz = (var_g - pv_diag * g) - cross

    z_terms = z_self - eiz
    upsilon = a_terms + hdiag - z_terms
    denom = -z - var_g + upsilon
    residual = float(np.max(np.abs(g - 1.0 / denom)))

    m_sc = msc_eval(z)
    lambda_d = float(np.max(np.abs(g - m_sc)))
    return ResolventDiagnostics(
        m_n=m_n,
        lambda_d=lambda_d,
        lambda_o=lambda_o,
        z_terms=z_terms,
        upsilon_terms=upsilon,
        upsilon_max=float(np.max(np.abs(upsilon))),
        mainseeq_residual=residual,
    )


def verify_perturbation_identities(h, z: complex, i: int, j: int, k: int) -> float:
    """Max residual of the four self-consistent perturbation identities.

    Evaluated for removal sets T = {} and T = {k} (identity (4) picks another
    spare index when k is already removed; skipped when none is left).
    """
    a = h.entries if isinstance(h, MatrixSample) else np.asarray(h)
    n = a.shape[0]
    if len({i, j, k}) != 3:
        raise IndexError("indices i, j, k must be distinct")
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for dimension {n}")
    worst = 0.0
    for t in ((), (k,)):
        g_t = resolvent(a, z, t)
        g_it = resolvent(a, z, t + (i,))
        g_jt = resolvent(a, z, t + (j,))
        g_ijt_set = tuple(sorted(t + (i, j)))

        def _k(ii, jj, removal):
            sl = resolvent(a, z, removal)
            ai = a[sl.surviving, ii]
            aj = a[sl.surviving, jj]
            zval = ai.conj() @ sl.entries @ aj
            return a[ii, jj] - z * (1.0 if ii == jj else 0.0) - zval

        # (1) G^T_ii = 1 / K^(iT)_ii
        worst = max(worst, abs(g_t.entry(i, i) - 1.0 / _k(i, i, tuple(sorted(t + (i,))))))
        # (2) G^T_ij = -G^T_jj G^(jT)_ii K^(ijT)_ij = -G^T_ii G^(iT)_jj K^(ijT)_ij
        kij = _k(i, j, g_ijt_set)
        worst = max(worst, abs(g_t.entry(i, j) + g_t.entry(j, j) * g_jt.entry(i, i) * kij))
        worst = max(worst, abs(g_t.entry(i, j) + g_t.entry(i, i) * g_it.entry(j, j) * kij))
        # (3) G^T_ii - G^(jT)_ii = G^T_ij G^T_ji / G^T_jj
        worst = max(
            worst,
            abs(g_t.entry(i, i) - g_jt.entry(i, i) - g_t.entry(i, j) * g_t.entry(j, i) / g_t.entry(j, j)),
        )
        # (4) G^T_ij - G^(kT)_ij = G^T_ik G^T_kj / G^T_kk for a spare index
        spare = next((s for s in range(n) if s not in t and s not in (i, j)), None)
        if spare is not None:
            g_st = resolvent(a, z, t + (spare,))
            worst = max(
                worst,
                abs(
                    g_t.entry(i, j)
                    - g_st.entry(i, j)
                    - g_t.entry(i, spare) * g_t.entry(spare, j) / g_t.entry(spare, spare)
                ),
            )
    return float(worst)


def sample_map(p, d, beta, seed, parts, n_samples, reduce, workers) -> list:
    """One pmap job per sample, results in sample order: job si draws its
    sample H once, from derive_seed(seed, *parts, si), and returns
    reduce(sample_seed, H), which may take diagnostics and eigenvalues of that
    same H. A job holds H and what reduce makes of it, nothing of another
    sample."""

    def _job(si):
        sample_seed = derive_seed(seed, *parts, si)
        return reduce(sample_seed, sample_matrix(p, d, beta, sample_seed))

    return pmap(_job, list(range(n_samples)), workers)


SCAN_COLUMNS = [
    "n", "E", "eta", "sample_seed",
    "m_err_norm", "lambda_d_norm", "lambda_o_norm",
    "upsilon_max", "mainseeq_residual",
]


def check_scan_grid(p: VarianceProfile, z_grid) -> None:
    """A point of the complex grid that fails the D domain condition for
    profile p is a ConfigError."""
    for z in z_grid:
        if not in_domain(z, p.n, p.m_param, p.delta_plus, p.edge_exponent_a, "D"):
            raise ConfigError(f"grid point z={z} fails the D domain condition")


def scan_row(p: VarianceProfile, z: complex, sample_seed: int, diag: ResolventDiagnostics) -> dict:
    """One scan row: the diagnostics of the sample drawn from sample_seed at
    z. Besides the raw |m_N - m_sc|, Lambda_d and Lambda_o, their
    scaling-law normalizations M*eta*(kappa+eta)^A * |m_N - m_sc|,
    sqrt(M*eta)*(kappa+eta)^(A/2-1/4) * Lambda_d and
    sqrt(M*eta)*(kappa+eta)^(-1/4) * Lambda_o."""
    a_exp = p.edge_exponent_a
    ke = abs(abs(z.real) - 2.0) + z.imag
    meta = p.m_param * z.imag
    m_err = abs(diag.m_n - msc_eval(z))
    return {
        "n": p.n,
        "E": z.real,
        "eta": z.imag,
        "sample_seed": sample_seed,
        "m_err": m_err,
        "lambda_d": diag.lambda_d,
        "lambda_o": diag.lambda_o,
        "m_err_norm": meta * ke**a_exp * m_err,
        "lambda_d_norm": math.sqrt(meta) * ke ** (a_exp / 2 - 0.25) * diag.lambda_d,
        "lambda_o_norm": math.sqrt(meta) * ke**-0.25 * diag.lambda_o,
        "meta_m_err": meta * m_err,
        "sqrt_meta_lambda_d_over_theta": math.sqrt(meta) * diag.lambda_d / theta_eval(z, p.delta_plus),
        "sqrt_meta_lambda_o": math.sqrt(meta) * diag.lambda_o,
        "upsilon_max": diag.upsilon_max,
        "mainseeq_residual": diag.mainseeq_residual,
    }


def counting_gap(spectrum, a_exponent: int) -> float:
    """sup over E in [-3, 3] of |fn(E) - n_sc(E)| * kappa_E^A.

    fn is the normalized empirical counting function, evaluated exactly on
    both sides of every eigenvalue jump plus a uniform 10n grid.
    """
    lam = eigenvalues(spectrum)
    n = lam.size
    grid = np.linspace(-3.0, 3.0, 10 * n)
    jumps = lam[(lam >= -3.0) & (lam <= 3.0)]
    best = 0.0
    for e_vals, side in ((grid, "right"), (jumps, "right"), (jumps, "left")):
        if e_vals.size == 0:
            continue
        fn = np.searchsorted(lam, e_vals, side=side) / n
        kappa = np.abs(np.abs(e_vals) - 2.0)
        stat = np.abs(fn - nsc_eval(e_vals)) * kappa**a_exponent
        best = max(best, float(stat.max()))
    return best


def rigidity_stat(spectrum) -> float:
    """Sum of squares sum_j (lambda_j - gamma_j)^2 against classical locations."""
    lam = eigenvalues(spectrum)
    dev = lam - classical_locations(lam.size)
    return float(np.sum(dev * dev))


@dataclass
class EdgeReport:
    passed: bool
    lower_margin: float
    upper_margin: float
    threshold: float


def edge_check(spectrum, epsilon: float) -> EdgeReport:
    """Containment of the spectrum in [-2 - n^(-1/6+eps), 2 + n^(-1/6+eps)]."""
    lam = eigenvalues(spectrum)
    n = lam.size
    delta = float(n ** (-1.0 / 6.0 + epsilon))
    lower = float(lam[0] + 2.0 + delta)
    upper = float(2.0 + delta - lam[-1])
    return EdgeReport(
        passed=bool(lower >= 0 and upper >= 0), lower_margin=lower, upper_margin=upper, threshold=2.0 + delta
    )


_BOOTSTRAP = 200  # resamples behind each stderr


def z_moment_bounds(p: VarianceProfile, z: complex, p_max: int, log_alpha: float) -> dict:
    """p -> the bound ((ln N)^(3+2a) X(z)^2)^p on the p-th moment of the
    averaged fluctuation N^-1 sum_i Z_i at z, X the scan control size, for
    even p from 2 to p_max, ascending.

    Requires even p_max in [2, 8], z in the D* domain and a bound that is
    finite and nonzero for every p; anything else is a ConfigError.
    """
    if p_max % 2 != 0 or p_max > 8 or p_max < 2:
        raise ConfigError(f"p_max must be even and in [2, 8], got {p_max}")
    if not in_domain(z, p.n, max(p.m_param, 1.0), p.delta_plus, p.edge_exponent_a, "D_star"):
        raise ConfigError(f"z={z} fails the D_star domain condition")
    try:
        bound_base = math.log(p.n) ** (3 + 2 * log_alpha) * x_control(p.n, p.m_param, z, log_alpha) ** 2
        bounds = {q: bound_base**q for q in range(2, p_max + 1, 2)}
    except OverflowError:
        bounds = {}
    if not bounds or not all(0.0 < b < math.inf for b in bounds.values()):
        raise ConfigError(f"log_alpha = {log_alpha!r} makes the bound overflow or vanish at n = {p.n}")
    return bounds


def z_moment_rows(sums, bounds: dict, rng: np.random.Generator) -> list:
    """Moment rows {p, moment, stderr, bound, ratio} of the samples' averaged
    fluctuations `sums`, one per entry of z_moment_bounds, in its order; the
    stderr is a bootstrap's over _BOOTSTRAP resamples drawn from rng, and
    needs two or more sums."""
    sums = np.array(sums)
    rows = []
    for q, bound in bounds.items():
        vals = np.abs(sums) ** q
        est = float(np.mean(vals))
        idx = rng.integers(0, sums.size, size=(_BOOTSTRAP, sums.size))
        stderr = float(np.std(np.mean(vals[idx], axis=1), ddof=1))
        rows.append({"p": q, "moment": est, "stderr": stderr, "bound": bound, "ratio": est / bound})
    return rows
