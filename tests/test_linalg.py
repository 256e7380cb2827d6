import dataclasses

import numpy as np
import pytest

from _peak import traced_peak
from rmt_locallaw import lapack
from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import DomainError, SymmetryError
from rmt_locallaw.linalg import eigh, resolvent


def random_hermitian(rng, n, beta=2):
    if beta == 1:
        x = rng.standard_normal((n, n))
        return (x + x.T) / np.sqrt(2 * n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / np.sqrt(4 * n)


def char_poly_coefficients(h):
    # Faddeev-LeVerrier via Newton identities on power traces; no eigensolver
    n = h.shape[0]
    traces = []
    power = np.eye(n, dtype=complex)
    for _ in range(n):
        power = power @ h
        traces.append(complex(np.trace(power)))
    coeffs = [1.0 + 0j]
    for k in range(1, n + 1):
        s = traces[k - 1] + sum(coeffs[i] * traces[k - 1 - i] for i in range(1, k))
        coeffs.append(-s / k)
    return np.real(np.array(coeffs))  # Hermitian input: real characteristic polynomial


def roots_by_bisection(coeffs, lo, hi, grid=20001, tol=1e-12):
    xs = np.linspace(lo, hi, grid)
    vals = np.polyval(coeffs, xs)
    roots = []
    for i in range(grid - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = np.polyval(coeffs, m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < tol:
                    break
            roots.append(0.5 * (a + b))
    return np.array(roots)


def test_eigh_two_by_two():
    s = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_diagonal_permutation():
    s = eigh(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(s.eigenvalues, [1.0, 2.0, 3.0], atol=0)
    np.testing.assert_allclose(np.abs(s.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigh_against_characteristic_polynomial_oracle():
    rng = np.random.default_rng(8)
    for beta in (1, 2):
        h = random_hermitian(rng, 6, beta)
        w = eigh(h).eigenvalues
        coeffs = char_poly_coefficients(np.asarray(h, dtype=complex))
        bound = np.sqrt(np.sum(np.abs(h) ** 2)) + 1.0
        roots = roots_by_bisection(coeffs, -bound, bound)
        assert roots.size == 6
        np.testing.assert_allclose(np.sort(w), np.sort(roots), atol=1e-8)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(SymmetryError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_trace_and_frobenius():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 24))
        h = random_hermitian(rng, n)
        w = eigh(h, compute_vectors=False).eigenvalues
        assert abs(w.sum() - np.trace(h).real) < 1e-9 * n
        assert abs((w**2).sum() - np.sum(np.abs(h) ** 2)) < 1e-8 * n


def test_eigh_orthonormality_and_residual():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 24)
    s = eigh(h)
    defect = np.max(np.abs(s.eigenvectors.conj().T @ s.eigenvectors - np.eye(24)))
    assert defect < 1e-9
    residual = np.max(np.linalg.norm(h @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0))
    assert residual < 1e-9 * max(1.0, np.max(np.abs(s.eigenvalues)))


def test_eigh_accepts_matrix_sample():
    s = sample_matrix(wigner_profile(12), catalog_distribution("gaussian"), 2, seed=4)
    w = eigh(s, compute_vectors=False).eigenvalues
    assert w.shape == (12,) and np.all(np.diff(w) >= 0)


@pytest.mark.parametrize("beta", [1, 2])
def test_eigh_of_an_array_copies_once_and_leaves_it_untouched(beta):
    h = random_hermitian(np.random.default_rng(9), 70, beta)
    kept = h.copy()
    want = lapack.eigvalsh(np.array(0.5 * (h + h.conj().T), order="C"))
    assert eigh(h, compute_vectors=False).eigenvalues.tobytes() == want.tobytes()
    assert eigh(h, compute_vectors=False, overwrite=True).eigenvalues.tobytes() == want.tobytes()
    assert h.tobytes() == kept.tobytes()


def test_eigh_of_an_array_holds_its_hermitian_part_and_row_blocks():
    # the copy LAPACK overwrites is the one n x n array; checking and
    # symmetrizing the whole array at once held a second one beside it
    n = 600
    h = random_hermitian(np.random.default_rng(5), n, beta=1)
    eigh(h[:64, :64], compute_vectors=False)
    assert traced_peak(lambda: eigh(h, compute_vectors=False)) < 8 * n * n + 4 * 8 * 64 * n


@pytest.mark.parametrize("beta", [1, 2])
def test_eigh_overwrites_only_a_writable_sample_it_is_given(beta):
    s = sample_matrix(wigner_profile(70), catalog_distribution("bernoulli"), beta, seed=4)
    kept = s.entries.copy()
    want = eigh(s, compute_vectors=False).eigenvalues
    # a sampled matrix is read-only: never written, even when given up
    assert eigh(s, compute_vectors=False, overwrite=True).eigenvalues.tobytes() == want.tobytes()
    assert s.entries.tobytes() == kept.tobytes()
    buf = dataclasses.replace(s, entries=kept.copy())
    assert eigh(buf, compute_vectors=False).eigenvalues.tobytes() == want.tobytes()
    assert eigh(buf).eigenvalues.tobytes() == eigh(s).eigenvalues.tobytes()
    assert buf.entries.tobytes() == kept.tobytes()  # a writable sample kept by default
    assert eigh(buf, compute_vectors=False, overwrite=True).eigenvalues.tobytes() == want.tobytes()
    assert buf.entries.tobytes() != kept.tobytes()  # LAPACK worked in the buffer itself


def test_resolvent_zero_matrix():
    g = resolvent(np.zeros((4, 4)), 1j)
    np.testing.assert_allclose(np.asarray(g.entries), 1j * np.eye(4), atol=1e-15)


def test_resolvent_scalar():
    g = resolvent(np.array([[0.7]]), 0.3 + 0.2j)
    assert g.entries[0, 0] == pytest.approx(1.0 / (0.7 - (0.3 + 0.2j)), abs=1e-15)


def test_resolvent_matches_spectral_oracle():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, 8)
    z = 0.4 + 0.3j
    g = resolvent(h, z).entries
    s = eigh(h)
    oracle = (s.eigenvectors / (s.eigenvalues - z)) @ s.eigenvectors.conj().T
    assert np.max(np.abs(g - oracle)) < 1e-8


def test_resolvent_lu_vs_spectral_many_instances():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        h = random_hermitian(rng, n, beta=int(rng.integers(1, 3)))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        g = resolvent(h, z).entries
        s = eigh(h)
        oracle = (s.eigenvectors / (s.eigenvalues - z)) @ s.eigenvectors.conj().T
        worst = max(worst, float(np.max(np.abs(g - oracle))))
    assert worst < 1e-8


def test_resolvent_herglotz_and_ward():
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 20)
    eta = 0.37
    g = resolvent(h, 0.1 + 1j * eta).entries
    assert np.all(np.diag(g).imag > 0)
    ward_lhs = np.imag(np.trace(g)) / eta
    ward_rhs = np.sum(np.abs(g) ** 2)
    assert abs(ward_lhs - ward_rhs) / ward_rhs < 1e-8


def test_resolvent_symmetric_for_beta1():
    rng = np.random.default_rng(15)
    h = random_hermitian(rng, 10, beta=1)
    g = resolvent(h, 0.2 + 0.5j).entries
    assert np.max(np.abs(g - g.T)) < 1e-12


def test_resolvent_minor_indexing():
    rng = np.random.default_rng(16)
    h = random_hermitian(rng, 6)
    z = 0.1 + 0.9j
    g = resolvent(h, z, t=(1, 4))
    keep = [0, 2, 3, 5]
    direct = resolvent(h[np.ix_(keep, keep)], z).entries
    assert g.entry(0, 0) == pytest.approx(direct[0, 0], abs=1e-14)
    assert g.entry(5, 2) == pytest.approx(direct[3, 1], abs=1e-14)
    with pytest.raises(IndexError):
        g.entry(1, 0)
    with pytest.raises(IndexError):
        resolvent(np.eye(3), 1j, (5,))
    shifted = h[np.ix_(keep, keep)] - z * np.eye(4)
    assert np.max(np.abs(shifted @ g.entries - np.eye(4))) < 1e-8


def test_resolvent_requires_upper_half_plane():
    with pytest.raises(DomainError):
        resolvent(np.eye(3), 1.0 - 0.1j)
