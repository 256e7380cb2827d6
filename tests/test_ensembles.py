import math

import numpy as np
import pytest
from scipy.integrate import quad

from rmt_locallaw.ensembles import (
    EntryDistribution,
    VarianceProfile,
    band_profile,
    catalog_distribution,
    sample_matrix,
    validate_profile,
    wigner_profile,
)
from rmt_locallaw.errors import DegenerateProfileError, NotFoundError, SamplingError
from rmt_locallaw.seeding import generator


def test_wigner_profile_n2():
    p = wigner_profile(2)
    assert np.all(p.variances == 0.5)
    np.testing.assert_allclose(np.sort(p.sigma_spectrum), [0.0, 1.0], atol=1e-12)
    assert p.c_inf == p.c_sup == 1.0
    assert p.delta_plus == pytest.approx(1.0, abs=1e-12)
    assert p.delta_minus == pytest.approx(1.0, abs=1e-12)


def test_wigner_profile_n1():
    p = wigner_profile(1)
    assert p.variances[0, 0] == 1.0
    np.testing.assert_allclose(p.sigma_spectrum, [1.0])


def test_wigner_profile_column_sums_exact():
    p = wigner_profile(64)
    assert np.max(np.abs(p.variances.sum(axis=0) - 1.0)) < 1e-15


def test_wigner_profile_rejects_zero_dimension():
    with pytest.raises(ValueError):
        wigner_profile(0)


@pytest.mark.parametrize("n", [2, 7, 64, 99, 500])
def test_closed_form_profile_spectra_match_eigvalsh(n):
    from rmt_locallaw.runner import _SHAPES

    profiles = [wigner_profile(n)]
    profiles += [band_profile(n, w, shape) for shape in _SHAPES.values() for w in sorted({1, max(1, n // 8), n // 2})]
    for p in profiles:
        np.testing.assert_allclose(p.sigma_spectrum, np.linalg.eigvalsh(p.variances), rtol=0, atol=1e-12)


def test_profile_row_action_on_constant_vector():
    for p in (wigner_profile(16), band_profile(40, 5, lambda x: max(0.0, 1.0 - abs(x)))):
        ones = np.ones(p.n)
        np.testing.assert_allclose(p.variances @ ones, ones, atol=1e-9)


def test_band_profile_flat_shape_equals_wigner():
    p = band_profile(10, 10, lambda x: 1.0 if 0 <= x < 1 else 0.0)
    np.testing.assert_allclose(p.variances, wigner_profile(10).variances, atol=1e-15)


def test_band_profile_indicator_w1_nearly_diagonal():
    p = band_profile(8, 1, lambda x: 1.0 if 0 <= x < 1 else 0.0)
    assert np.max(np.abs(p.variances.sum(axis=0) - 1.0)) < 1e-12
    off = p.variances.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)


def test_band_profile_triangle_second_eigenvalue():
    p = band_profile(100, 10, lambda x: max(0.0, 1.0 - abs(x)))
    # oracle: eigensolve the variance grid directly
    spec = np.sort(np.linalg.eigvalsh(np.asarray(p.variances)))
    assert spec[-1] == pytest.approx(1.0, abs=1e-9)
    assert spec[-2] < 1.0
    assert abs(spec[-2] - p.sigma_spectrum[-2]) < 1e-9


def test_band_profile_degenerate_shape():
    with pytest.raises(DegenerateProfileError):
        band_profile(16, 2, lambda x: 0.0)


def test_validate_wigner_passes_a1():
    rep = validate_profile(wigner_profile(16))
    assert rep.violations == []
    assert rep.vv_holds and rep.edge_exponent_a == 1


def test_validate_band_edge_class_follows_min_variance():
    p = band_profile(256, 16, lambda x: max(0.0, 1.0 - abs(x)))
    rep = validate_profile(p)
    assert rep.edge_exponent_a == (1 if p.c_inf > 0 else 2)
    assert rep.edge_exponent_a == 2  # triangle shape vanishes away from the band


def test_validate_reports_column_sum_defect():
    var = np.full((8, 8), 1.0 / 8)
    var[:, 0] *= 0.9
    var[0, :] = var[:, 0]  # keep symmetry; column 0 now sums to < 1
    p = VarianceProfile.from_variances(var, validate=False)
    rep = validate_profile(p)
    assert rep.colsum_residual == pytest.approx(0.1, abs=1e-3)
    assert any("column sums" in v for v in rep.violations)


def test_sample_bernoulli_support_and_symmetry():
    p = wigner_profile(2)
    d = catalog_distribution("bernoulli")
    s = sample_matrix(p, d, 1, seed=123)
    vals = np.unique(np.abs(s.entries))
    np.testing.assert_allclose(vals[vals > 0], [1 / math.sqrt(2)], atol=1e-15)
    assert s.entries[0, 1] == s.entries[1, 0]


def test_sample_determinism_and_seed_sensitivity():
    p = wigner_profile(20)
    d = catalog_distribution("uniform")
    a = sample_matrix(p, d, 2, seed=9)
    b = sample_matrix(p, d, 2, seed=9)
    c = sample_matrix(p, d, 2, seed=10)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_sample_exact_hermitian_bitwise():
    p = wigner_profile(31)
    for beta in (1, 2):
        s = sample_matrix(p, catalog_distribution("gaussian"), beta, seed=5)
        assert np.array_equal(s.entries, s.entries.conj().T)
        assert np.all(np.imag(np.diag(s.entries)) == 0.0)


def test_sample_gaussian_beta2_entry_variance():
    n = 200
    p = wigner_profile(n)
    s = sample_matrix(p, catalog_distribution("gaussian"), 2, seed=77)
    iu = np.triu_indices(n, 1)
    standardized = np.abs(s.entries[iu]) ** 2 * n  # sigma^2 = 1/n
    # Var(|v|^2) = 1 for standardized complex Gaussian entries
    se = standardized.std(ddof=1) / math.sqrt(standardized.size)
    assert abs(standardized.mean() - 1.0) < 5 * se


def test_sample_pooled_variance_many_matrices():
    # diagonal entries need pooling across samples to reach 1e5 draws
    n = 500
    p = wigner_profile(n)
    d = catalog_distribution("gaussian")
    offdiag = None
    diags = []
    for k in range(200):
        s = sample_matrix(p, d, 2, seed=1000 + k)
        if offdiag is None:
            iu = np.triu_indices(n, 1)
            offdiag = np.abs(s.entries[iu]) ** 2 * n
        diags.append(np.real(np.diag(s.entries)) ** 2 * n)
    diag = np.concatenate(diags)
    for pool, name in ((offdiag, "offdiag"), (diag, "diag")):
        se = pool.std(ddof=1) / math.sqrt(pool.size)
        assert abs(pool.mean() - 1.0) < 5 * se, name


def test_sample_rejects_bad_profile():
    var = np.full((4, 4), 0.1)
    p = VarianceProfile.from_variances(var, validate=False)
    with pytest.raises(SamplingError):
        sample_matrix(p, catalog_distribution("gaussian"), 2, seed=0)
    with pytest.raises(SamplingError):
        sample_matrix(wigner_profile(4), catalog_distribution("gaussian"), 3, seed=0)


def test_catalog_moments():
    assert catalog_distribution("bernoulli").m4 == 1.0
    assert catalog_distribution("gaussian").m4 == 3.0
    # oracle: integrate x^4 over the standardized uniform law
    want, _ = quad(lambda x: x**4 / (2 * math.sqrt(3)), -math.sqrt(3), math.sqrt(3))
    assert catalog_distribution("uniform").m4 == pytest.approx(want, abs=1e-12)
    assert catalog_distribution("uniform").m4 == pytest.approx(1.8, abs=1e-12)


def test_catalog_unknown_name():
    with pytest.raises(NotFoundError):
        catalog_distribution("cauchy")


def test_catalog_laws_standardized_empirically():
    rng = generator(3)
    for name in ("bernoulli", "gaussian", "uniform"):
        d = catalog_distribution(name)
        x = d.sample(rng, 200_000)
        assert abs(x.mean()) <= 5 * x.std() / math.sqrt(x.size)
        m2 = x**2
        assert abs(m2.mean() - 1.0) <= 5 * max(m2.std(ddof=1), 1e-12) / math.sqrt(x.size)
        m4 = x**4
        assert abs(m4.mean() - d.m4) <= 5 * max(m4.std(ddof=1), 1e-12) / math.sqrt(x.size)


def test_distribution_moment_feasibility():
    for name in ("bernoulli", "gaussian", "uniform"):
        d = catalog_distribution(name)
        assert d.m4 - d.m3**2 - 1.0 >= 0.0


def test_distribution_json_roundtrip():
    d = catalog_distribution("bernoulli")
    e = EntryDistribution.from_json(d.to_json())
    assert e == d
