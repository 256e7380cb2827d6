import numpy as np
import pytest

from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConfigError, EmptyError
from rmt_locallaw.linalg import eigh
from rmt_locallaw.semicircle import classical_locations
from rmt_locallaw.stats import EmpiricalCDF, UnfoldedSample, ks_distance, unfold


def gue_spectra(n, count, seed=50):
    p = wigner_profile(n)
    d = catalog_distribution("gaussian")
    return [eigh(sample_matrix(p, d, 2, seed + k), compute_vectors=False).eigenvalues for k in range(count)]


def gap_cdf(samples):
    """Pooled bulk-gap CDF, built as the dbm-gaps and correlations experiments build it."""
    return EmpiricalCDF(np.concatenate([s.bulk_gaps() for s in samples]))


def test_unfold_classical_locations_integer_sequence():
    n = 500
    u = unfold(classical_locations(n), 0.5)
    np.testing.assert_allclose(u.points, np.arange(1, n + 1), atol=1e-8)
    assert np.all(np.diff(u.points) >= 0)


def test_unfold_bulk_mask():
    lam = np.array([-1.9, -1.0, 0.0, 1.0, 1.9])
    u = unfold(lam, 0.5)
    np.testing.assert_array_equal(u.bulk_mask, [False, True, True, True, False])
    with pytest.raises(ConfigError):
        unfold(lam, 2.5)


def test_unfold_gue_bulk_mean_spacing():
    pools = [unfold(lam, 0.5).bulk_gaps() for lam in gue_spectra(1000, 5)]
    mean = float(np.concatenate(pools).mean())
    assert 0.95 < mean < 1.05


def test_gap_distribution_simple():
    sample = UnfoldedSample(points=np.array([1.0, 2.0, 4.0]), bulk_mask=np.array([True, True, True]))
    cdf = gap_cdf([sample])
    np.testing.assert_array_equal(cdf.values, [1.0, 2.0])


def test_gap_distribution_degenerate_points():
    s = UnfoldedSample(points=np.array([2.0, 2.0, 2.0]), bulk_mask=np.array([True] * 3))
    cdf = gap_cdf([s])
    assert np.all(cdf.values == 0.0)
    assert cdf(0.0) == 1.0
    assert cdf(-1e-9) == 0.0


def test_gap_distribution_empty():
    s = UnfoldedSample(points=np.array([1.0]), bulk_mask=np.array([False]))
    with pytest.raises(EmptyError):
        gap_cdf([s])


def test_ks_distance_exact_cases():
    assert ks_distance(EmpiricalCDF([1, 2, 3]), EmpiricalCDF([1, 2, 3])) == 0.0
    assert ks_distance(EmpiricalCDF([0.0]), EmpiricalCDF([1.0])) == 1.0
    assert ks_distance(EmpiricalCDF([0.0, 1.0]), EmpiricalCDF([0.5])) == 0.5


def test_ks_distance_metric_properties():
    rng = np.random.default_rng(51)
    for _ in range(20):
        a = EmpiricalCDF(rng.standard_normal(40))
        b = EmpiricalCDF(rng.standard_normal(60) + rng.uniform(-1, 1))
        c = EmpiricalCDF(rng.standard_normal(30) * 2)
        dab, dba = ks_distance(a, b), ks_distance(b, a)
        assert dab == dba
        assert 0.0 <= dab <= 1.0
        assert ks_distance(a, a) == 0.0
        assert ks_distance(a, c) <= dab + ks_distance(b, c) + 1e-15


def test_empirical_cdf_rejects_empty():
    with pytest.raises(EmptyError):
        EmpiricalCDF([])


def test_gap_cdf_gue_self_consistency():
    # two independent GUE pools must produce nearly identical gap CDFs
    cdfs = []
    for seed in (60_000, 61_000):
        samples = [unfold(lam, 0.5) for lam in gue_spectra(500, 30, seed=seed)]
        cdf = gap_cdf(samples)
        assert cdf.n > 10_000
        cdfs.append(cdf)
    assert ks_distance(cdfs[0], cdfs[1]) < 0.02
