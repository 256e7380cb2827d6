import numpy as np
import pytest
from scipy.optimize import brentq

from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConfigError, EmptyError
from rmt_locallaw.linalg import eigh
from rmt_locallaw.semicircle import classical_locations, nsc_eval
from rmt_locallaw.stats import EmpiricalCDF, ks_distance, unfold


def gue_spectra(n, count, seed=50):
    p = wigner_profile(n)
    d = catalog_distribution("gaussian")
    return [eigh(sample_matrix(p, d, 2, seed + k), compute_vectors=False).eigenvalues for k in range(count)]


def gap_cdf(spectra):
    """Pooled bulk-gap CDF, built as the dbm-gaps and correlations experiments build it."""
    return EmpiricalCDF(np.concatenate([unfold(lam, 0.5) for lam in spectra]))


def spectrum_unfolding_to(points, n):
    """The n eigenvalues whose unfolded points N * n_sc(lambda) are `points`."""
    return np.array([brentq(lambda e: n * nsc_eval(e) - x, -2.0, 2.0, xtol=1e-14) for x in points])


def test_unfold_classical_locations_integer_sequence():
    # x_j = N * n_sc(gamma_j) = j, so every bulk gap is 1; |gamma_j| <= 1.5
    # holds for j/N in [n_sc(-1.5), n_sc(1.5)]
    n = 500
    lam = classical_locations(n)
    gaps = unfold(lam, 0.5)
    assert gaps.size == np.count_nonzero(np.abs(lam) <= 1.5) - 1
    np.testing.assert_allclose(gaps, 1.0, atol=1e-8)


def test_unfold_bulk_mask():
    # the edge eigenvalues -1.9 and 1.9 fall outside |lambda| <= 1.5, and the
    # gaps are taken over the bulk alone, not across the dropped points
    lam = np.array([-1.9, -1.0, 0.0, 1.0, 1.9])
    np.testing.assert_array_equal(unfold(lam, 0.5), np.diff(5 * nsc_eval(lam[1:4])))
    assert unfold(lam, 0.05).size == 4
    with pytest.raises(ConfigError):
        unfold(lam, 2.5)


def test_unfold_gue_bulk_mean_spacing():
    pools = [unfold(lam, 0.5) for lam in gue_spectra(1000, 5)]
    mean = float(np.concatenate(pools).mean())
    assert 0.95 < mean < 1.05


def test_gap_distribution_simple():
    # N = 4: unfolded points 0.5, 1.5, 3.5 in the bulk, and an edge eigenvalue at 2
    lam = np.append(spectrum_unfolding_to([0.5, 1.5, 3.5], 4), 2.0)
    cdf = gap_cdf([lam])
    np.testing.assert_allclose(cdf.values, [1.0, 2.0], atol=1e-9)


def test_gap_distribution_degenerate_points():
    cdf = gap_cdf([np.zeros(3)])
    assert np.all(cdf.values == 0.0)
    assert cdf(0.0) == 1.0
    assert cdf(-1e-9) == 0.0


def test_gap_distribution_empty():
    # one bulk eigenvalue, or none, leaves no gap to pool
    for lam in (np.array([0.0]), np.array([-1.9, 1.9]), np.array([])):
        assert unfold(lam, 0.5).size == 0
        with pytest.raises(EmptyError):
            gap_cdf([lam])


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
        cdf = gap_cdf(gue_spectra(500, 30, seed=seed))
        assert cdf.n > 10_000
        cdfs.append(cdf)
    assert ks_distance(cdfs[0], cdfs[1]) < 0.02
