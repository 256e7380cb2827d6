import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from rmt_locallaw import locallaw
from rmt_locallaw.ensembles import VarianceProfile, band_profile, catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConfigError
from rmt_locallaw.linalg import resolvent
from rmt_locallaw.locallaw import (
    counting_gap,
    diagnostics,
    edge_check,
    local_law_scan,
    rigidity_stat,
    verify_perturbation_identities,
    z_average_moments,
)
from rmt_locallaw.parallel import blas_threads
from rmt_locallaw.semicircle import classical_locations, msc_eval


def random_hermitian(rng, n, beta=2):
    if beta == 1:
        x = rng.standard_normal((n, n))
        return (x + x.T) / np.sqrt(2 * n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / np.sqrt(4 * n)


def zero_profile(n):
    return VarianceProfile.from_variances(np.zeros((n, n)), profile_id="zero", validate=False)


def identity_profile(n):
    return VarianceProfile.from_variances(np.eye(n), profile_id="identity")


def test_diagnostics_zero_profile_zero_matrix():
    n = 6
    d = diagnostics(np.zeros((n, n)), zero_profile(n), 1j)
    assert d.m_n == pytest.approx(1j, abs=1e-14)
    np.testing.assert_allclose(d.z_terms, 0.0, atol=1e-14)
    np.testing.assert_allclose(d.upsilon_terms, 0.0, atol=1e-14)
    assert d.mainseeq_residual < 1e-14


def test_diagnostics_zero_matrix_wigner_profile():
    n = 10
    d = diagnostics(np.zeros((n, n)), wigner_profile(n), 1j)
    want = abs(1j - msc_eval(1j))
    assert d.lambda_d == pytest.approx(want, abs=1e-12)
    assert d.lambda_d == pytest.approx(0.3819660, abs=1e-6)
    assert d.lambda_o == 0.0


def test_diagnostics_mainseeq_residual_random():
    p = wigner_profile(50)
    h = sample_matrix(p, catalog_distribution("bernoulli"), 2, seed=21)
    d = diagnostics(h, p, 1.0 + 0.5j)
    assert d.mainseeq_residual < 1e-8


def test_diagnostics_mainseeq_residual_sees_a_perturbed_resolvent(monkeypatch):
    # the residual must check diag((H - z)G) against 1, not hold for any G
    p = wigner_profile(50)
    h = sample_matrix(p, catalog_distribution("bernoulli"), 2, seed=21)
    exact = locallaw.resolvent

    def perturbed(a, z, t=()):
        sl = exact(a, z, t)
        g = sl.entries.copy()
        g[0, 1] += 1e-6
        return dataclasses.replace(sl, entries=g)

    monkeypatch.setattr(locallaw, "resolvent", perturbed)
    assert diagnostics(h, p, 1.0 + 0.5j).mainseeq_residual > 1e-9


def test_diagnostics_fast_route_matches_minor_route():
    rng = np.random.default_rng(22)
    for beta in (1, 2):
        n = 24
        p = wigner_profile(n)
        h = sample_matrix(p, catalog_distribution("uniform"), beta, seed=int(rng.integers(1 << 30)))
        for z in (0.3 + 0.2j, -1.5 + 1.0j):
            fast = diagnostics(h, p, z)
            slow = diagnostics(h, p, z, minor_route=True)
            assert np.max(np.abs(fast.z_terms - slow.z_terms)) < 1e-10
            assert np.max(np.abs(fast.upsilon_terms - slow.upsilon_terms)) < 1e-10
            assert abs(fast.upsilon_max - slow.upsilon_max) < 1e-10
            assert slow.mainseeq_residual < 1e-10


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 129, 130, 500, 1000, 2000])
def test_row_blocked_var_times_diag_g_equals_the_whole_product(n):
    # the real-split product over the whole of var: 64-row blocks of it (with
    # or without a 1-row guard) differ from it by an ulp at n = 65 and 129
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gd = np.diag(g)
    with blas_threads(1):
        for p in (wigner_profile(n), band_profile(n, max(1, n // 8), lambda x: max(0.0, 1.0 - abs(x)))):
            _, var_g, _, _ = locallaw._row_passes(g, g, p.variances)
            assert var_g.tobytes() == (p.variances @ gd.real + 1j * (p.variances @ gd.imag)).tobytes()


def test_diagnostics_holds_one_resolvent_and_one_row_block():
    # G makes 16 n^2 bytes; casting var to complex for var @ g made it about 2 x
    n = 512
    p = wigner_profile(n)
    h = sample_matrix(p, catalog_distribution("bernoulli"), 2, seed=0)
    tracemalloc.start()
    try:
        diagnostics(h, p, complex(0.3, n**-0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * n * n


def test_diagnostics_dimension_mismatch():
    with pytest.raises(ConfigError):
        diagnostics(np.zeros((4, 4)), wigner_profile(5), 1j)


def test_perturbation_identities_hand_schur_oracle():
    # n = 3: check G_00 = 1/(h_00 - z - a.(H^(0)-z)^-1 a) with the 2x2
    # inverse written out by hand
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 3)
    z = 0.25 + 0.6j
    a, b, c, dd = h[1, 1] - z, h[1, 2], h[2, 1], h[2, 2] - z
    det = a * dd - b * c
    inv = np.array([[dd, -b], [-c, a]]) / det
    col = h[1:, 0]
    want = 1.0 / (h[0, 0] - z - col.conj() @ inv @ col)
    got = resolvent(h, z).entry(0, 0)
    assert abs(got - want) < 1e-12


def test_perturbation_identities_diagonal_matrix():
    h = np.diag([0.3, -0.4, 0.9, 0.1])
    assert verify_perturbation_identities(h, 0.5j, 0, 1, 2) < 1e-13


def test_perturbation_identities_randomized():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(100):
        h = random_hermitian(rng, 10, beta=int(rng.integers(1, 3)))
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
            i, j, k = rng.choice(10, size=3, replace=False)
            worst = max(worst, verify_perturbation_identities(h, z, int(i), int(j), int(k)))
    assert worst < 1e-8


def test_perturbation_identities_rejects_duplicates():
    with pytest.raises(IndexError):
        verify_perturbation_identities(np.eye(4), 1j, 1, 1, 2)


def test_herglotz_and_eta_monotonicity():
    p = wigner_profile(40)
    h = sample_matrix(p, catalog_distribution("gaussian"), 2, seed=3)
    etas = np.geomspace(1e-3, 5.0, 12)
    vals = []
    for eta in etas:
        d = diagnostics(h, p, complex(0.4, eta))
        assert d.m_n.imag > 0
        vals.append(eta * d.m_n.imag)
    assert np.all(np.diff(vals) > 0)


def test_counting_gap_classical_locations():
    n = 200
    stat = counting_gap(classical_locations(n), a_exponent=1)
    assert stat <= 2.0 / n + 1e-12


def test_counting_gap_shift_increases_statistic():
    g = classical_locations(100)
    base = counting_gap(g, 1)
    shifted = counting_gap(g + 0.1, 1)
    assert shifted > base
    assert shifted > 0.05 * 0.25  # ~ 0.1 * rho-weighted mass, well above the unshifted value


def test_counting_gap_respects_exponent():
    g = classical_locations(50) + 0.05
    assert counting_gap(g, 2) != counting_gap(g, 1)


def test_counting_function_shape_invariants():
    # fn is right-continuous, nondecreasing, 0 at -3 and 1 at 3 when the
    # spectrum is contained in the edge window
    p = wigner_profile(300)
    h = sample_matrix(p, catalog_distribution("gaussian"), 2, seed=40)
    from rmt_locallaw.linalg import eigh

    lam = eigh(h, compute_vectors=False).eigenvalues
    assert edge_check(lam, 0.05).passed
    es = np.linspace(-3.0, 3.0, 2000)
    fn = np.searchsorted(lam, es, side="right") / lam.size
    assert fn[0] == 0.0 and fn[-1] == 1.0
    assert np.all(np.diff(fn) >= 0)
    at_jump = np.searchsorted(lam, lam, side="right") / lam.size
    just_right = np.searchsorted(lam, lam + 1e-12, side="right") / lam.size
    np.testing.assert_array_equal(at_jump, just_right)


def test_rigidity_exact_cases():
    g = classical_locations(64)
    r = rigidity_stat(g)
    assert r.total == 0.0
    n = 100
    r2 = rigidity_stat(classical_locations(n) + 1.0 / n)
    assert r2.total == pytest.approx(1.0 / n, rel=1e-12)
    np.testing.assert_allclose(r2.deviations, 1.0 / n, atol=1e-15)


def test_edge_check_examples():
    rep = edge_check(np.array([-1.0, 1.0]), epsilon=0.05)
    assert rep.passed and rep.norm_bound_ok
    assert min(rep.lower_margin, rep.upper_margin) > 0.9
    bad = edge_check(np.array([0.0, 3.5]), epsilon=0.05)
    assert not bad.passed
    assert not bad.norm_bound_ok


def test_z_moments_degenerate_profile_all_zero():
    p = identity_profile(12)
    table = z_average_moments(
        p, catalog_distribution("bernoulli"), 1, 0.5 + 0.05j, 8, 4, seed=5, check_domain=False
    )
    for row in table.rows:
        assert row["moment"] == 0.0


def test_z_moments_gue_ratio_below_one():
    p = wigner_profile(100)
    table = z_average_moments(p, catalog_distribution("gaussian"), 2, 0.5 + 0.05j, 50, 2, seed=6)
    assert table.ratio(2) < 1.0
    row = table.rows[0]
    assert row["stderr"] > 0
    assert row["moment"] > 0


def test_z_moments_ratio_trend_at_fixed_meta():
    ratios = []
    for n in (200, 400, 800):
        p = wigner_profile(n)
        table = z_average_moments(
            p, catalog_distribution("gaussian"), 2, complex(0.5, 20.0 / n), 24, 2, seed=7
        )
        ratios.append(table.ratio(2))
    assert ratios[1] <= ratios[0] * 1.05
    assert ratios[2] <= ratios[1] * 1.05


def test_z_moments_domain_gate():
    p = wigner_profile(50)
    with pytest.raises(ConfigError):
        z_average_moments(p, catalog_distribution("gaussian"), 2, 0.5 + 0.001j, 4, 2, seed=8)
    with pytest.raises(ConfigError):
        z_average_moments(p, catalog_distribution("gaussian"), 2, 0.5 + 0.05j, 4, 3, seed=8)


def test_local_law_scan_single_entry():
    p = wigner_profile(1)
    d = catalog_distribution("gaussian")
    z = 2.0j
    res = local_law_scan(p, d, 2, 3, [z], seed=9)
    for row in res.rows:
        h = sample_matrix(p, d, 2, row["sample_seed"]).entries[0, 0]
        want = abs(1.0 / (h - z) - msc_eval(z))
        assert row["m_err"] == pytest.approx(want, abs=1e-13)
        assert row["lambda_o"] == 0.0


def test_local_law_scan_rejects_out_of_domain_grid():
    p = wigner_profile(100)
    with pytest.raises(ConfigError) as err:
        local_law_scan(p, catalog_distribution("gaussian"), 2, 1, [0.004j], seed=10)
    assert "0.004" in str(err.value)


GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_locallaw.json"


def golden_scan_text() -> str:
    """The golden file's scan, recomputed and serialized as the file is."""
    meta = json.loads(GOLDEN.read_text())
    scan = local_law_scan(
        wigner_profile(meta["n"]),
        catalog_distribution("gaussian"),
        2,
        meta["samples"],
        [complex(meta["E"], meta["eta"])],
        seed=meta["seed"],
    )
    doc = {
        "seed": meta["seed"], "n": meta["n"], "E": meta["E"], "eta": meta["eta"],
        "samples": meta["samples"], "quantiles": scan.quantiles,
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def test_local_law_scan_golden_baseline():
    # committed baseline from this implementation, cross-checked at generation
    # time against the spectral-oracle resolvent; byte-identical on rerun
    assert golden_scan_text() == GOLDEN.read_text()


def test_local_law_scan_quantiles_recomputable():
    p = wigner_profile(60)
    res = local_law_scan(p, catalog_distribution("bernoulli"), 2, 6, [0.5 + 0.4j, 1j], seed=11)
    assert res.quantiles == res.recompute_quantiles()
    assert len(res.rows) == 12
    assert all(r["mainseeq_residual"] < 1e-8 for r in res.rows)
