import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from rmt_locallaw.errors import DomainError
from rmt_locallaw.semicircle import classical_locations, in_domain, msc_eval, nsc_eval, rho_sc, theta_eval


def quad_nsc(e: float) -> float:
    # independent oracle: adaptive quadrature of the density
    if e <= -2:
        return 0.0
    val, _ = quad(rho_sc, -2.0, min(e, 2.0), epsabs=1e-13, epsrel=1e-13)
    return val


def test_in_domain_reads_the_edge_distance_from_e():
    # D with A = 1 is sqrt(M*eta) >= (kappa+eta)^(-3/4), kappa = ||E| - 2|: at
    # eta = 0.1 the M where it flips depends on E through kappa alone
    for kappa in (0.5, 1.0):
        m_flip = (kappa + 0.1) ** -1.5 / 0.1
        for e in (2.0 + kappa, 2.0 - kappa, -2.0 + kappa, -2.0 - kappa):
            assert in_domain(complex(e, 0.1), 100, m_flip * (1 + 1e-9), 1.0, 1, "D")
            assert not in_domain(complex(e, 0.1), 100, m_flip * (1 - 1e-9), 1.0, 1, "D")


def test_eta_must_be_positive():
    for z in (0.0, complex(0.5, 0.0), complex(0.5, -1.0)):
        with pytest.raises(DomainError):
            msc_eval(z)
        with pytest.raises(DomainError):
            theta_eval(z, 1.0)
        for variant in ("D", "D_star"):
            assert not in_domain(z, 100, 100.0, 1.0, 1, variant)


def test_msc_near_edge():
    m = msc_eval(complex(2.0, 1e-12))
    assert abs(m - (-1.0)) < 1e-5
    assert m.imag > 0


def test_msc_at_i_matches_quadratic_root():
    # oracle: solve m^2 + z m + 1 = 0 with numpy roots, pick Im > 0
    z = 1j
    roots = np.roots([1.0, z, 1.0])
    want = roots[np.argmax(roots.imag)]
    got = msc_eval(z)
    assert abs(got - want) < 1e-14
    assert abs(got - 1j * (math.sqrt(5) - 1) / 2) < 1e-14


def test_msc_defining_equation_on_grid():
    es = np.linspace(-5, 5, 100)
    etas = np.geomspace(1e-6, 10, 100)
    zz = es[:, None] + 1j * etas[None, :]
    from rmt_locallaw.semicircle import _msc

    m = _msc(zz)
    resid = np.abs(m + 1.0 / (zz + m))
    assert np.max(resid) < 1e-12
    assert np.all(m.imag > 0)
    assert np.max(np.abs(m)) <= 1 + 1e-12


def test_msc_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        msc_eval(complex(0.0, -0.1))


def test_rho_values():
    assert rho_sc(0.0) == pytest.approx(1 / math.pi, abs=1e-15)
    assert rho_sc(2.0) == 0.0
    assert rho_sc(-2.0) == 0.0
    assert rho_sc(3.0) == 0.0
    assert rho_sc(1.0) == pytest.approx(math.sqrt(3) / (2 * math.pi), abs=1e-15)


def test_nsc_values():
    assert nsc_eval(0.0) == 0.5
    assert nsc_eval(2.0) == 1.0
    assert nsc_eval(-2.0) == 0.0
    assert nsc_eval(5.0) == 1.0
    assert nsc_eval(1.0) == pytest.approx(quad_nsc(1.0), abs=1e-10)
    assert nsc_eval(1.0) == pytest.approx(0.80450, abs=5e-6)


def test_nsc_matches_quadrature_on_random_energies():
    rng = np.random.default_rng(1)
    es = rng.uniform(-2.5, 2.5, size=1000)
    closed = nsc_eval(es)
    for e, c in zip(es, closed):
        assert abs(c - quad_nsc(e)) < 1e-10


def test_nsc_monotone():
    es = np.linspace(-3, 3, 4001)
    vals = nsc_eval(es)
    assert np.all(np.diff(vals) >= 0)


def test_classical_locations_small():
    g2 = classical_locations(2)
    assert g2[1] == 2.0
    assert abs(g2[0]) < 1e-10
    for n in (4, 10, 50):
        g = classical_locations(n)
        assert abs(g[n // 2 - 1]) < 1e-10  # gamma_{n/2} = 0 for even n
        assert np.all(np.diff(g) > 0)
        assert g[-1] == 2.0


def test_classical_locations_against_quadrature_oracle():
    # independent route: brentq on quadrature-based n_sc
    want = brentq(lambda x: quad_nsc(x) - 0.25, -2.0, 2.0, xtol=1e-13)
    got = classical_locations(4)[0]
    assert abs(got - want) < 1e-9


def test_classical_locations_residuals_n1000():
    n = 1000
    g = classical_locations(n)
    resid = np.abs(nsc_eval(g) - np.arange(1, n + 1) / n)
    assert np.max(resid) < 1e-9
    assert np.all(np.diff(g) > 0)


def test_theta_large_eta_order_one():
    # both terms are order one far from the real axis
    t = theta_eval(10j, 1.0)
    assert 1 / 50 < t < 50


def test_theta_small_eta_center():
    t = theta_eval(0.01j, 1.0)
    assert t == pytest.approx(1.0, rel=0.05)  # msc^2 ~ -1 so both denominators ~ 2


def test_theta_lower_bound_and_edge_power():
    rng = np.random.default_rng(2)
    worst_c = 0.0
    for _ in range(300):
        e, eta = float(rng.uniform(-5, 5)), float(rng.uniform(1e-5, 10))
        m2 = msc_eval(complex(e, eta)) ** 2
        t = theta_eval(complex(e, eta), 1.0)
        assert t >= 1.0 / abs(1.0 - m2) - 1e-12
        worst_c = max(worst_c, t * (abs(abs(e) - 2.0) + eta) ** 0.5)
    # constant in theta <= C (kappa+eta)^(-A/2) reported, generous bracket
    assert worst_c < 50


def test_theta_floors_a_vanishing_gap():
    # a profile with no gap (delta_plus = 0) gets the 1e-12 floor, not 1/0
    z = complex(0.0, 1e-3)
    m2 = msc_eval(z) ** 2
    want = 1.0 / abs(1.0 - m2) + 1.0 / max(1e-12, abs(m2.real - 1.0))
    assert theta_eval(z, 0.0) == theta_eval(z, 1e-12) == want
    assert theta_eval(z, -1.0) == want


def test_in_domain_large_eta_everywhere():
    for n in (10, 100, 100000):
        for variant in ("D", "D_star"):
            for a in (1, 2):
                assert in_domain(10j, n, float(n), 1.0, a, variant)


def test_in_domain_eta_floor():
    n = 100
    assert not in_domain(complex(0.0, 1.0 / (2 * n)), n, float(n), 1.0, 1, "D")
    assert not in_domain(complex(6.0, 1.0), n, float(n), 1.0, 1, "D")  # |E| > 5


def test_in_domain_flips_monotonically_in_eta():
    # at E = 4.9 the D_star predicate flips exactly once along an eta ladder
    n = 1000
    etas = np.geomspace(2.0 / n, 9.9, 400)
    flags = [in_domain(complex(4.9, eta), n, float(n), 1.0, 1, "D_star") for eta in etas]
    assert flags[0] is False and flags[-1] is True
    assert np.all(np.diff(np.asarray(flags, dtype=int)) >= 0)
