import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from rmt_locallaw.errors import DomainError
from rmt_locallaw.semicircle import (
    ControlFunction,
    SpectralPoint,
    classical_locations,
    in_domain,
    msc_eval,
    nsc_eval,
    rho_sc,
    theta_eval,
)


def quad_nsc(e: float) -> float:
    # independent oracle: adaptive quadrature of the density
    if e <= -2:
        return 0.0
    val, _ = quad(rho_sc, -2.0, min(e, 2.0), epsabs=1e-13, epsrel=1e-13)
    return val


def test_spectral_point_kappa_recomputed():
    pt = SpectralPoint(e=2.5, eta=0.1)
    assert pt.kappa == pytest.approx(0.5, abs=0)
    assert SpectralPoint(e=-1.0, eta=1.0).kappa == 1.0
    with pytest.raises(DomainError):
        SpectralPoint(e=0.0, eta=0.0)


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
    t = theta_eval(SpectralPoint(0.0, 10.0), ControlFunction(delta_plus=1.0))
    assert 1 / 50 < t < 50


def test_theta_small_eta_center():
    t = theta_eval(SpectralPoint(0.0, 0.01), ControlFunction(delta_plus=1.0))
    assert t == pytest.approx(1.0, rel=0.05)  # msc^2 ~ -1 so both denominators ~ 2


def test_theta_simplified():
    pt = SpectralPoint(2.0, 4.0)  # kappa + eta = 4
    assert theta_eval(pt, ControlFunction(), variant="simplified") == 0.5


def test_theta_lower_bound_and_edge_power():
    ctrl = ControlFunction(delta_plus=1.0, edge_exponent_a=1)
    rng = np.random.default_rng(2)
    worst_c = 0.0
    for _ in range(300):
        pt = SpectralPoint(float(rng.uniform(-5, 5)), float(rng.uniform(1e-5, 10)))
        m2 = msc_eval(pt.z) ** 2
        t = theta_eval(pt, ctrl)
        assert t >= 1.0 / abs(1.0 - m2) - 1e-12
        worst_c = max(worst_c, t * (pt.kappa + pt.eta) ** 0.5)
    # constant in theta <= C (kappa+eta)^(-A/2) reported, generous bracket
    assert worst_c < 50


def test_theta_simplified_monotone_in_eta():
    for e in (0.0, 1.0, 1.9):
        etas = np.linspace(1e-4, 10, 200)
        vals = [theta_eval(SpectralPoint(e, eta), ControlFunction(), variant="simplified") for eta in etas]
        assert np.all(np.diff(vals) <= 1e-15)


def test_in_domain_large_eta_everywhere():
    ctrl1 = ControlFunction(delta_plus=1.0, edge_exponent_a=1)
    ctrl2 = ControlFunction(delta_plus=1.0, edge_exponent_a=2)
    pt = SpectralPoint(0.0, 10.0)
    for n in (10, 100, 100000):
        for variant in ("D", "D_theorem", "D_star"):
            assert in_domain(pt, ctrl1, n, float(n), variant)
            assert in_domain(pt, ctrl2, n, float(n), variant)


def test_in_domain_eta_floor():
    ctrl = ControlFunction()
    n = 100
    assert not in_domain(SpectralPoint(0.0, 1.0 / (2 * n)), ctrl, n, float(n), "D")
    assert not in_domain(SpectralPoint(6.0, 1.0), ctrl, n, float(n), "D")  # |E| > 5


def test_in_domain_flips_monotonically_in_eta():
    # at E = 4.9 the D_theorem predicate flips exactly once along an eta ladder
    ctrl = ControlFunction(delta_plus=1.0, edge_exponent_a=1)
    n = 1000
    etas = np.geomspace(2.0 / n, 9.9, 400)
    flags = [in_domain(SpectralPoint(4.9, float(eta)), ctrl, n, float(n), "D_theorem") for eta in etas]
    assert flags[0] is False and flags[-1] is True
    assert np.all(np.diff(np.asarray(flags, dtype=int)) >= 0)


def test_in_domain_strict_is_stricter():
    ctrl = ControlFunction()
    pt = SpectralPoint(0.0, 0.05)
    n = 1000
    assert in_domain(pt, ctrl, n, float(n), "D_star")
    assert not in_domain(pt, ctrl, n, float(n), "D_star", strict=True)
