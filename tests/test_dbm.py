import dataclasses
import math

import numpy as np
import pytest

from rmt_locallaw.dbm import (
    ParticleState,
    assumption_ii_stat,
    assumption_iii_stat,
    assumption_iv_stat,
    flow_interpolate,
    sde_step,
)
from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConfigError, StepError
from rmt_locallaw.linalg import eigh
from rmt_locallaw.locallaw import rigidity_stat
from rmt_locallaw.semicircle import classical_locations, nsc_eval


def make_pair(n=30, seed=1, beta=2, dist="bernoulli"):
    p = wigner_profile(n)
    h0 = sample_matrix(p, catalog_distribution(dist), beta, seed)
    v = sample_matrix(p, catalog_distribution("gaussian"), beta, seed + 1)
    return h0, v


def test_flow_time_zero_is_identity():
    h0, v = make_pair()
    fs = flow_interpolate(h0, v, 0.0)
    assert np.array_equal(np.asarray(fs.ht.entries), np.asarray(h0.entries))


def test_flow_log2_coefficients():
    h0, v = make_pair()
    fs = flow_interpolate(h0, v, math.log(2.0))
    want = h0.entries / math.sqrt(2.0) + v.entries * math.sqrt(0.5)
    assert np.max(np.abs(fs.ht.entries - want)) < 1e-15


def test_flow_large_time_forgets_initial_data():
    h0, v = make_pair()
    fs = flow_interpolate(h0, v, 50.0)
    tiny = 2e-11 * np.max(np.abs(h0.entries)) + 1e-12
    assert np.max(np.abs(fs.ht.entries - v.entries)) < tiny


def test_flow_coefficient_identity_to_machine():
    for t in np.linspace(0.0, 8.0, 81):
        resid = abs(math.exp(-t / 2.0) ** 2 + (-math.expm1(-t)) - 1.0)
        assert resid < 1e-15


def test_flow_preserves_hermiticity_bitwise():
    h0, v = make_pair(beta=2)
    ht = flow_interpolate(h0, v, 0.37).ht.entries
    assert np.array_equal(np.asarray(ht), np.asarray(ht).conj().T)


def test_flow_rejects_mismatched_inputs():
    h0, v = make_pair(n=10)
    other = sample_matrix(wigner_profile(12), catalog_distribution("gaussian"), 2, 5)
    with pytest.raises(ConfigError):
        flow_interpolate(h0, other, 0.1)
    with pytest.raises(ConfigError):
        flow_interpolate(h0, h0, 0.1)  # comparison matrix must be Gaussian
    with pytest.raises(ConfigError):  # the id names a Gaussian-divisible law, not the Gaussian
        flow_interpolate(h0, dataclasses.replace(v, dist_id="gaussian-divisible"), 0.1)
    with pytest.raises(ConfigError):
        flow_interpolate(h0, v, -1.0)


def test_sde_drift_two_particles():
    st = ParticleState(x=np.array([-1.0, 1.0]), beta=2)
    nxt = sde_step(st, 0.01)
    assert nxt.x[0] == pytest.approx(-0.9975, abs=1e-12)
    assert nxt.x[1] == pytest.approx(0.9975, abs=1e-12)
    assert nxt.time == pytest.approx(0.01)


def test_sde_preserves_symmetry_without_noise():
    x = np.array([-2.0, -0.7, -0.1, 0.1, 0.7, 2.0])
    st = ParticleState(x=x, beta=1)
    for _ in range(50):
        st = sde_step(st, 0.01)
    assert np.max(np.abs(st.x + st.x[::-1])) < 1e-12


def test_sde_center_of_mass_decay():
    # well-separated particles: no halving, and pairwise interactions cancel
    # in the sum, leaving pure OU decay of the center of mass
    x = classical_locations(20) * 0.9 + 0.3
    st = ParticleState(x=x, beta=2)
    nxt = sde_step(st, 0.005)
    assert nxt.x.mean() == pytest.approx(st.x.mean() * (1 - 0.005 * 2 / 4), abs=1e-12)


def test_sde_resolves_near_collision_by_halving():
    st = ParticleState(x=np.array([0.0, 1e-9]), beta=2)
    nxt = sde_step(st, 0.01, noise_seed=33)
    assert nxt.x[0] < nxt.x[1]
    assert nxt.time == pytest.approx(0.01)


def test_sde_gives_up_after_twenty_halvings():
    st = ParticleState(x=np.array([-1.0, 1.0]), beta=2)
    with pytest.raises(StepError):
        sde_step(st, 1e7)


def test_sde_equilibrium_stays_near_semicircle():
    n = 50
    st = ParticleState(x=classical_locations(n) * (1 - 1e-9), beta=2)
    dt = 0.01
    for k in range(200):
        st = sde_step(st, dt, noise_seed=1000 + k)
    ks = np.max(np.abs(np.arange(1, n + 1) / n - nsc_eval(st.x)))
    assert ks < 0.1


def test_assumption_ii_classical_full_interval():
    spectra = [classical_locations(128)]
    assert assumption_ii_stat(spectra, -2.0, 2.0) <= 1.0 / 128
    assert assumption_ii_stat(spectra, 4.0, 5.0) == 0.0
    with pytest.raises(ConfigError):
        assumption_ii_stat(spectra, 1.0, 0.0)


def test_assumption_ii_gue_monte_carlo():
    p = wigner_profile(500)
    d = catalog_distribution("gaussian")
    spectra = [eigh(sample_matrix(p, d, 2, 100 + k), compute_vectors=False) for k in range(50)]
    assert assumption_ii_stat(spectra, 0.0, 1.0) < 0.01


def test_assumption_iii_exact_cases():
    g = classical_locations(80)
    assert assumption_iii_stat(g) == 0.0
    c = 0.017
    assert assumption_iii_stat(g + c) == pytest.approx(c * c, rel=1e-9)
    assert assumption_iii_stat(g) == rigidity_stat(g).total / 80


def test_assumption_iv_classical_density():
    g = classical_locations(400)
    count, flag = assumption_iv_stat(g, (-0.5, 0.5), k_threshold=2.0)
    # semicircle mass of [-1/2, 1/2] is ~0.31 < 2 * |I| = 2
    assert count == pytest.approx(400 * (nsc_eval(0.5) - nsc_eval(-0.5)), abs=2)
    assert flag is False
    _, always = assumption_iv_stat(g, (-0.5, 0.5), k_threshold=0.0)
    assert always is True


def test_assumption_iv_interval_without_points():
    g = classical_locations(100)
    lo = g[49] + 0.002  # gamma_50 = 0; next point is ~0.031 away
    count, flag = assumption_iv_stat(g, (lo, lo + 0.016), k_threshold=1.0)
    assert count == 0
    assert flag is False


def test_assumption_iv_rejects_bad_intervals():
    g = classical_locations(100)
    with pytest.raises(ConfigError):
        assumption_iv_stat(g, (-2.5, 0.0), 1.0)
    with pytest.raises(ConfigError):
        assumption_iv_stat(g, (0.0, 1e-4), 1.0)
