import dataclasses
import math

import numpy as np
import pytest

from rmt_locallaw.dbm import flow_interpolate
from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConfigError


def make_pair(n=30, seed=1, beta=2, dist="bernoulli"):
    p = wigner_profile(n)
    h0 = sample_matrix(p, catalog_distribution(dist), beta, seed)
    v = sample_matrix(p, catalog_distribution("gaussian"), beta, seed + 1)
    return h0, v


def flow(h0, v, t):
    """flow_interpolate into a new buffer."""
    return flow_interpolate(h0, v, t, np.empty_like(h0.entries))


def test_flow_time_zero_is_identity():
    h0, v = make_pair()
    ht = flow(h0, v, 0.0)
    assert np.array_equal(np.asarray(ht.entries), np.asarray(h0.entries))


def test_flow_log2_coefficients():
    h0, v = make_pair()
    ht = flow(h0, v, math.log(2.0))
    want = h0.entries / math.sqrt(2.0) + v.entries * math.sqrt(0.5)
    assert np.max(np.abs(ht.entries - want)) < 1e-15
    assert (ht.symmetry_class, ht.profile_id, ht.seed) == (h0.symmetry_class, h0.profile_id, h0.seed)
    assert ht.dist_id == f"flow(t={math.log(2.0):g};bernoulli)"


def test_flow_large_time_forgets_initial_data():
    h0, v = make_pair()
    ht = flow(h0, v, 50.0)
    tiny = 2e-11 * np.max(np.abs(h0.entries)) + 1e-12
    assert np.max(np.abs(ht.entries - v.entries)) < tiny


def test_flow_coefficient_identity_to_machine():
    for t in np.linspace(0.0, 8.0, 81):
        resid = abs(math.exp(-t / 2.0) ** 2 + (-math.expm1(-t)) - 1.0)
        assert resid < 1e-15


def test_flow_preserves_hermiticity_bitwise():
    h0, v = make_pair(beta=2)
    ht = flow(h0, v, 0.37).entries
    assert np.array_equal(np.asarray(ht), np.asarray(ht).conj().T)


@pytest.mark.parametrize("beta", [1, 2])
def test_flow_into_a_buffer_is_the_sum_of_the_two_products(beta):
    # n = 150 is not a multiple of the 64-row blocks
    h0, v = make_pair(n=150, beta=beta)
    buf = np.empty_like(h0.entries)
    for t in (0.1, 1.0, math.log(2.0)):
        want = math.exp(-t / 2.0) * h0.entries + math.sqrt(-math.expm1(-t)) * v.entries
        ht = flow_interpolate(h0, v, t, buf)
        assert ht.entries is buf and buf.flags.writeable
        assert buf.tobytes() == want.tobytes()
    assert flow_interpolate(h0, v, 0.0, buf).entries.tobytes() == h0.entries.tobytes()


def test_flow_rejects_mismatched_inputs():
    h0, v = make_pair(n=10)
    other = sample_matrix(wigner_profile(12), catalog_distribution("gaussian"), 2, 5)
    with pytest.raises(ConfigError):
        flow(h0, other, 0.1)
    with pytest.raises(ConfigError):
        flow(h0, h0, 0.1)  # comparison matrix must be Gaussian
    with pytest.raises(ConfigError):  # the id names a Gaussian-divisible law, not the Gaussian
        flow(h0, dataclasses.replace(v, dist_id="gaussian-divisible"), 0.1)
    with pytest.raises(ConfigError):
        flow(h0, v, -1.0)
