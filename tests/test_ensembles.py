import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from _peak import traced_peak
from rmt_locallaw.dbm import flow_interpolate
from rmt_locallaw.ensembles import (
    DRAW_CHUNK,
    EntryDistribution,
    VarianceProfile,
    band_profile,
    catalog_distribution,
    sample_matrix,
    wigner_profile,
)
from rmt_locallaw.errors import DegenerateProfileError, NotFoundError, SamplingError
from rmt_locallaw.moments import MomentTarget, match_four_moments, three_point_construct
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


@pytest.mark.parametrize("beta", [1, 2])
def test_flat_profile_is_a_view_that_samples_as_a_dense_grid(beta):
    n = 150
    flat = wigner_profile(n)
    dense = VarianceProfile.from_variances(np.full((n, n), 1.0 / n), profile_id=flat.profile_id,
                                           spectrum=flat.sigma_spectrum)
    assert flat.variances.strides == (0, 0) and not flat.variances.flags.writeable
    for field in ("n", "m_param", "c_inf", "c_sup", "delta_minus", "delta_plus", "profile_id"):
        assert getattr(flat, field) == getattr(dense, field)
    d = catalog_distribution("bernoulli")
    assert sample_matrix(flat, d, beta, seed=7).entries.tobytes() == sample_matrix(dense, d, beta, seed=7).entries.tobytes()


def test_flat_profile_holds_no_grid():
    # the validation's 64-row blocks are its largest arrays; n^2 doubles would be 32 MB
    n = 2000
    assert traced_peak(lambda: wigner_profile(n)) < 4 * 8 * 64 * n


def test_profile_copies_a_writable_grid_and_keeps_a_read_only_one():
    var = np.full((8, 8), 1.0 / 8)
    p = VarianceProfile.from_variances(var)
    var[0, 0] = 5.0
    assert np.all(p.variances == 1.0 / 8) and not p.variances.flags.writeable
    view = np.broadcast_to(np.float64(1.0 / 8), (8, 8))
    assert VarianceProfile.from_variances(view).variances is view


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
    p = wigner_profile(16)  # validated on construction
    assert p.column_sum_residual() < 1e-12
    assert p.c_inf == p.c_sup == 1.0  # (VV) holds
    assert p.edge_exponent_a == 1
    assert p.delta_plus == pytest.approx(1.0) and p.delta_minus == pytest.approx(1.0)


def test_validate_band_edge_class_follows_min_variance():
    p = band_profile(256, 16, lambda x: max(0.0, 1.0 - abs(x)))
    assert p.edge_exponent_a == (1 if p.c_inf > 0 else 2)
    assert p.edge_exponent_a == 2  # triangle shape vanishes away from the band


def test_validate_reports_column_sum_defect():
    var = np.full((8, 8), 1.0 / 8)
    var[:, 0] *= 0.9
    var[0, :] = var[:, 0]  # keep symmetry; column 0 now sums to < 1
    p = VarianceProfile.from_variances(var, validate=False)
    assert p.column_sum_residual() == pytest.approx(0.1, abs=1e-3)
    with pytest.raises(ValueError, match="column sums deviate from 1 by 0.1"):
        VarianceProfile.from_variances(var)


@pytest.mark.parametrize("n, i, j", [(2, 1, 0), (64, 63, 0), (65, 64, 63), (150, 149, 3), (150, 70, 140)])
def test_symmetry_residual_is_the_largest_mirror_difference(n, i, j):
    # the check reads 64-row blocks against 64-column blocks; a defect on
    # either side of the diagonal, in any block, is found at its full size
    var = np.zeros((n, n))
    var[i, j] = 0.125
    var[n - 1 - i, j] = var[j, n - 1 - i] = 0.0625  # a mirrored pair: no defect
    with pytest.raises(ValueError, match=r"^invalid variance profile: variances not symmetric \(residual 0.125\);"):
        VarianceProfile.from_variances(var, spectrum=np.r_[np.zeros(n - 1), 1.0])


def test_validate_lists_every_structural_defect():
    var = np.full((4, 4), 0.25)
    var[0, 1] = 0.5  # asymmetric, column 1 sums to 1.25
    var[2, 3] = -0.25  # negative, column 3 sums to 0.5
    with pytest.raises(ValueError) as err:
        VarianceProfile.from_variances(var)
    message = str(err.value)
    assert message.startswith("invalid variance profile: variances not symmetric (residual 0.5); column sums")
    assert "negative variances" in message
    with pytest.raises(ValueError, match="Sigma spectrum escapes"):
        VarianceProfile.from_variances(np.eye(2), spectrum=[-1.5, 1.0])
    with pytest.raises(ValueError) as err:
        VarianceProfile.from_variances(np.eye(2), spectrum=[0.0, 0.5])
    assert str(err.value) == "invalid variance profile: largest Sigma eigenvalue 0.5 != 1"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_rejects_variances_that_are_not_finite(bad):
    var = np.array([[0.5, bad], [bad, 0.5]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^invalid variance profile: variances not finite$"):
            VarianceProfile.from_variances(var)
    assert caught == []  # no residual is computed from a grid known not to be finite


def test_sampling_rejects_a_nan_column_sum():
    # unvalidated, a NaN grid has a NaN column-sum residual, which the guard
    # must not let through
    p = VarianceProfile.from_variances(np.array([[0.5, math.nan], [math.nan, 0.5]]), validate=False)
    with pytest.raises(SamplingError, match="column-sum"):
        sample_matrix(p, catalog_distribution("gaussian"), 1, seed=1)


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


def _hermitian_to_the_bit(a) -> bool:
    # conjugation turns the diagonal's +0.0 imaginary parts into -0.0, so the
    # diagonal is compared by value and every other entry byte for byte
    mirror = a.conj().T.copy()
    np.fill_diagonal(mirror, np.diag(a))
    return mirror.tobytes() == a.tobytes() and bool(np.all(np.diag(a).imag == 0))


def test_sample_exact_hermitian_bitwise():
    # the eigenvalue routines read one triangle of a sample, unchecked; flowed
    # samples too
    three_point = three_point_construct(MomentTarget(0.3, 3.0))  # has an atom at 0
    for n in (1, 2, 31, 300):
        p = wigner_profile(n)
        for beta in (1, 2):
            v = sample_matrix(p, catalog_distribution("gaussian"), beta, seed=9)
            assert _hermitian_to_the_bit(v.entries)
            for law in (catalog_distribution("bernoulli"), catalog_distribution("uniform"), three_point):
                h0 = sample_matrix(p, law, beta, seed=5)
                assert _hermitian_to_the_bit(h0.entries)
                assert _hermitian_to_the_bit(flow_interpolate(h0, v, 0.37, np.empty_like(h0.entries)).entries)


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


# the fourth moments of the catalog laws, which the sampler checks below compare against
CATALOG_M4 = {"bernoulli": 1.0, "gaussian": 3.0, "uniform": 9.0 / 5.0}


def test_catalog_moments():
    # oracles for the reference table: the +-1 atoms, and x^4 integrated over
    # the standardized Gaussian and uniform densities
    assert CATALOG_M4["bernoulli"] == 0.5 * 1.0**4 + 0.5 * (-1.0) ** 4
    want, _ = quad(lambda x: x**4 * math.exp(-x * x / 2) / math.sqrt(2 * math.pi), -math.inf, math.inf)
    assert CATALOG_M4["gaussian"] == pytest.approx(want, abs=1e-12)
    want, _ = quad(lambda x: x**4 / (2 * math.sqrt(3)), -math.sqrt(3), math.sqrt(3))
    assert CATALOG_M4["uniform"] == pytest.approx(want, abs=1e-12)
    for name in CATALOG_M4:
        assert catalog_distribution(name) == EntryDistribution(kind=name, atoms=None)
        assert catalog_distribution(name).dist_id == name  # keys the random stream


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
        assert abs(m4.mean() - CATALOG_M4[name]) <= 5 * max(m4.std(ddof=1), 1e-12) / math.sqrt(x.size)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "bogus", "atoms": None}, "unknown kind 'bogus'"),
    ({"kind": "bernoulli", "atoms": ((2.0, 0.5), (-2.0, 0.5))}, "a bernoulli law takes no atoms"),
    ({"kind": "gaussian", "atoms": ((1.0, 0.5), (-1.0, 0.5))}, "a gaussian law takes no atoms"),
    ({"kind": "gaussian", "atoms": None, "gamma": 0.5}, "a gaussian law takes no gamma"),
    ({"kind": "discrete-atoms", "atoms": ((1.0, 0.5), (-1.0, 0.5)), "gamma": 0.5}, "a discrete-atoms law takes no gamma"),
    ({"kind": "gaussian-divisible", "atoms": ((1.0, 0.5), (-1.0, 0.5)), "gamma": 1.0}, "gamma must be in [0, 1)"),
    ({"kind": "discrete-atoms", "atoms": ()}, "discrete-atoms law requires atoms"),
    ({"kind": "discrete-atoms", "atoms": ((1.0, 0.6), (-1.0, 0.5))}, "atom probabilities"),
    ({"kind": "discrete-atoms", "atoms": ((2.0, 0.5), (-2.0, 0.5))}, "mean 0 and variance 1"),
])
def test_construction_rejects_a_law_that_would_run_another(fields, message):
    with pytest.raises(ValueError) as err:
        EntryDistribution(**fields)
    assert message in str(err.value)


def _dense_atoms(d, rng, size):
    vals = np.array([v for v, _ in d.atoms])
    cum = np.cumsum([p for _, p in d.atoms])
    u = rng.random(size)
    return vals[np.searchsorted(cum, u, side="right").clip(0, len(vals) - 1)]


def _dense_sample(d, rng, size):
    """The whole-array sampler the in-place one must reproduce bit for bit."""
    base = _dense_atoms(d, rng, size)
    if d.kind == "discrete-atoms":
        return base
    g = rng.standard_normal(size)
    return math.sqrt(1.0 - d.gamma) * base + math.sqrt(d.gamma) * g


# a three-point law with its atom at +0.0, the same law as a Gaussian-divisible
# one, and a law whose first atom is -0.0 (written first, by fill)
_ATOM_LAWS = [
    three_point_construct(MomentTarget(0.5, 3.0)),
    match_four_moments(MomentTarget(-0.7, 4.0), 0.01).to_distribution(),
    EntryDistribution(kind="discrete-atoms", atoms=((-0.0, 0.5), (math.sqrt(2.0), 0.25), (-math.sqrt(2.0), 0.25))),
]


def test_atom_laws_sample_their_atom_moments():
    rng = generator(4)
    for d in _ATOM_LAWS[::2]:  # the discrete-atoms laws
        x = d.sample(rng, 400_000)
        for k in (1, 2, 3, 4):
            want = sum(p * v**k for v, p in d.atoms)
            mk = x**k
            assert abs(mk.mean() - want) <= 5 * mk.std(ddof=1) / math.sqrt(x.size), (d.dist_id, k)


@pytest.mark.parametrize("size", [1, 1000, DRAW_CHUNK, 2 * DRAW_CHUNK + 17, (3, 5), (300, 301)])
@pytest.mark.parametrize("law", range(len(_ATOM_LAWS)))
def test_in_place_atom_draws_equal_the_dense_sampler(law, size):
    d = _ATOM_LAWS[law]
    got = d.sample(generator(5, law), size)
    want = _dense_sample(d, generator(5, law), size)
    assert got.shape == want.shape == np.empty(size).shape
    assert got.tobytes() == want.tobytes()
    if d.kind == "discrete-atoms":
        # both signs of zero come out where the law puts them
        zeros = got == 0.0
        assert got.size == 1 or zeros.any()
        assert np.all(np.signbit(got[zeros]) == (law == 2))


@pytest.mark.parametrize("size", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 17, (300, 301)])
@pytest.mark.parametrize("law", range(5))
def test_draw_chunks_concatenate_to_the_sample(law, size):
    d = ([catalog_distribution(k) for k in ("bernoulli", "gaussian", "uniform")] + _ATOM_LAWS[:2])[law]
    want = d.sample(generator(6, law), size)
    chunks = list(d.draw_chunks(generator(6, law), want.size))
    assert [c.size for c in chunks[:-1]] == [DRAW_CHUNK] * (len(chunks) - 1) and 1 <= chunks[-1].size <= DRAW_CHUNK
    assert np.concatenate(chunks).tobytes() == want.tobytes()


def test_atom_selection_at_the_cumulative_boundaries():
    class FixedUniforms:
        def __init__(self, u):
            self.u = u

        def random(self, size):
            return self.u.copy().reshape(size)

    d = three_point_construct(MomentTarget(0.5, 3.0))
    cum = np.cumsum([p for _, p in d.atoms])
    u = np.array([0.0, cum[0], np.nextafter(cum[0], 0.0), cum[1], np.nextafter(cum[1], 0.0),
                  np.nextafter(1.0, 0.0), cum[2], np.nextafter(cum[2], 2.0)])
    got = d.sample(FixedUniforms(u), u.size)
    assert got.tobytes() == _dense_atoms(d, FixedUniforms(u), u.size).tobytes()


def test_atom_index_is_that_of_the_last_mask_when_the_cumulative_sum_dips():
    # a probability inside the -1e-15 tolerance makes cum dip below 0.5
    d = EntryDistribution(kind="discrete-atoms", atoms=((1.0, 0.5), (0.0, -1e-16), (-1.0, 0.5 + 1e-16)))
    cum = np.cumsum([p for _, p in d.atoms])
    assert cum[1] < cum[0]
    u = np.array([0.2, np.nextafter(cum[1], 0.0), cum[1], np.nextafter(cum[0], 0.0), cum[0], 0.7])
    want = np.full(u.size, d.atoms[0][0])
    for (v, _), c in zip(d.atoms[1:], cum[:-1]):
        want[u >= c] = v

    class FixedUniforms:
        def random(self, size):
            return u.copy()

    got = np.concatenate(list(d.draw_chunks(FixedUniforms(), u.size)))
    assert got.tobytes() == want.tobytes()
    assert list(got) == [1.0, 1.0, -1.0, -1.0, -1.0, -1.0]


def _dense_draw(d, rng, size):
    if d.kind == "bernoulli":
        return 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0
    return d.sample(rng, size)


def _dense_sample_matrix(p, d, beta, seed):
    """The whole-array sampler the row-blocked one must reproduce bit for bit:
    its planes are the stream's 64-row blocks, an x block then a y block."""
    n = p.n
    rng = generator(seed, p.profile_id, d.dist_id, beta)
    sigma = np.sqrt(p.variances)
    x_blocks, y_blocks = [], []
    for r0 in range(0, n, 64):
        shape = (min(64, n - r0), n)
        x_blocks.append(_dense_draw(d, rng, shape))
        if beta == 2:
            y_blocks.append(_dense_draw(d, rng, shape))
    x = np.concatenate(x_blocks)
    if beta == 2:
        y = np.concatenate(y_blocks)
        values = sigma * (x + 1j * y) / math.sqrt(2.0)
        mirror = values.T.conj()
    else:
        values = sigma * x
        mirror = values.T
    h = np.where(np.tri(n, dtype=bool).T, values, mirror)
    np.fill_diagonal(h, np.diag(sigma) * np.diag(x))
    return h


_MATRIX_LAWS = [catalog_distribution(name) for name in ("bernoulli", "gaussian", "uniform")] + _ATOM_LAWS[:2]


@pytest.mark.parametrize("law", range(len(_MATRIX_LAWS)))
@pytest.mark.parametrize("n", [1, 2, 31, 255, 256, 257, 300])
def test_row_blocked_sample_equals_the_dense_sampler(n, law):
    d = _MATRIX_LAWS[law]
    for p in (wigner_profile(n), band_profile(n, max(1, n // 8), lambda x: max(0.0, 1.0 - abs(x)))):
        for beta in (1, 2):
            got = sample_matrix(p, d, beta, seed=5).entries
            want = _dense_sample_matrix(p, d, beta, seed=5)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # every bit, so the sign of every zero too
            if d.kind == "discrete-atoms" and n > 2:
                assert np.any(got == 0.0)
            # drawn into a caller's buffer: the same bytes, handed over writable
            buf = np.empty_like(want)
            into = sample_matrix(p, d, beta, seed=5, out=buf)
            assert into.entries is buf and into.handed_over and into.entries.tobytes() == want.tobytes()
            assert not got.flags.writeable


def test_sample_matrix_fills_only_a_writable_c_ordered_buffer_of_its_dtype():
    p, d = wigner_profile(5), catalog_distribution("bernoulli")
    for beta, out in ((2, np.empty((5, 5))), (1, np.empty((5, 5), complex)), (1, np.empty((4, 5))),
                      (1, np.empty((5, 5), order="F")), (1, np.empty((5, 10))[:, ::2])):
        with pytest.raises(SamplingError, match="out must be"):
            sample_matrix(p, d, beta, seed=1, out=out)
    frozen = np.empty((5, 5))
    frozen.setflags(write=False)
    with pytest.raises(SamplingError, match="out must be"):
        sample_matrix(p, d, 1, seed=1, out=frozen)


def test_sample_matrix_holds_its_draws_its_output_and_one_row_block():
    # h makes 16 n^2 bytes, and one row block's draws and temporaries about
    # 5 x 64 n x 8 more (1.16 x in all); whole x and y planes made 2.1 x
    n = 1024
    p = wigner_profile(n)
    assert traced_peak(lambda: sample_matrix(p, catalog_distribution("bernoulli"), 2, seed=0)) <= 1.2 * 16 * n * n
