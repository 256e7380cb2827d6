import json
import math

import numpy as np
import pytest
import scipy.linalg

from rmt_locallaw import lapack, linalg, parallel, runner
from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConvergenceError, RMTError, SolverError
from rmt_locallaw.linalg import eigh, resolvent
from rmt_locallaw.seeding import derive_seed
from rmt_locallaw.semicircle import msc_eval

from test_linalg import random_hermitian
from test_locallaw import GOLDEN


def spectral_resolvent(h, z):
    s = eigh(h)  # numpy's zheevd with vectors: a second LAPACK route
    return (s.eigenvectors / (s.eigenvalues - z)) @ s.eigenvectors.conj().T


def relative_gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def test_resolvent_against_spectral_oracle_and_minors():
    rng = np.random.default_rng(21)
    for n in (1, 2, 7, 33, 120):
        for beta in (1, 2):
            h = random_hermitian(rng, n, beta)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 1.0))
            assert relative_gap(resolvent(h, z).entries, spectral_resolvent(h, z)) < 1e-12
            if n > 2:
                removed = tuple(int(k) for k in rng.choice(n, size=2, replace=False))
                g = resolvent(h, z, removed)
                keep = g.surviving
                assert relative_gap(g.entries, spectral_resolvent(h[np.ix_(keep, keep)], z)) < 1e-12


def test_resolvent_of_empty_matrices():
    g = resolvent(np.zeros((0, 0)), 1j)
    assert g.entries.shape == (0, 0) and g.surviving.size == 0
    assert resolvent(np.ones((1, 1)), 0.5j, (0,)).entries.shape == (0, 0)


def test_invert_handles_general_matrices():
    # the buffer is read transposed and inverted transposed; nothing assumes symmetry
    rng = np.random.default_rng(22)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    g = a.copy()
    lapack.invert(g)
    assert relative_gap(g, np.linalg.inv(a)) < 1e-12
    assert relative_gap(a @ g, np.eye(40)) < 1e-12


def test_eigenvalues_against_numpy_and_scipy():
    rng = np.random.default_rng(23)
    for n in (1, 2, 9, 64, 300):
        for beta in (1, 2):
            h = random_hermitian(rng, n, beta)
            w = eigh(h, compute_vectors=False).eigenvalues
            for ref in (np.linalg.eigvalsh(h), scipy.linalg.eigvalsh(h)):
                assert relative_gap(w, ref) < 1e-12
    assert eigh(np.zeros((0, 0)), compute_vectors=False).eigenvalues.shape == (0,)


def test_real_eigenvalues_are_numpys_to_the_bit():
    # same dsyevd call, same input bytes
    s = sample_matrix(wigner_profile(200), catalog_distribution("bernoulli"), 1, seed=3)
    assert eigh(s, compute_vectors=False).eigenvalues.tobytes() == np.linalg.eigvalsh(s.entries).tobytes()


def test_samples_skip_the_hermitian_check(monkeypatch):
    s = sample_matrix(wigner_profile(30), catalog_distribution("gaussian"), 2, seed=4)
    want = eigh(s, compute_vectors=False).eigenvalues

    def refuse(a):
        raise AssertionError("sample was checked")

    monkeypatch.setattr(linalg, "_hermitian_part", refuse)
    assert np.array_equal(eigh(s, compute_vectors=False).eigenvalues, want)
    with pytest.raises(AssertionError):
        eigh(s.entries, compute_vectors=False)


def _fail_with_info(position, value):
    def routine(*args):
        args[position].value = value

    return routine


def test_nonzero_info_maps_to_package_errors(monkeypatch):
    rng = np.random.default_rng(24)
    h = random_hermitian(rng, 6)
    monkeypatch.setitem(lapack._bound, "scipy_zgetrf_64_", _fail_with_info(-1, 3))
    with pytest.raises(SolverError, match="zgetrf returned info=3"):
        resolvent(h, 0.5j)
    monkeypatch.undo()
    # an exactly singular shift: zgetrf reports it itself
    with pytest.raises(SolverError, match="zgetrf returned info="):
        resolvent(0.5j * np.eye(3) + np.triu(np.ones((3, 3)), 1), 0.5j)
    monkeypatch.setitem(lapack._bound, "scipy_zheevd_2stage_64_", _fail_with_info(-3, 2))
    monkeypatch.setitem(lapack._bound, "scipy_dsyevd_64_", _fail_with_info(-3, 2))
    for beta in (1, 2):
        with pytest.raises(ConvergenceError, match="info=2"):
            eigh(random_hermitian(rng, 5, beta), compute_vectors=False)


def _run_main(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7, **doc}))
    capsys.readouterr()
    code = runner.main([doc["experiment"], "-c", str(cfg_path), "-o", str(tmp_path / "out")])
    return code, capsys.readouterr().err


RIGIDITY = {"experiment": "rigidity", "ensemble": {"distribution": "bernoulli", "beta": 2}, "n": 40, "samples": 2}
SCAN = {"experiment": "locallaw-scan", "ensemble": {"distribution": "bernoulli"}, "sizes": [40], "samples": 2}


def test_main_exits_3_on_lapack_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(lapack._bound, "scipy_zheevd_2stage_64_", _fail_with_info(-3, 1))
    monkeypatch.setitem(lapack._bound, "scipy_zgetrf_64_", _fail_with_info(-1, 1))
    for doc, name in ((RIGIDITY, "zheevd_2stage"), (SCAN, "zgetrf")):
        code, err = _run_main(tmp_path, capsys, doc)
        assert code == 3 and err.count("\n") == 1 and err.startswith("numerical error") and name in err


def test_missing_library_is_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lapack, "_bound", {})
    monkeypatch.setattr(parallel, "_library", None)
    monkeypatch.setattr(parallel, "_load", lambda path: None)  # no mapped library exports the symbols
    code, err = _run_main(tmp_path, capsys, RIGIDITY)
    assert code == 3 and err.count("\n") == 1 and "scipy_openblas_set_num_threads64_" in err
    with pytest.raises(RMTError, match="scipy_openblas_set_num_threads64_"):
        with parallel.blas_threads(1):
            pass

    class Bare:
        handle = object()

    monkeypatch.setattr(lapack, "numpy_openblas", lambda: Bare)
    with pytest.raises(RMTError, match="scipy_dsyevd_64_"):
        eigh(np.eye(2), compute_vectors=False)


def test_golden_scan_agrees_with_numpy_eigenvalues():
    # m_N = mean 1/(lambda - z) from numpy's eigvalsh, no resolvent at all
    meta = json.loads(GOLDEN.read_text())
    n, z = meta["n"], complex(meta["E"], meta["eta"])
    profile, law = wigner_profile(n), catalog_distribution("gaussian")
    errs = []
    for si in range(meta["samples"]):
        lam = np.linalg.eigvalsh(sample_matrix(profile, law, 2, derive_seed(meta["seed"], si)).entries)
        errs.append(profile.m_param * z.imag * abs(np.mean(1.0 / (lam - z)) - msc_eval(z)))
    want = meta["quantiles"]["0"]["meta_m_err"]
    assert math.isclose(float(np.median(errs)), want["median"], rel_tol=1e-9)
    assert math.isclose(float(np.quantile(errs, 0.9)), want["p90"], rel_tol=1e-9)
