"""Acceptance suite: every criterion at its frozen threshold.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (run with -s to see
them live) and asserts both the statistical clause and the runtime budget.
"""

import json
import pathlib
import tempfile
import time

import numpy as np
import pytest

import _acceptance_log
from rmt_locallaw import runner
from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.locallaw import diagnostics, verify_perturbation_identities
from rmt_locallaw.parallel import numpy_openblas
from rmt_locallaw.seeding import derive_seed
from rmt_locallaw.semicircle import classical_locations, nsc_eval, rho_sc

SEED = 20260808
DETERMINISM_SEED = 424242
DIGESTS = pathlib.Path(__file__).parent / "data" / "determinism_digests.json"
WORKLOAD_DIGESTS = pathlib.Path(__file__).parent / "data" / "workload_digests.json"
WORKLOADS = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads"
WORKLOAD_SEED = 1


def _record(name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {name}: {status} ({detail}; {elapsed:.1f}s / {budget:.0f}s budget)"
    print(line)
    _acceptance_log.LINES.append(line)
    assert passed, line
    assert elapsed < budget, f"{name} over runtime budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_exact_algebra_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for m in range(100):
        n = int(rng.integers(4, 33))
        beta = 1 + m % 2
        p = wigner_profile(n)
        d = catalog_distribution(("gaussian", "bernoulli", "uniform")[m % 3])
        h = sample_matrix(p, d, beta, derive_seed(SEED, "algebra", m))
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
            i, j, k = (int(v) for v in rng.choice(n, size=3, replace=False))
            worst = max(worst, verify_perturbation_identities(h, z, i, j, k))
            worst = max(worst, diagnostics(h, p, z, minor_route=True).mainseeq_residual)
    elapsed = time.monotonic() - t0
    _record("1 exact-algebra", worst < 1e-8, f"max residual {worst:.2e} < 1e-8", elapsed, 10)


def test_criterion_2_semicircle_suite():
    from scipy.integrate import quad

    t0 = time.monotonic()
    es = np.linspace(-5, 5, 100)
    etas = np.geomspace(1e-6, 10, 100)
    zz = es[:, None] + 1j * etas[None, :]
    from rmt_locallaw.semicircle import _msc

    m = _msc(zz)
    msc_resid = float(np.max(np.abs(m + 1.0 / (zz + m))))

    rng = np.random.default_rng(SEED + 1)
    nsc_worst = 0.0
    for e in rng.uniform(-2.5, 2.5, 1000):
        want = quad(rho_sc, -2.0, min(float(e), 2.0), epsabs=1e-13, epsrel=1e-13)[0]
        nsc_worst = max(nsc_worst, abs(nsc_eval(float(e)) - want))

    g = classical_locations(1000)
    loc_worst = float(np.max(np.abs(nsc_eval(g) - np.arange(1, 1001) / 1000)))
    elapsed = time.monotonic() - t0
    ok = msc_resid < 1e-12 and nsc_worst < 1e-10 and loc_worst < 1e-9
    _record(
        "2 semicircle",
        ok,
        f"msc {msc_resid:.1e} < 1e-12, nsc-vs-quad {nsc_worst:.1e} < 1e-10, locations {loc_worst:.1e} < 1e-9",
        elapsed,
        5,
    )


def _ens(dist):
    return {"profile": "wigner", "distribution": dist, "beta": 2}


def _run_configs(tmp_path, name, budget, *docs):
    """Run frozen configs through the runner; the line quotes each manifest clause
    with its value, threshold and margin."""
    t0 = time.monotonic()
    manifests = [
        runner.run(runner.parse_config(json.dumps({"seed": SEED, **doc})), str(tmp_path / str(i)))
        for i, doc in enumerate(docs)
    ]
    elapsed = time.monotonic() - t0
    detail = "; ".join(
        (f"{doc['ensemble']['distribution']}: " if len(docs) > 1 else "")
        + ", ".join(f"{c['name']} {c['value']:.4g} {c['op']} {c['threshold']:.4g} (margin {c['margin']:+.3g})"
                    for c in m.clauses)
        for doc, m in zip(docs, manifests)
    )
    _record(name, all(m.all_passed for m in manifests), detail, elapsed, budget)
    return manifests


def test_criterion_3_local_law_scaling(tmp_path):
    scan = {
        "experiment": "locallaw-scan", "sizes": [250, 500, 1000, 2000], "samples": 50,
        "e": 0.0, "eta_coeff": 1.0, "eta_power": -0.8,
        "thresholds": {"median_meta_m_err_max": 10.0, "median_sqrt_meta_lambda_d_max": 10.0, "flatness_ratio_max": 4.0},
    }
    _run_configs(tmp_path, "3 local-law-scaling", 1200,
                 *({**scan, "ensemble": _ens(dist)} for dist in ("gaussian", "bernoulli")))


def test_criterion_4_rigidity(tmp_path):
    _run_configs(tmp_path, "4 rigidity", 300, {
        "experiment": "rigidity", "ensemble": _ens("bernoulli"), "n": 1000, "samples": 20,
        "thresholds": {"exponent": -1.0 / 7.0},
    })


def test_criterion_5_counting_function(tmp_path):
    _run_configs(tmp_path, "5 counting", 300, {
        "experiment": "counting", "ensemble": _ens("gaussian"), "n": 1000, "samples": 20,
        "thresholds": {"coeff": 10.0, "power": 0.1, "min_pass_fraction": 0.95},
    })


def test_criterion_6_edge_bound(tmp_path):
    edge = {"experiment": "edge", "n": 2000, "samples": 20, "epsilon": 0.05}
    _run_configs(tmp_path, "6 edge", 600, *({**edge, "ensemble": _ens(dist)} for dist in ("gaussian", "bernoulli")))


def test_criterion_7_moment_matching(tmp_path):
    (manifest,) = _run_configs(tmp_path, "7 moment-matching", 120, {
        "experiment": "moments-match", "grid_count": 100, "gammas": [0.001, 0.01, 0.1], "mc_draws": 1_000_000,
        "thresholds": {"m3_tol": 1e-12, "m4_gap_coeff": 4.0, "mc_sigma": 5.0},
    })
    assert manifest.statistics["targets"] == 100


def test_criterion_8_dbm_invariances(tmp_path):
    _run_configs(tmp_path, "8 dbm-invariances", 1800, {
        "experiment": "dbm-gaps", "ensemble": _ens("bernoulli"), "n": 1000, "times": [0.0, 0.1, 1.0],
        "samples": 120,  # ~866 bulk points per spectrum at kappa_cut = 0.5
        "kappa_cut": 0.5, "thresholds": {"ks_max": 0.03, "min_gaps": 100_000},
    })


def test_criterion_9_universality(tmp_path):
    _run_configs(tmp_path, "9 universality", 1800, {
        "experiment": "correlations", "ensemble": _ens("bernoulli"), "distribution_b": "gaussian",
        "n": 1000, "samples": 100, "kappa_cut": 0.5, "thresholds": {"ks_max": 0.05},
    })


def test_criterion_10_z_average_moments(tmp_path):
    _run_configs(tmp_path, "10 z-moments", 600, {
        "experiment": "zmoments", "ensemble": _ens("gaussian"), "n": 400, "z": [0.5, 0.05], "samples": 500,
        "p_max": 2, "log_alpha": 1.0, "thresholds": {"ratio_max": 1.0},
    })


def _determinism_configs():
    ens = {"profile": "wigner", "distribution": "bernoulli", "beta": 2}
    gauss = {"profile": "wigner", "distribution": "gaussian", "beta": 2}
    return {
        "locallaw-scan": {"ensemble": gauss, "sizes": [50, 100], "samples": 3},
        "rigidity": {"ensemble": ens, "n": 100, "samples": 2},
        "counting": {"ensemble": gauss, "n": 100, "samples": 2},
        "edge": {"ensemble": ens, "n": 100, "samples": 2},
        "dbm-gaps": {"ensemble": ens, "n": 100, "samples": 2, "times": [0.0, 0.5]},
        "moments-match": {"grid_count": 9, "gammas": [0.01], "mc_draws": 20000},
        "zmoments": {"ensemble": gauss, "n": 100, "z": [0.5, 0.05], "samples": 4},
        "correlations": {"ensemble": ens, "distribution_b": "gaussian", "n": 100, "samples": 3},
    }


def test_criterion_11_determinism(tmp_path):
    t0 = time.monotonic()
    all_ok = True
    mismatches = []
    for tag, body in _determinism_configs().items():
        doc = {"experiment": tag, "seed": DETERMINISM_SEED, **body}
        digests = []
        for workers in (1, 4):
            cfg = runner.parse_config(json.dumps(doc))
            cfg.workers = workers
            manifest = runner.run(cfg, str(tmp_path / f"{tag}-w{workers}"))
            digests.append(manifest.digests)
        if digests[0] != digests[1]:
            all_ok = False
            mismatches.append(tag)
    elapsed = time.monotonic() - t0
    detail = "all 8 experiments byte-identical at workers 1 vs 4" if all_ok else f"mismatch: {mismatches}"
    _record("11 determinism", all_ok, detail, elapsed, 600)


def _digest_table(runs) -> dict:
    """The manifest digests of each (name, config document, workers) run, with the
    artifact version and the BLAS build and numpy version they depend on."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, workers in runs:
            cfg = runner.parse_config(json.dumps(doc))
            cfg.workers = workers
            digests[name] = runner.run(cfg, str(pathlib.Path(tmp) / name)).digests
    return {
        "artifact_version": runner.ARTIFACT_VERSION,
        "blas": numpy_openblas().config,
        "numpy": np.__version__,
        "digests": digests,
    }


def determinism_digest_table() -> dict:
    """Criterion 11's runs at workers=1."""
    return _digest_table((tag, {"experiment": tag, "seed": DETERMINISM_SEED, **body}, 1)
                         for tag, body in _determinism_configs().items())


def workload_digest_table() -> dict:
    """The benchmark's workload configs at seed 1, on the default workers:
    a change that claims the same bytes must reproduce these."""
    return _digest_table((path.stem, {**json.loads(path.read_text()), "seed": WORKLOAD_SEED}, None)
                         for path in sorted(WORKLOADS.glob("*.json")))


def _check_pinned(path: pathlib.Path, table) -> None:
    # bytes may differ on another BLAS build or numpy; on the pinned build any
    # drift fails, and a new ARTIFACT_VERSION needs a regenerated table
    pinned = json.loads(path.read_text())
    blas, numpy_version = numpy_openblas().config, np.__version__
    if (blas, numpy_version) != (pinned["blas"], pinned["numpy"]):
        pytest.skip(f"digests pinned on {pinned['blas']!r} with numpy {pinned['numpy']}; "
                    f"this is {blas!r} with numpy {numpy_version}")
    assert runner.ARTIFACT_VERSION == pinned["artifact_version"], (
        f"ARTIFACT_VERSION is {runner.ARTIFACT_VERSION}, {path.name} is for {pinned['artifact_version']}: "
        "regenerate it with `PYTHONPATH=src python tests/test_acceptance.py`"
    )
    assert table()["digests"] == pinned["digests"]


def test_criterion_11_digests_match_the_pinned_table():
    _check_pinned(DIGESTS, determinism_digest_table)


def test_workload_digests_match_the_pinned_table():
    _check_pinned(WORKLOAD_DIGESTS, workload_digest_table)


def digest_changes(old: dict, new: dict) -> list:
    """(run, file, old digest, new digest) for each digest that new adds,
    drops or changes against old (None where a side has none), sorted."""
    keys = {(run, name) for table in (old, new) for run, files in table.items() for name in files}
    pairs = ((run, name, old.get(run, {}).get(name), new.get(run, {}).get(name)) for run, name in sorted(keys))
    return [change for change in pairs if change[2] != change[3]]


def test_digest_changes_lists_added_dropped_and_changed_digests():
    old = {"a": {"x.csv": "1", "y.csv": "2"}, "b": {"z.csv": "3"}}
    new = {"a": {"x.csv": "1", "y.csv": "4"}, "c": {"z.csv": "3"}}
    assert digest_changes(old, new) == [
        ("a", "y.csv", "2", "4"), ("b", "z.csv", "3", None), ("c", "z.csv", None, "3")]
    assert digest_changes(old, old) == []


if __name__ == "__main__":  # regenerate the pinned tables: PYTHONPATH=src python tests/test_acceptance.py
    for path, table in ((DIGESTS, determinism_digest_table), (WORKLOAD_DIGESTS, workload_digest_table)):
        fresh = table()
        # what the overwrite changes, so that a version bump can list it
        for run, name, before, after in digest_changes(json.loads(path.read_text())["digests"], fresh["digests"]):
            print(f"{path.name}: {run}/{name} {before} -> {after}")
        path.write_text(json.dumps(fresh, sort_keys=True, indent=1) + "\n")
