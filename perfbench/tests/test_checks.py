"""Each correctness check passes on real outputs and rejects a deliberately
corrupted copy of them. Run: python3 -m pytest perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pytest  # noqa: E402
import checks  # noqa: E402

CONFIGS = {
    "locallaw-scan": {"sizes": [60, 120], "samples": 2,
                      "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": 2}},
    "dbm-gaps": {"n": 300, "samples": 2, "times": [0.0, 0.1, 1.0],
                 "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": 1}},
    "moments-match": {"grid_count": 4, "gammas": [0.01, 0.1], "mc_draws": 1000},
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from rmt_locallaw import runner

    dirs = {}
    for exp, params in CONFIGS.items():
        d = tmp_path_factory.mktemp(exp)
        runner.run(runner.parse_config(json.dumps({"experiment": exp, "seed": 21, **params})), str(d))
        dirs[exp] = d
    return dirs


@pytest.fixture
def copy(outputs, tmp_path):
    def _copy(exp):
        d = tmp_path / exp
        shutil.copytree(outputs[exp], d)
        return str(d)

    return _copy


def _edit_cell(path, row, column, fn):
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cols = lines[head].rstrip("\n").split(",")
    cells = lines[head + 1 + row].rstrip("\n").split(",")
    k = cols.index(column)
    cells[k] = repr(fn(float(cells[k])))
    lines[head + 1 + row] = ",".join(cells) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _edit_manifest(outdir, exp, fn):
    path = os.path.join(outdir, f"{exp}.manifest.json")
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("exp", sorted(CONFIGS))
def test_checks_pass_on_real_outputs(outputs, exp):
    manifest = checks.read_manifest(str(outputs[exp]), exp)
    assert checks.check_digests(str(outputs[exp]), manifest) == []
    assert checks.CONTENT_CHECKS[exp](str(outputs[exp]), manifest) == []


@pytest.mark.parametrize("exp", sorted(CONFIGS))
def test_digest_check_rejects_changed_file(copy, exp):
    d = copy(exp)
    name = sorted(checks.read_manifest(d, exp)["digests"])[0]
    with open(os.path.join(d, name), "a") as fh:
        fh.write(" ")
    assert checks.check_digests(d, checks.read_manifest(d, exp))


def test_scan_check_rejects_wrong_m_err(copy):
    d = copy("locallaw-scan")
    _edit_cell(os.path.join(d, "locallaw-scan.csv"), 0, "m_err_norm", lambda v: v * (1 + 1e-4))
    problems = checks.check_scan(d, checks.read_manifest(d, "locallaw-scan"))
    assert any("spectral route" in p for p in problems)


def test_scan_check_rejects_large_mainseeq_residual(copy):
    d = copy("locallaw-scan")
    _edit_cell(os.path.join(d, "locallaw-scan.csv"), 1, "mainseeq_residual", lambda v: 2e-8)
    problems = checks.check_scan(d, checks.read_manifest(d, "locallaw-scan"))
    assert any("mainseeq_residual" in p for p in problems)


def test_dbm_check_rejects_changed_gap(copy):
    d = copy("dbm-gaps")
    _edit_cell(os.path.join(d, "dbm-gaps-t2.csv"), 0, "gap", lambda v: v + 5.0)
    problems = checks.check_dbm(d, checks.read_manifest(d, "dbm-gaps"))
    assert any(p.startswith("KS") for p in problems)


def test_dbm_check_rejects_wrong_ks_in_manifest(copy):
    d = copy("dbm-gaps")
    _edit_manifest(d, "dbm-gaps", lambda doc: doc["statistics"]["ks_matrix"].update({"t0-t1": 0.5}))
    problems = checks.check_dbm(d, checks.read_manifest(d, "dbm-gaps"))
    assert len(problems) == 1 and problems[0].startswith("KS t0-t1: manifest 0.5 != ks_2samp")


def test_dbm_check_rejects_unfolding_off_by_scale(copy):
    # scaling every pool alike leaves each KS distance unchanged, so only
    # the mean-gap check can see it
    d = copy("dbm-gaps")
    for i in range(3):
        path = os.path.join(d, f"dbm-gaps-t{i}.csv")
        rows = len(checks._rows(path))
        for r in range(rows):
            _edit_cell(path, r, "gap", lambda v: v * 1.05)
    problems = checks.check_dbm(d, checks.read_manifest(d, "dbm-gaps"))
    assert problems and all("mean unfolded bulk gap" in p for p in problems)


def test_moments_check_rejects_wrong_achieved_m3(copy):
    d = copy("moments-match")
    _edit_cell(os.path.join(d, "moments-match.csv"), 0, "achieved_m3", lambda v: v + 1e-9)
    problems = checks.check_moments(d, checks.read_manifest(d, "moments-match"))
    assert any("closed form" in p for p in problems) and any("dm3" in p for p in problems)


def test_moments_check_rejects_m4_gap_above_4_gamma(copy):
    d = copy("moments-match")
    path = os.path.join(d, "moments-match.csv")
    gamma = float(checks._rows(path)[0]["gamma"])
    _edit_cell(path, 0, "achieved_m4", lambda v: v + 5 * gamma)
    problems = checks.check_moments(d, checks.read_manifest(d, "moments-match"))
    assert any("4 gamma" in p for p in problems)


def test_moments_check_rejects_flipped_mc_ok(copy):
    d = copy("moments-match")
    path = os.path.join(d, "moments-match.csv")
    with open(path) as fh:
        text = fh.read()
    assert text.count(",True\n") == len(checks._rows(path))
    with open(path, "w") as fh:
        fh.write(text.replace(",True\n", ",False\n", 1))
    problems = checks.check_moments(d, checks.read_manifest(d, "moments-match"))
    assert problems == ["row 0: mc_ok False != recomputed True"]


def test_mc_moment_test_rejects_wrong_moment():
    import numpy as np

    draws = np.random.default_rng(5).standard_normal(200_000)
    assert checks.mc_moments_pass(draws, 0.0, 3.0, 5.0)
    assert not checks.mc_moments_pass(draws, 0.0, 3.2, 5.0)
    assert not checks.mc_moments_pass(draws, 0.3, 3.0, 5.0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moments-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
