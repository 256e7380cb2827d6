import contextlib
import csv
import errno
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _peak import traced_peak
from rmt_locallaw import locallaw, runner
from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile
from rmt_locallaw.errors import ConfigError
from rmt_locallaw.linalg import eigh
from rmt_locallaw.moments import MomentTarget, match_four_moments
from rmt_locallaw.runner import (
    RunManifest,
    main,
    moment_target_grid,
    parse_config,
    report,
    run,
)
from rmt_locallaw.seeding import derive_seed, generator


def minimal_config(**overrides):
    doc = {
        "experiment": "rigidity",
        "seed": 7,
        "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": 2},
        "n": 120,
        "samples": 2,
    }
    doc.update(overrides)
    return json.dumps(doc)


def config(experiment, **fields):
    return json.dumps({"experiment": experiment, "seed": 7, **fields})


INLINE_LAW = {"atoms": [[1.0, 0.5], [-1.0, 0.5]]}
UNNORMALIZED_LAW = {"atoms": [[1.0, 0.6], [-1.0, 0.5]]}
NAN = float("nan")

# bad configs, each with the key the error names; main runs each through its own subcommand.
# parse_config rejects each, except a power of n that overflows (a threshold,
# epsilon, eta_power, log_alpha) and a zmoments z outside D* or odd p_max,
# which fail where the experiment body computes them, before the first sample
BAD_VALUES = [
    (config("rigidity", samples=2), "'n'"),
    (minimal_config(n="abc"), "n must be"),
    (minimal_config(samples=0), "samples must be"),
    (config("moments-match", grid_count=0), "grid_count must be"),
    (minimal_config(ensemble={"profile": "band", "band_w": 121}), "ensemble.band_w must be"),
    (config("zmoments", n=50, z=[0.5], samples=2), "z must be"),
    (config("zmoments", n=50, z=[0.5, -0.1], samples=2), "z must be"),
    (config("locallaw-scan", sizes=[50], samples=1, eta_coeff=-1), "eta_coeff must be"),
    (minimal_config(ensemble={"distribution": UNNORMALIZED_LAW}), "ensemble.distribution: "),
    (config("correlations", n=50, samples=1, distribution_b={"matched": {"m3": 0, "m4": 0.5, "gamma": 0.1}}),
     "distribution_b: "),
    (config("correlations", n=50, samples=1, distribution_b={"matched": {"m3": 0}}), "distribution_b: missing key 'm4'"),
    (config("moments-match", grid_count=1, gammas=[0.1], mc_draws=0, report_sweep_m4_max=200),
     "unknown key 'report_sweep_m4_max'"),
    (config("locallaw-scan", sizes=[50], samples=1, variant="D"), "unknown key 'variant'"),
    (config("locallaw-scan", sizes=[50], samples=1, log_alpha=1.0), "unknown key 'log_alpha'"),
    (config("counting", n=20, samples=1, a_exponent=1), "unknown key 'a_exponent'"),
    (config("moments-match", grid_count=1, gammas=[1.0], mc_draws=0), "gammas must be"),
    (minimal_config(ensemble={"profile": "foo"}), "ensemble.profile must be"),
    (minimal_config(ensemble={"profile": "band", "band_shape": "foo"}), "ensemble.band_shape must be"),
    (config("moments-match", grid_count=1, gammas=[0.1], mc_draws=1), "mc_draws must be"),
    (config("moments-match", grid_count=1, gammas=[0.1], mc_draws=-3), "mc_draws must be"),
    (config("dbm-gaps", n=40, samples=1, times=[0, float("nan")]), "times must be"),
    (config("edge", n=40, samples=1, epsilon=float("nan")), "epsilon must be"),
    (config("dbm-gaps", n=40, samples=1, times=[0, -1]), "times must be"),
    (config("dbm-gaps", n=40, samples=1, times=[0, 10**400]), "times must be"),
    (config("locallaw-scan", sizes=[10], samples=1, e=10**400), "e must be a number"),
    (minimal_config(n=20, thresholds={"exponent": 1000}), "thresholds.exponent"),
    (config("counting", n=20, samples=1, thresholds={"power": 1000}), "thresholds.power"),
    (minimal_config(ensemble={"distribution": {"matched": {"m3": NAN, "m4": 3.0, "gamma": 0.1}}}),
     "ensemble.distribution: "),
    (config("correlations", n=50, samples=1, distribution_b={**INLINE_LAW, "atoms": [[NAN, 0.5], [-1.0, 0.5]]}),
     "distribution_b: "),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "atoms": [[2.0, 0.5], [-2.0, 0.5]]}}),
     "ensemble.distribution: "),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "gamma": 2}}),
     "ensemble.distribution: "),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "gamma": "0.5"}}),
     "ensemble.distribution: "),
    (config("edge", n=40, samples=1, ensemble={"distribution": {"atoms": [[10**400, 0.5], [-1.0, 0.5]]}}),
     "ensemble.distribution: "),
    (config("correlations", n=50, samples=1, distribution_b={"matched": {"m3": 10**400, "m4": 3, "gamma": 0.1}}),
     "distribution_b: "),
    (config("edge", n=40, samples=1, ensemble={"distribution": {"gamma": 0.5}}),
     "ensemble.distribution: missing key 'atoms'"),
    # the old inline form: kind, moments, id and schema are not law keys
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "kind": "bogus"}}),
     "unknown key 'kind' at ensemble.distribution"),
    (config("edge", n=40, samples=1, ensemble={"distribution": {"kind": "gaussian", "m3": 0.7, "m4": 2.0}}),
     "unknown key 'kind' at ensemble.distribution"),
    (config("edge", n=40, samples=1, ensemble={"distribution": {"kind": "bernoulli", "atoms": [[2, 0.5], [-2, 0.5]]}}),
     "unknown key 'kind' at ensemble.distribution"),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "kind": "discrete-atoms", "gamma": 0.5}}),
     "unknown key 'kind' at ensemble.distribution"),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "m3": 0.0}}),
     "unknown key 'm3' at ensemble.distribution"),
    (config("correlations", n=50, samples=1, distribution_b={**INLINE_LAW, "dist_id": "bernoulli"}),
     "unknown key 'dist_id' at distribution_b"),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "schema": "entry-distribution"}}),
     "unknown key 'schema' at ensemble.distribution"),
    (config("edge", n=40, samples=1, ensemble={"distribution": {**INLINE_LAW, "bogus_key": 5}}),
     "unknown key 'bogus_key' at ensemble.distribution"),
    (config("correlations", n=50, samples=1, distribution_b={"matched": {"m3": 0, "m4": 3, "gamma": 0.1, "m5": 1}}),
     "unknown key 'm5' at distribution_b.matched"),
    (config("correlations", n=50, samples=1, distribution_b={"matched": {"m3": 0, "m4": 3, "gamma": 0.1}, "kind": "x"}),
     "unknown key 'kind' at distribution_b"),
    (config("zmoments", n=50, z=[0.5, 0.1], samples=1), "samples must be an integer >= 2"),
    (config("locallaw-scan", sizes=[60, 60], samples=1), "sizes must be"),
    (config("dbm-gaps", n=40, samples=1, times=[0.5, 0.5]), "times must be"),
    (config("dbm-gaps", n=40, samples=1, times=[0, 0.0]), "times must be"),
    (config("edge", n=40, samples=1, epsilon=1000), "epsilon makes"),
    (config("locallaw-scan", sizes=[50], samples=1, eta_power=1000), "eta_power makes"),
    (config("zmoments", n=50, z=[0.5, 0.05], samples=2, log_alpha=1000), "log_alpha = 1000"),
    (config("zmoments", n=50, z=[0.5, 0.05], samples=2, p_max=8, log_alpha=60), "log_alpha = 60"),
    (config("zmoments", n=50, z=[0.5, 0.05], samples=2, log_alpha=-1000), "log_alpha = -1000"),
    (config("zmoments", n=50, z=[0.5, 0.001], samples=2), "z=(0.5+0.001j) fails the D_star"),
    (config("zmoments", n=50, z=[0.5, 0.05], samples=2, p_max=3), "p_max must be"),
    (config("zmoments", n=50, z=[0.5, 0.05], samples=2, p_max=10), "p_max must be"),
    *((minimal_config(thresholds=value), "thresholds must be an object") for value in ([], 0, False, "", None)),
    # distinct times whose labels f"{t:g}" coincide
    (config("dbm-gaps", n=40, samples=1, times=[0, 0.1, 0.1000001]), "times must be"),
    (minimal_config(ensemble={"profile": "wigner", "band_w": 5, "band_shape": "gaussian"}), "ensemble.band_w applies"),
    (minimal_config(ensemble={"band_shape": "gaussian"}), "ensemble.band_shape applies"),
    (config("dbm-gaps", n=40, samples=1, kappa_cut=2.5), "kappa_cut must be"),
    (config("correlations", n=50, samples=1, distribution_b="gaussian", kappa_cut=0), "kappa_cut must be"),
    (minimal_config(ensemble={"beta": 3}), "ensemble.beta must be 1 or 2"),
    # an n whose n x n complex array passes numpy's size limit (16 n^2 >= 2^63); parsed only
    *((config(tag, **doc, n=n), "n must be an integer >= 1 and <= 759250124")
      for n in (759250125, 3_000_000_000, 10**20, 10**400)
      for tag, doc in (("rigidity", {"samples": 1}), ("edge", {"samples": 1}), ("dbm-gaps", {"samples": 1}),
                       ("zmoments", {"z": [0.5, 0.05], "samples": 2}),
                       ("correlations", {"samples": 1, "distribution_b": "gaussian"}))),
    (config("locallaw-scan", sizes=[50, 10**20], samples=1), "sizes must be a non-empty list of distinct integers"),
    (config("locallaw-scan", sizes=[759250125], samples=1), "<= 759250124"),
]


def _no_sampling(*args):
    raise AssertionError("a sample was drawn before the config was rejected")


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(
        json.dumps(
            {
                "experiment": "locallaw-scan",
                "seed": 1,
                "ensemble": {"distribution": "gaussian"},
                "sizes": [50],
                "samples": 2,
            }
        )
    )
    assert cfg.params["e"] == 0.0
    assert cfg.params["eta_power"] == -0.8
    assert cfg.thresholds["median_meta_m_err_max"] == 10.0


def test_parse_rejects_typo_key(tmp_path, monkeypatch):
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(samplse=3))
    assert "samplse" in str(err.value)
    monkeypatch.setattr(runner, "sample_matrix", _no_sampling)
    monkeypatch.setattr(locallaw, "sample_matrix", _no_sampling)
    for text, key in BAD_VALUES:
        with pytest.raises(ConfigError) as err:
            run(parse_config(text), str(tmp_path / "out"))
        assert key in str(err.value)
    assert not (tmp_path / "out").exists()


def test_scan_checks_every_size_before_the_first_sample(tmp_path, monkeypatch):
    # n = 50 is in D, n = 1000 is not: the scan must not sample n = 50 first
    calls = []
    monkeypatch.setattr(locallaw, "sample_matrix", lambda *args: calls.append(args))
    cfg = parse_config(config("locallaw-scan", sizes=[50, 1000], samples=1, eta_coeff=3, eta_power=-1.2))
    with pytest.raises(ConfigError, match="fails the D domain condition"):
        run(cfg, str(tmp_path / "out"))
    assert len(calls) == 0


def test_scan_draws_each_sample_once_from_its_size_seed(monkeypatch, tmp_path):
    seeds = []

    def counted(*args):
        seeds.append(args[3])
        return sample_matrix(*args)

    monkeypatch.setattr(locallaw, "sample_matrix", counted)
    run(parse_config(config("locallaw-scan", sizes=[30, 40], samples=3)), str(tmp_path / "out"))
    assert sorted(seeds) == sorted(derive_seed(derive_seed(7, "scan", n), si) for n in (30, 40) for si in range(3))


def test_every_value_kind_is_reached_by_a_key():
    tables = [runner._COMMON, runner._ENSEMBLE, *(entry.keys for entry in runner._REGISTRY.values())]
    reached = {kind for table in tables for kind, _default in table.values()}
    assert reached - {None} == set(runner._KINDS)


def test_the_largest_n_is_the_last_whose_complex_array_numpy_can_address():
    n_max = runner._N_MAX
    assert 16 * n_max**2 < 2**63 <= 16 * (n_max + 1) ** 2
    # parsed only: no array of that size is made
    assert parse_config(minimal_config(n=n_max)).params["n"] == n_max
    assert parse_config(config("locallaw-scan", sizes=[50, n_max], samples=1)).params["sizes"] == [50, n_max]


def test_parse_rejects_unknown_experiment_and_bad_json():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"experiment": "spectra", "seed": 1}))
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config('{"experiment": "edge", "seed": 1, "n": 40, "samples": 1, "epsilon": ' + "9" * 5000 + "}")
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"experiment": "rigidity"}))  # missing seed


def test_parse_rejects_bad_ensemble_and_thresholds():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({
            "experiment": "rigidity", "seed": 1, "n": 10, "samples": 1,
            "ensemble": {"distribucion": "gaussian"},
        }))
    assert "ensemble" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(json.dumps({
            "experiment": "rigidity", "seed": 1, "n": 10, "samples": 1,
            "ensemble": {"distribution": "cauchy"},
        }))
    with pytest.raises(ConfigError):
        parse_config(minimal_config(thresholds={"exponnet": -0.2}))
    with pytest.raises(ConfigError):
        parse_config(minimal_config(workers=0))


def test_config_roundtrip():
    cfg = parse_config(minimal_config(thresholds={"exponent": -0.2}))
    again = parse_config(cfg.to_json())
    assert again == cfg
    assert json.loads(cfg.to_json())["thresholds"]["exponent"] == -0.2


def test_run_is_deterministic_across_worker_counts(tmp_path):
    cfg = parse_config(minimal_config())
    m1 = run(cfg, str(tmp_path / "a"))
    cfg2 = parse_config(minimal_config())
    cfg2.workers = 4
    m2 = run(cfg2, str(tmp_path / "b"))
    assert m1.digests == m2.digests
    assert m1.all_passed
    # rerun in place reproduces the same bytes
    m3 = run(parse_config(minimal_config()), str(tmp_path / "a"))
    assert m3.digests == m1.digests


def test_run_writes_manifest_and_outputs(tmp_path):
    cfg = parse_config(minimal_config())
    manifest = run(cfg, str(tmp_path))
    assert (tmp_path / "rigidity.csv").exists()
    assert (tmp_path / "rigidity.summary.json").exists()
    loaded = RunManifest.from_json((tmp_path / "rigidity.manifest.json").read_text())
    assert loaded.digests == manifest.digests
    assert loaded.acceptance == manifest.acceptance
    assert not any(name.startswith(".tmp-rmt-") for name in os.listdir(tmp_path))


def test_manifest_environment_is_kept_out_of_digested_files(tmp_path, monkeypatch):
    cfg = parse_config(minimal_config(workers=3))
    m1 = run(cfg, str(tmp_path / "a"))
    env = m1.environment
    assert env["blas_threads"] == 1 and env["workers"] == 3 and env["affinity_cores"] >= 1
    assert env["numpy"] == np.__version__ and env["blas"]
    assert env["lapack"]["resolvent"] == "zgetrf+zgetri"
    assert set(env["timings"]) == {"experiment", "writes"}
    for stage in env["timings"].values():
        assert set(stage) == {"wall_s", "cpu_s"} and all(v >= 0.0 for v in stage.values())
    assert env["timings"]["experiment"]["wall_s"] + env["timings"]["writes"]["wall_s"] <= m1.wall_clock_s
    assert env["peak_rss_mb"] > 1.0
    monkeypatch.setattr(runner, "_environment", lambda cfg, timings: {})
    m2 = run(cfg, str(tmp_path / "b"))
    assert m2.digests == m1.digests and m2.environment == {}
    for name in m1.digests:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    doc = json.loads((tmp_path / "a" / "rigidity.manifest.json").read_text())
    assert doc["environment"] == env
    del doc["environment"]
    with pytest.raises(ConfigError, match="manifest has no key 'environment'"):
        RunManifest.from_json(json.dumps(doc))


def test_report_table(tmp_path):
    cfg = parse_config(minimal_config())
    m = run(cfg, str(tmp_path))
    text = report([m])
    (c,) = m.clauses
    header, row, overall = text.splitlines()
    assert header.split() == ["experiment", "clause", "value", "threshold", "margin", "status", "runtime"]
    assert row.split()[:7] == ["rigidity", "all_below_threshold", f"{c['value']:.4g}", "<", f"{c['threshold']:.4g}",
                               f"{c['margin']:+.4g}", "PASS"]
    assert overall == "overall: PASS"
    # one row per clause
    failing = RunManifest(
        experiment="edge", config={}, artifact_version="0", wall_clock_s=0.1,
        digests={}, acceptance={"x": False, "y": True}, statistics={}, environment={},
        clauses=[{"name": "x", "value": 1.0, "op": "<", "threshold": 0.5, "margin": -0.5},
                 {"name": "y", "value": 0.0, "op": ">=", "threshold": 0.0, "margin": 0.0}],
    )
    mixed = report([m, failing]).splitlines()
    assert [line.split() for line in mixed[2:4]] == [["edge", "x", "1", "<", "0.5", "-0.5", "FAIL", "0.1s"],
                                                     ["edge", "y", "0", ">=", "0", "+0", "PASS", "0.1s"]]
    assert mixed[-1] == "overall: FAIL"
    with pytest.raises(ConfigError):
        report([])


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config())
    out = tmp_path / "out"
    assert main(["rigidity", "-c", str(cfg_path), "-o", str(out)]) == 0
    assert "overall: PASS" in capsys.readouterr().out

    # mismatched subcommand
    assert main(["edge", "-c", str(cfg_path), "-o", str(out)]) == 2

    # grid point below the eta floor: config error, offending z named
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "experiment": "locallaw-scan",
                "seed": 3,
                "ensemble": {"distribution": "gaussian"},
                "sizes": [100],
                "eta_coeff": 0.001,
                "eta_power": -1.0,
                "samples": 1,
            }
        )
    )
    assert main(["locallaw-scan", "-c", str(bad), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "1e-05" in err

    assert main(["rigidity", "-c", str(tmp_path / "missing.json"), "-o", str(out)]) == 2

    # a config that is not UTF-8: one line naming the file, and no output directory
    never = tmp_path / "never"
    bad.write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    assert main(["rigidity", "-c", str(bad), "-o", str(never)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error") and str(bad) in err
    assert not never.exists()

    # --workers takes the config key's check
    for workers in ("0", "-3"):
        capsys.readouterr()
        assert main(["rigidity", "-c", str(cfg_path), "-o", str(out), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error") and "--workers must be" in err

    # bad keys, values and laws: one line naming the key, and no output directory
    for text, key in BAD_VALUES:
        bad.write_text(text)
        capsys.readouterr()
        assert main([json.loads(text)["experiment"], "-c", str(bad), "-o", str(never)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error") and key in err
        assert not never.exists()


def test_main_reports_running_out_of_memory_in_one_line(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config())

    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type complex128")

    monkeypatch.setitem(runner._REGISTRY, "rigidity", runner._REGISTRY["rigidity"]._replace(body=out_of_memory))
    assert main(["rigidity", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type complex128\n"


def _echo_and_csv(tmp_path, name: str, doc: dict) -> tuple:
    out = tmp_path / name
    run(parse_config(json.dumps(doc)), str(out))
    return json.loads((out / "rigidity.summary.json").read_text())["config"], (out / "rigidity.csv").read_bytes()


def test_a_config_without_an_ensemble_samples_the_default_one(tmp_path):
    doc = {"experiment": "rigidity", "seed": 7, "n": 60, "samples": 2}
    echo, csv_bytes = _echo_and_csv(tmp_path, "default", doc)
    stated = {"profile": "wigner", "distribution": "gaussian", "beta": 2}
    echo_stated, csv_stated = _echo_and_csv(tmp_path, "stated", {**doc, "ensemble": stated})
    assert csv_bytes == csv_stated
    assert "ensemble" not in echo and echo_stated["ensemble"] == stated


@pytest.mark.parametrize("n", [60, 7])
def test_a_band_without_width_or_shape_is_an_eighth_of_n_wide_and_a_box(tmp_path, n):
    doc = {"experiment": "rigidity", "seed": 7, "n": n, "samples": 2}
    band = {"profile": "band", "distribution": "bernoulli"}
    _, csv_bytes = _echo_and_csv(tmp_path, "default", {**doc, "ensemble": band})
    stated = {**band, "band_w": max(1, n // 8), "band_shape": "box"}
    _, csv_stated = _echo_and_csv(tmp_path, "stated", {**doc, "ensemble": stated})
    assert csv_bytes == csv_stated


def test_main_rejects_an_output_path_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config())
    afile = tmp_path / "afile"
    afile.write_text("kept")
    monkeypatch.setattr(runner, "sample_matrix", _no_sampling)  # rejected before the experiment runs
    for out in (afile, afile / "sub"):
        capsys.readouterr()
        assert main(["rigidity", "-c", str(cfg_path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("output error") and str(afile) in err
    assert afile.read_text() == "kept"


def test_main_reports_a_failed_write_in_one_line(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config())
    out = tmp_path / "out"

    def full_disk(path, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(runner, "_atomic_write", full_disk)
    assert main(["rigidity", "-c", str(cfg_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("output error") and str(out) in err


def test_outputs_follow_the_umask(tmp_path):
    cfg = parse_config(minimal_config())
    for umask, want in ((0o022, 0o644), (0o027, 0o640)):
        out = tmp_path / f"out-{umask:o}"
        earlier = os.umask(umask)
        try:
            run(cfg, str(out))
        finally:
            os.umask(earlier)
        modes = {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in os.listdir(out)}
        assert len(modes) == 3 and set(modes.values()) == {want}, modes


def test_inline_law_needs_only_the_schema_fields(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config("edge", n=40, samples=2, ensemble={"distribution": INLINE_LAW}))
    assert main(["edge", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_inline_law_with_gamma_samples_the_gaussian_divisible_law(tmp_path):
    law = runner._resolve_distribution({**INLINE_LAW, "gamma": 0.5}, "law")
    assert (law.kind, law.gamma, law.dist_id) == ("gaussian-divisible", 0.5, "gaussian-divisible")
    # sqrt(1/2) (+-1) + sqrt(1/2) N(0, 1) has m4 = (1/4) 1 + 6/2 - 3/4 = 2.5, and no atom at +-1
    x = law.sample(generator(12), 400_000)
    assert not np.any(np.abs(x) == 1.0)
    m4 = x**4
    assert abs(m4.mean() - 2.5) <= 5 * m4.std(ddof=1) / np.sqrt(x.size)
    # a run with the gamma differs from the same atoms without it
    csvs = []
    for spec in (INLINE_LAW, {**INLINE_LAW, "gamma": 0.5}):
        run(parse_config(config("edge", n=40, samples=2, ensemble={"distribution": spec})), str(tmp_path / "o"))
        csvs.append((tmp_path / "o" / "edge.csv").read_bytes())
    assert csvs[0] != csvs[1]


@pytest.mark.parametrize("doc", [
    {"experiment": "dbm-gaps", "seed": 1, "n": 2, "samples": 1},
    {"experiment": "correlations", "seed": 1, "n": 1, "samples": 2, "distribution_b": "gaussian"},
])
def test_main_rejects_an_empty_gap_pool_in_one_line(tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([doc["experiment"], "-c", str(cfg_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: gap pool ")
    assert f"is empty: at n = {doc['n']} and kappa_cut = 0.5" in err
    assert not out.exists()


def test_python_m_runs_the_cli_without_warnings(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config("edge", n=40, samples=2, ensemble={"distribution": "bernoulli"}))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(runner.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "rmt_locallaw", "edge", "-c", str(cfg_path), "-o", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert "overall: PASS" in proc.stdout


def test_python_m_runner_runs_the_experiment(tmp_path):
    """The older spelling `python -m rmt_locallaw.runner` runs the same CLI: it
    never exits 0 without having written the output directory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config("edge", n=40, samples=2, ensemble={"distribution": "bernoulli"}))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(runner.__file__).resolve().parents[1])}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "rmt_locallaw.runner", "edge", "-c", str(cfg_path), "-o", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode != 0 or (out / "edge.manifest.json").is_file()
    assert proc.returncode == 0 and proc.stderr == ""


def test_main_report_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config())
    out = tmp_path / "out"
    main(["rigidity", "-c", str(cfg_path), "-o", str(out)])
    capsys.readouterr()
    code = main(["report", str(out / "rigidity.manifest.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out

    # a file that is not a manifest, or whose verdicts cannot be trusted: one line naming the key or the problem
    good = json.loads((out / "rigidity.manifest.json").read_text())
    path = tmp_path / "m.json"
    (clause,) = good["clauses"]
    unbacked = "manifest key 'clauses' must name each 'acceptance' key once"
    for data, message in [
        # a manifest written before clauses were recorded, with the headline it had then
        (json.dumps({**{k: v for k, v in good.items() if k != "clauses"}, "headline": {"statistic": "s"}}).encode(),
         "manifest has no key 'clauses'"),
        (json.dumps({**good, "clauses": []}).encode(), unbacked),
        # a verdict no clause backs, beside two copies of the clause that backs the other
        (json.dumps({**good, "acceptance": {"all_below_threshold": True, "y": True},
                     "clauses": [clause, clause]}).encode(), unbacked),
        (json.dumps({**good, "clauses": [clause, clause]}).encode(), unbacked),
        (b'{"experiment": "rigidity"}', "manifest has no key 'config'"),
        (b"[1, 2]", "manifest must be a JSON object"),
        (json.dumps({"experiment": "edge", "config": {}, "artifact_version": "0", "wall_clock_s": "1s", "digests": {},
                     "acceptance": {}, "statistics": {}}).encode(), "manifest key 'wall_clock_s' has the wrong type"),
        (b"{not json", "manifest is not valid JSON"),
        (b'{"experiment": "edge", "wall_clock_s": ' + b"9" * 5000 + b"}", "manifest is not valid JSON"),
        (b"\xff\xfe{", f"{path} is not UTF-8 text"),
        (json.dumps({**good, "wall_clock_s": float("nan")}).encode(), "manifest key 'wall_clock_s' must be a finite"),
        (json.dumps({**good, "acceptance": {}}).encode(), "manifest key 'acceptance' must map"),
        (json.dumps({**good, "acceptance": {"all_below_threshold": "no"}}).encode(), "manifest key 'acceptance' must"),
        (json.dumps({**good, "clauses": {}}).encode(), "manifest key 'clauses' has the wrong type"),
        *((json.dumps({**good, "clauses": [bad]}).encode(), "manifest key 'clauses' has a malformed entry")
          for bad in [
              1, {**clause, "op": "=="}, {**clause, "op": ["<"]}, {**clause, "name": ["x"]},
              {k: v for k, v in clause.items() if k != "margin"}, {**clause, "extra": 1},
              {**clause, "value": "0.1"}, {**clause, "value": True}, {**clause, "threshold": float("inf")},
              {**clause, "margin": -clause["margin"]},  # a margin its value and threshold do not give
              {**clause, "op": ">="},  # a comparison that gives the opposite of the recorded verdict
              {**clause, "name": "x"},  # a clause with no verdict
          ]),
    ]:
        path.write_bytes(data)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ") and message in captured.err


def _dense_power_stats(draws):
    """The whole-array form of the Monte Carlo moment check."""
    out = []
    power = draws * draws
    for _ in range(2):
        power *= draws
        out.append((float(np.mean(power)), float(np.std(power, ddof=1) / np.sqrt(draws.size))))
    return out


@pytest.mark.parametrize("size", [2, 2000, 1_000_000])
def test_streamed_moment_check_matches_the_dense_form(size):
    for k, (m3, m4) in enumerate([(0.0, 3.0), (0.9, 5.0), (-1.2, 2.5)]):
        law = match_four_moments(MomentTarget(m3, m4), 0.01)
        chunks = list(law.to_distribution().draw_chunks(generator(11, "mc", size, k), size))
        draws = np.concatenate(chunks)
        streamed, dense = runner._mc_power_stats(chunks), _dense_power_stats(draws)
        for (mean, se), (mean_d, se_d), target in zip(streamed, dense, (law.achieved_m3, law.achieved_m4)):
            assert se > 0 and se_d > 0
            z, z_d = abs(mean - target) / se, abs(mean_d - target) / se_d
            assert z == pytest.approx(z_d, rel=1e-9)
            for sigma in (0.5, 1.0, 2.0, 5.0):
                assert (abs(mean - target) <= sigma * se) == (abs(mean_d - target) <= sigma * se_d)
        assert (runner._mc_slack(law, chunks, 5.0) <= 0) == all(
            abs(m - t) <= 5.0 * e for (m, e), t in zip(dense, (law.achieved_m3, law.achieved_m4))
        )


def _mc_check_peak(draws: int) -> int:
    law = match_four_moments(MomentTarget(0.9, 5.0), 0.01)
    return traced_peak(lambda: runner._mc_slack(
        law, law.to_distribution().draw_chunks(generator(12, "mc"), draws), 5.0))


def test_moment_check_holds_one_chunk_and_an_atom_index():
    # a draw costs its one-byte atom index; an array of the draws would cost
    # 8 bytes a draw, 7.6 MiB at 10^6
    peak = _mc_check_peak(1_000_000)
    assert peak < 6 * 2**20
    assert _mc_check_peak(4_000_000) - peak < 2 * 3_000_000


def _dbm_gaps_peak(n: int, beta: int) -> int:
    cfg = parse_config(json.dumps({
        "experiment": "dbm-gaps", "seed": 1, "n": n, "samples": 1, "workers": 1, "times": [0.0, 0.1, 1.0],
        "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": beta},
    }))
    return traced_peak(lambda: runner._exp_dbm_gaps(cfg))


@pytest.mark.parametrize("beta", [1, 2])
def test_dbm_gaps_job_holds_three_matrices_and_row_blocks(beta):
    # h0, v and the buffer that holds each h_t for the eigensolver, plus
    # 64-row blocks; one more n x n array of the job's dtype (a product, or a
    # copy for LAPACK), or a flat profile's n x n variances, would break the bound
    _dbm_gaps_peak(64, beta)  # the first run imports modules (numpy.ma), whose objects would count
    n = 600
    assert _dbm_gaps_peak(n, beta) < 3 * 8 * beta * n * n + 4 * 8 * 64 * n


def _diagnostics_job_peak(n: int, beta: int) -> int:
    def job():
        p = wigner_profile(n)
        return locallaw.sample_map(p, catalog_distribution("bernoulli"), beta, 1, (), 1,
                                   lambda _seed, h: locallaw.diagnostics(h, p, complex(0.3, n**-0.8)).upsilon_max, 1)

    return traced_peak(job)


def test_diagnostics_job_holds_its_sample_its_resolvent_and_row_blocks():
    # G at 16 n^2 bytes, formed in the sample's own buffer for beta = 2 once
    # H is packed into 8 n^2, and beside the real H for beta = 1; plus
    # zgetri's work array and 64-row blocks. A copy of a complex H, or the
    # flat profile's n x n variances, would break it
    _diagnostics_job_peak(64, 2)
    n = 600
    for beta in (1, 2):
        assert _diagnostics_job_peak(n, beta) < 24 * n * n + 2 * 16 * 64 * n


def _rigidity_job_peak(n: int, beta: int) -> int:
    cfg = parse_config(json.dumps({
        "experiment": "rigidity", "seed": 1, "n": n, "samples": 1, "workers": 1,
        "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": beta},
    }))
    return traced_peak(lambda: runner._exp_rigidity(cfg))


@pytest.mark.parametrize("beta", [1, 2])
def test_eigenvalue_job_holds_its_sample_and_row_blocks(beta):
    # LAPACK works in the sample's own buffer, and the sampler's 64-row
    # blocks add 3-5 n^2 bytes at n = 600; the copy LAPACK took of a
    # read-only sample made about 2 x 8 beta n^2
    _rigidity_job_peak(64, beta)
    n = 600
    assert _rigidity_job_peak(n, beta) < 1.5 * 8 * beta * n * n


@pytest.mark.parametrize("profile, a_exp", [({"profile": "wigner"}, 1),
                                            ({"profile": "band", "band_w": 8, "band_shape": "triangle"}, 2)])
def test_counting_takes_its_edge_exponent_from_the_profile(tmp_path, profile, a_exp):
    # a triangle band profile has zero variances off its band, so A = 2
    ens = {**profile, "distribution": "bernoulli", "beta": 2}
    n, samples = 60, 2
    cfg = parse_config(config("counting", n=n, samples=samples, ensemble=ens))
    m = run(cfg, str(tmp_path))
    p = runner._ensemble(cfg, n)[0]
    spectra = [eigh(sample_matrix(p, catalog_distribution("bernoulli"), 2, derive_seed(7, "counting", si)),
                    compute_vectors=False) for si in range(samples)]
    assert p.edge_exponent_a == a_exp and m.statistics["a_exponent"] == a_exp
    assert m.statistics["values"] == [locallaw.counting_gap(lam, a_exp) for lam in spectra]
    assert m.statistics["values"] != [locallaw.counting_gap(lam, 3 - a_exp) for lam in spectra]


def test_moment_target_grid_is_feasible_and_capped():
    targets = moment_target_grid(100, [0.001, 0.01, 0.1])
    assert len(targets) == 100
    for t in targets:
        assert t.m4 <= 10.0
        assert t.m4 - t.m3**2 - 1.0 >= 0.0


_BAND = {"profile": "band", "band_w": 8, "band_shape": "triangle", "distribution": "bernoulli", "beta": 2}
_GAUSS = {"profile": "wigner", "distribution": "gaussian", "beta": 2}

# one small valid config per experiment tag; the fuzz test below mutates one key of it
FUZZ_CONFIGS = {
    "locallaw-scan": {"ensemble": _GAUSS, "sizes": [30, 40], "samples": 2},
    "rigidity": {"ensemble": _BAND, "n": 40, "samples": 2},
    "counting": {"ensemble": _GAUSS, "n": 40, "samples": 2},
    "edge": {"ensemble": _BAND, "n": 40, "samples": 2, "epsilon": 0.05},
    "dbm-gaps": {"ensemble": _BAND, "n": 40, "samples": 2, "times": [0.0, 0.5], "kappa_cut": 0.5},
    "moments-match": {"grid_count": 4, "gammas": [0.01, 0.1], "mc_draws": 2000},
    "zmoments": {"ensemble": _GAUSS, "n": 40, "z": [0.0, 0.3], "samples": 2, "p_max": 2},
    "correlations": {"ensemble": _BAND, "distribution_b": "gaussian", "n": 40, "samples": 2, "kappa_cut": 0.5},
}
FUZZ_VALUES = [None, "", [], {}, -1, 0, 1, 1.0, 0.5, "abc", [0.5, -0.1]]
_DROP = object()
# drawn integers stay at most 40, and at most these for the keys that set the run's size
_INT_MAX = {"samples": 3, "workers": 2}
# Monte Carlo sizes: never dropped (their defaults take long) and never enlarged
_MC_SIZES = {"mc_draws", "grid_count"}


@pytest.mark.parametrize("tag", sorted(FUZZ_CONFIGS))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_main_exit_code_is_total_on_mutated_configs(tag, data):
    doc = json.loads(json.dumps({"experiment": tag, "seed": 7, "workers": 2, **FUZZ_CONFIGS[tag]}))
    paths = [(key,) for key in doc] + [("ensemble", key) for key in doc.get("ensemble", {})]
    int_max = {**_INT_MAX, **{key: doc[key] for key in _MC_SIZES if key in doc}}
    keys = {**runner._COMMON, **runner._REGISTRY[tag].keys}
    required = {key for key, (_kind, default) in keys.items() if default is runner._REQUIRED} - _MC_SIZES
    fixed = [(path, value) for path in paths for value in FUZZ_VALUES] + [((key,), _DROP) for key in required]
    ints = st.sampled_from(paths).flatmap(
        lambda path: st.tuples(st.just(path), st.integers(-3, int_max.get(path[-1], 40))))
    path, value = data.draw(st.one_of(st.sampled_from(fixed), ints))
    holder = doc if len(path) == 1 else doc["ensemble"]
    if value is _DROP:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([tag, "-c", cfg_path, "-o", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _clauses_from_outputs(tag: str, out: pathlib.Path) -> dict:
    """name -> (value, op, threshold, verdict) of each clause of a run, recomputed
    from its summary statistics and CSV files. The verdict is taken row by row
    (all rows below the bound), apart from the clause's max or min. The Monte
    Carlo clause's value is in no file (None); its verdict is the CSV's mc_ok."""
    summary = json.loads((out / f"{tag}.summary.json").read_text())
    st, thr = summary["statistics"], summary["config"]["thresholds"]
    if tag == "locallaw-scan":
        meta, ld = st["median_meta_m_err"].values(), st["median_sqrt_meta_lambda_d"].values()
        return {
            "median_meta_m_err": (max(meta), "<", thr["median_meta_m_err_max"],
                                  all(v < thr["median_meta_m_err_max"] for v in meta)),
            "flatness": (st["flatness_ratio"], "<", thr["flatness_ratio_max"],
                         st["flatness_ratio"] < thr["flatness_ratio_max"]),
            "median_sqrt_meta_lambda_d": (max(ld), "<", thr["median_sqrt_meta_lambda_d_max"],
                                          all(v < thr["median_sqrt_meta_lambda_d_max"] for v in ld)),
        }
    if tag == "rigidity":
        values = [float(r["sum_sq_dev"]) for r in _csv_rows(out / "rigidity.csv")]
        return {"all_below_threshold": (max(values), "<", st["threshold"], all(v < st["threshold"] for v in values))}
    if tag == "counting":
        passed = [r["passed"] == "True" for r in _csv_rows(out / "counting.csv")]
        fraction = sum(passed) / len(passed)
        return {"pass_fraction": (fraction, ">=", thr["min_pass_fraction"], fraction >= thr["min_pass_fraction"])}
    if tag == "edge":
        rows = _csv_rows(out / "edge.csv")
        low = min(min(float(r["lower_margin"]), float(r["upper_margin"])) for r in rows)
        return {"all_contained": (low, ">=", 0.0, all(r["passed"] == "True" for r in rows))}
    if tag == "dbm-gaps":
        worst, smallest = max(st["ks_matrix"].values(), default=0.0), min(st["pooled_gaps"].values())
        return {
            "pairwise_ks": (worst, "<", thr["ks_max"], worst < thr["ks_max"]),
            "pooled_gap_count": (smallest, ">=", thr["min_gaps"],
                                 all(c >= thr["min_gaps"] for c in st["pooled_gaps"].values())),
            "ou_coefficient_identity": (st["ou_coefficient_residual"], "<", 1e-15,
                                        st["ou_coefficient_residual"] < 1e-15),
        }
    if tag == "moments-match":
        rows = [{k: float(v) if k != "mc_ok" else v == "True" for k, v in r.items()}
                for r in _csv_rows(out / "moments-match.csv")]
        bound = [thr["m4_gap_coeff"] * r["gamma"] + 1e-12 for r in rows]
        return {
            "m3_exact": (max(r["m3_err"] for r in rows), "<=", thr["m3_tol"],
                         all(r["m3_err"] <= thr["m3_tol"] for r in rows)),
            "m4_within_4gamma": (max(r["m4_gap"] - b for r, b in zip(rows, bound)), "<=", 0.0,
                                 all(r["m4_gap"] <= b for r, b in zip(rows, bound))),
            "mc_moments": (None, "<=", 0.0, all(r["mc_ok"] for r in rows)),
        }
    if tag == "zmoments":
        (ratio,) = [r["ratio"] for r in st["rows"] if r["p"] == 2]
        return {"p2_ratio_below_max": (ratio, "<", thr["ratio_max"], ratio < thr["ratio_max"])}
    assert tag == "correlations"
    return {"gap_cdf_ks": (st["ks"], "<", thr["ks_max"], st["ks"] < thr["ks_max"])}


_SPARSE_LAW = {"atoms": [[-10.0, 0.005], [0.0, 0.99], [10.0, 0.005]]}  # m4 = 100
# per tag, config changes that make the named clause fail: a threshold past the
# value it bounds; edge has no threshold key, so its allowance n^(-1/6+epsilon)
# goes to 0 and a sparse law puts the spectrum past +-2
FAILING = {
    "locallaw-scan": ("median_meta_m_err", {"thresholds": {"median_meta_m_err_max": 0.0}}),
    "rigidity": ("all_below_threshold", {"thresholds": {"exponent": -5.0}}),
    "counting": ("pass_fraction", {"thresholds": {"coeff": 0.0}}),
    "edge": ("all_contained", {"epsilon": -100, "ensemble": {"profile": "wigner", "distribution": _SPARSE_LAW}}),
    "dbm-gaps": ("pooled_gap_count", {"thresholds": {"min_gaps": 10**6}}),
    "moments-match": ("m4_within_4gamma", {"thresholds": {"m4_gap_coeff": -1.0}}),
    "zmoments": ("p2_ratio_below_max", {"thresholds": {"ratio_max": 0.0}}),
    "correlations": ("gap_cdf_ks", {"thresholds": {"ks_max": 0.0}}),
}


def _passes_on_its_margin(clause: dict) -> bool:
    return clause["margin"] > 0 or (clause["margin"] == 0 and clause["op"] != "<")


@pytest.mark.parametrize("tag", sorted(FUZZ_CONFIGS))
def test_clauses_recompute_from_the_run_outputs(tmp_path, capsys, tag):
    name, failing = FAILING[tag]
    # without Monte Carlo draws the mc_moments clause passes on a value of 0
    no_draws = [("no-draws", {**FUZZ_CONFIGS[tag], "mc_draws": 0})] if tag == "moments-match" else []
    for case, doc in [("base", FUZZ_CONFIGS[tag]), *no_draws, ("failing", {**FUZZ_CONFIGS[tag], **failing})]:
        out = tmp_path / case
        cfg_path = tmp_path / f"{case}.json"
        cfg_path.write_text(config(tag, **doc))
        code = main([tag, "-c", str(cfg_path), "-o", str(out)])
        text = (out / f"{tag}.manifest.json").read_text()
        json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in the manifest, which is not JSON"))
        m = RunManifest.from_json(text)
        want = _clauses_from_outputs(tag, out)
        assert [c["name"] for c in m.clauses] == list(want) and sorted(m.acceptance) == sorted(want)
        for c in m.clauses:
            value, op, threshold, verdict = want[c["name"]]
            assert (c["op"], c["threshold"]) == (op, threshold) and value in (None, c["value"])
            assert m.acceptance[c["name"]] is verdict is _passes_on_its_margin(c)
        assert code == (0 if m.all_passed else 1)
    (c,) = [c for c in m.clauses if c["name"] == name]
    assert not m.acceptance[name] and c["margin"] < 0 and code == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith(tag)]
    assert [r[:2] + r[-2:-1] for r in rows][-len(m.clauses):] == [
        [tag, c["name"], "PASS" if m.acceptance[c["name"]] else "FAIL"] for c in m.clauses]


_NO_SCIPY_PROBE = """
import json, sys, tempfile
from rmt_locallaw import runner

for doc in ({"experiment": "locallaw-scan", "seed": 1, "sizes": [40], "samples": 2},
            {"experiment": "rigidity", "seed": 1, "n": 40, "samples": 2}):
    with tempfile.TemporaryDirectory() as out:
        runner.run(runner.parse_config(json.dumps(doc)), out)
print("scipy" in sys.modules)
"""


def test_runs_do_not_import_scipy():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(runner.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
