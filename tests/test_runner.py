import json
import os

import pytest

from rmt_locallaw.errors import ConfigError
from rmt_locallaw.runner import (
    RunManifest,
    main,
    moment_target_grid,
    parse_config,
    report,
    run,
)


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


INFEASIBLE_LAW = {
    "kind": "discrete-atoms", "atoms": [[1.0, 0.5], [-1.0, 0.5]], "m3": 0.0, "m4": 0.5,
    "subexp_alpha": 1.0, "subexp_beta": 2.0,
}

# bad configs, each with the key the error names; main runs each through its own subcommand
BAD_VALUES = [
    (config("rigidity", samples=2), "'n'"),
    (minimal_config(n="abc"), "n must be"),
    (minimal_config(samples=0), "samples must be"),
    (config("moments-match", grid_count=0), "grid_count must be"),
    (minimal_config(ensemble={"profile": "band", "band_w": 121}), "ensemble.band_w must be"),
    (config("zmoments", n=50, z=[0.5], samples=2), "z must be"),
    (config("zmoments", n=50, z=[0.5, -0.1], samples=2), "z must be"),
    (config("locallaw-scan", sizes=[50], samples=1, eta_coeff=-1), "eta_coeff must be"),
    (minimal_config(ensemble={"distribution": INFEASIBLE_LAW}), "ensemble.distribution: "),
    (config("correlations", n=50, samples=1, distribution_b={"matched": {"m3": 0, "m4": 0.5, "gamma": 0.1}}),
     "distribution_b: "),
    (config("largedev", n=50, trials=10, distribution={"matched": {"m3": 0}}), "distribution: missing key 'm4'"),
]


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
    assert cfg.params["variant"] == "D"
    assert cfg.thresholds["median_meta_m_err_max"] == 10.0


def test_parse_rejects_typo_key():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(samplse=3))
    assert "samplse" in str(err.value)
    for text, key in BAD_VALUES:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert key in str(err.value)


def test_parse_rejects_unknown_experiment_and_bad_json():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"experiment": "spectra", "seed": 1}))
    with pytest.raises(ConfigError):
        parse_config("{not json")
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


def test_report_table(tmp_path):
    cfg = parse_config(minimal_config())
    m = run(cfg, str(tmp_path))
    text = report([m])
    assert "rigidity" in text
    assert "PASS" in text and "overall: PASS" in text
    for line in text.splitlines()[1:-1]:
        assert line.split()[1]  # statistic column never empty
    failing = RunManifest(
        experiment="edge", config={}, artifact_version="0", wall_clock_s=0.1,
        digests={}, acceptance={"x": False}, statistics={}, headline={"statistic": "s", "threshold": "t"},
    )
    mixed = report([m, failing])
    assert "FAIL" in mixed and "overall: FAIL" in mixed
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

    # bad keys, values and laws: one line naming the key
    for text, key in BAD_VALUES:
        bad.write_text(text)
        capsys.readouterr()
        assert main([json.loads(text)["experiment"], "-c", str(bad), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error") and key in err


def test_main_report_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config())
    out = tmp_path / "out"
    main(["rigidity", "-c", str(cfg_path), "-o", str(out)])
    capsys.readouterr()
    code = main(["report", str(out / "rigidity.manifest.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_acceptance_failure_exit_code(tmp_path):
    cfg = parse_config(minimal_config(thresholds={"exponent": -5.0}))  # impossible threshold
    manifest = run(cfg, str(tmp_path))
    assert not manifest.all_passed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(minimal_config(thresholds={"exponent": -5.0}))
    assert main(["rigidity", "-c", str(cfg_path), "-o", str(tmp_path / "o")]) == 1


def test_moment_target_grid_is_feasible_and_capped():
    targets = moment_target_grid(100, [0.001, 0.01, 0.1])
    assert len(targets) == 100
    for t in targets:
        assert t.m4 <= 10.0
        assert t.m4 - t.m3**2 - 1.0 >= 0.0
