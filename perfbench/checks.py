"""Correctness checks on one round's written outputs, computed apart from the
program's own results. Each check returns a list of problems; empty = pass.

- every workload: each file's SHA-256 on disk equals the manifest digest;
- locallaw-scan: |m_N - m_sc| recomputed by the spectral route for the first
  row of each size up to SCAN_CHECK_MAX_N, and mainseeq_residual < 1e-8;
- dbm-gaps: each pairwise KS distance recomputed with scipy.stats.ks_2samp,
  and the mean unfolded bulk gap of every pool close to 1;
- moments-match: achieved m3/m4 recomputed with the closed-form
  Gaussian-divisible transform; |dm3| <= 1e-12 and |dm4| <= 4 gamma; the
  Monte Carlo moment test redone on each row's draws, which must pass and
  equal the CSV's mc_ok.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import os

SCAN_CHECK_MAX_N = 1000
SCAN_REL_TOL = 1e-6
MAINSEEQ_MAX = 1e-8
KS_TOL = 1e-12
GAP_MEAN_TOL = 0.02
MOMENT_TOL = 1e-12


def read_manifest(outdir: str, experiment: str) -> dict:
    with open(os.path.join(outdir, f"{experiment}.manifest.json")) as fh:
        return json.load(fh)


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_digests(outdir: str, manifest: dict) -> list:
    problems = []
    for name, want in sorted(manifest["digests"].items()):
        with open(os.path.join(outdir, name), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        if got != want:
            problems.append(f"{name}: SHA-256 on disk {got[:12]} != manifest {want[:12]}")
    return problems


def m_sc(z: complex) -> complex:
    """Root with Im m > 0 of m^2 + z m + 1 = 0 (Im z > 0)."""
    r = cmath.sqrt(z * z - 4.0)
    m = (-z + r) / 2.0
    return m if m.imag > 0 else (-z - r) / 2.0


def check_scan(outdir: str, manifest: dict) -> list:
    import numpy as np
    from rmt_locallaw.ensembles import catalog_distribution, sample_matrix, wigner_profile

    ens = manifest["config"]["ensemble"]
    if ens.get("profile", "wigner") != "wigner":
        return [f"scan check supports the wigner profile only, got {ens['profile']!r}"]
    law = catalog_distribution(ens.get("distribution", "gaussian"))
    rows = _rows(os.path.join(outdir, "locallaw-scan.csv"))
    problems = [
        f"row {i}: mainseeq_residual {r['mainseeq_residual']} >= {MAINSEEQ_MAX}"
        for i, r in enumerate(rows)
        if not float(r["mainseeq_residual"]) < MAINSEEQ_MAX
    ]
    checked = set()
    for r in rows:
        n = int(r["n"])
        if n > SCAN_CHECK_MAX_N or n in checked:
            continue
        checked.add(n)
        e, eta = float(r["E"]), float(r["eta"])
        h = sample_matrix(wigner_profile(n), law, ens.get("beta", 2), int(r["sample_seed"]))
        lam = np.linalg.eigvalsh(h.entries)
        z = complex(e, eta)
        m_err = abs(complex(np.mean(1.0 / (lam - z))) - m_sc(z))
        # flat profile: M = n and edge exponent A = 1 in M*eta*(kappa+eta)^A
        want = n * eta * (abs(abs(e) - 2.0) + eta) * m_err
        got = float(r["m_err_norm"])
        if not abs(got - want) <= SCAN_REL_TOL * abs(want):
            problems.append(f"n={n}: m_err_norm {got!r} != spectral route {want!r}")
    if not checked:
        problems.append(f"no row with n <= {SCAN_CHECK_MAX_N} to recompute")
    return problems


def check_dbm(outdir: str, manifest: dict) -> list:
    import numpy as np
    from scipy.stats import ks_2samp

    times = manifest["config"]["times"]
    stats = manifest["statistics"]
    pools = [
        np.array([float(r["gap"]) for r in _rows(os.path.join(outdir, f"dbm-gaps-t{i}.csv"))])
        for i in range(len(times))
    ]
    problems = []
    for i, t in enumerate(times):
        if pools[i].size != stats["pooled_gaps"][f"t{t:g}"]:
            problems.append(f"t={t:g}: {pools[i].size} gaps in CSV, manifest says {stats['pooled_gaps'][f't{t:g}']}")
        if pools[i].size == 0 or not abs(pools[i].mean() - 1.0) <= GAP_MEAN_TOL:
            problems.append(f"t={t:g}: mean unfolded bulk gap {pools[i].mean() if pools[i].size else None} not within {GAP_MEAN_TOL} of 1")
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            key = f"t{times[a]:g}-t{times[b]:g}"
            want = float(ks_2samp(pools[a], pools[b]).statistic)
            if not abs(stats["ks_matrix"][key] - want) <= KS_TOL:
                problems.append(f"KS {key}: manifest {stats['ks_matrix'][key]!r} != ks_2samp {want!r}")
    return problems


def gaussian_divisible(m3: float, m4: float, gamma: float):
    """Achieved (m3, m4) of sqrt(1-g) xi_g + sqrt(g) N(0,1), where xi_g carries
    the inflated targets m3_g = (1-g)^(-3/2) m3, m4_g = m3_g^2 + m4 - m3^2."""
    m3_g = (1.0 - gamma) ** -1.5 * m3
    m4_g = m3_g * m3_g + (m4 - m3 * m3)
    return (1.0 - gamma) ** 1.5 * m3_g, (1.0 - gamma) ** 2 * m4_g + 6.0 * gamma - 3.0 * gamma * gamma


def mc_moments_pass(draws, m3: float, m4: float, sigma: float) -> bool:
    """Sample means of x^3 and x^4 each within sigma standard errors of m3, m4."""
    import numpy as np

    sq = draws * draws
    for power, want in ((sq * draws, m3), (sq * sq, m4)):
        mean = power.mean()
        se = np.sqrt(np.square(power - mean).sum() / (power.size - 1) / power.size)
        if not abs(mean - want) <= sigma * se:
            return False
    return True


def check_moments(outdir: str, manifest: dict) -> list:
    from rmt_locallaw.moments import MomentTarget, match_four_moments
    from rmt_locallaw.seeding import generator

    cfg = manifest["config"]
    problems = []
    rows = _rows(os.path.join(outdir, "moments-match.csv"))
    if not rows:
        problems.append("moments-match.csv has no rows")
    if not cfg["mc_draws"] > 0:
        problems.append(f"mc_draws = {cfg['mc_draws']}: no Monte Carlo step to check")
    for i, r in enumerate(rows):
        m3, m4, g = float(r["m3"]), float(r["m4"]), float(r["gamma"])
        a3, a4 = float(r["achieved_m3"]), float(r["achieved_m4"])
        e3, e4 = gaussian_divisible(m3, m4, g)
        if not (abs(a3 - e3) <= MOMENT_TOL * max(1.0, abs(e3)) and abs(a4 - e4) <= MOMENT_TOL * max(1.0, abs(e4))):
            problems.append(f"row {i}: achieved ({a3!r}, {a4!r}) != closed form ({e3!r}, {e4!r})")
        if not abs(a3 - m3) <= MOMENT_TOL:
            problems.append(f"row {i}: |dm3| = {abs(a3 - m3):.3g} > {MOMENT_TOL}")
        if not abs(a4 - m4) <= 4.0 * g:
            problems.append(f"row {i}: |dm4| = {abs(a4 - m4):.3g} > 4 gamma = {4.0 * g:.3g}")
        if cfg["mc_draws"] > 0:
            # the program draws row i's sample from the stream ("mc", i)
            law = match_four_moments(MomentTarget(m3, m4), g).to_distribution()
            draws = law.sample(generator(cfg["seed"], "mc", i), cfg["mc_draws"])
            passed = mc_moments_pass(draws, e3, e4, cfg["thresholds"]["mc_sigma"])
            if not passed:
                problems.append(f"row {i}: Monte Carlo moments of {cfg['mc_draws']} draws outside {cfg['thresholds']['mc_sigma']:g} sigma")
            if r["mc_ok"] != str(passed):
                problems.append(f"row {i}: mc_ok {r['mc_ok']} != recomputed {passed}")
    return problems


CONTENT_CHECKS = {"locallaw-scan": check_scan, "dbm-gaps": check_dbm, "moments-match": check_moments}
