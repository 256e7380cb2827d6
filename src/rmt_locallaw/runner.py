"""Experiment runner: JSON configs, seeded parallel execution, CSV/JSON
outputs, run manifests and the aggregate report, plus the `rmt` CLI.

Output bytes are a pure function of (config, seed, artifact version, BLAS
build): per-job seeds are derived statelessly, results merge in job order,
every job runs with the BLAS pinned to one thread (`parallel.pmap`), and
files are written to a temporary name and renamed atomically. The manifest
also records the run's environment, which no digested file contains.

Exit codes: 0 all acceptance clauses pass, 1 acceptance failure,
2 config error or an output path that cannot be written, 3 numerical error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import operator
import os
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import dbm, lapack, locallaw, moments, stats
from .csvio import csv_text
from .ensembles import EntryDistribution, band_profile, catalog_distribution, sample_matrix, wigner_profile
from .errors import ConfigError, ConvergenceError, NotFoundError, RMTError, SolverError
from .linalg import eigh
from .parallel import BLAS_THREADS, affinity_cores, default_workers, numpy_openblas, pmap
from .seeding import derive_seed, generator

__all__ = ["ExperimentConfig", "RunManifest", "parse_config", "run", "report", "main", "ARTIFACT_VERSION"]

ARTIFACT_VERSION = "0.8.0"

_SHAPES = {
    "box": lambda x: 1.0 if 0 <= x < 1 else 0.0,
    "triangle": lambda x: max(0.0, 1.0 - abs(x)),
    "gaussian": lambda x: math.exp(-x * x),
}

_COMMON_KEYS = {"experiment", "seed", "workers", "thresholds"}

# moments-match reports the worst m4 gap over a 9 x 9 sweep of m3 in [-2, 2]
# and m4 from the feasibility bound 1 + m3^2 to 10
_SWEEP_M3_MAX = 2.0
_SWEEP_M4_MAX = 10.0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # JSON's NaN and Infinity parse to floats, and an integer may be too large
    # for one; no config value may be either
    if _is_int(v):
        try:
            float(v)
        except OverflowError:
            return False
        return True
    return isinstance(v, float) and math.isfinite(v)


def _distinct(values: list) -> bool:
    # a repeated size or flow time would compare a pool with itself
    return len(set(values)) == len(values)


def _one_of(*names) -> tuple:
    return (lambda v: isinstance(v, str) and v in names), "one of " + ", ".join(map(repr, names))


# value kind -> (check, what the error message says the value must be)
_KINDS = {
    "int": (_is_int, "an integer"),
    "count": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "count2": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "draws": (lambda v: _is_int(v) and (v == 0 or v >= 2), "0 (no Monte Carlo) or an integer >= 2"),
    "counts": (lambda v: isinstance(v, list) and v and all(_is_int(x) and x >= 1 for x in v) and _distinct(v),
               "a non-empty list of distinct integers >= 1"),
    "number": (_is_number, "a number"),
    "positive": (lambda v: _is_number(v) and v > 0, "a number > 0"),
    "point": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)) and v[1] > 0,
              "a pair [E, eta] of numbers with eta > 0"),
    # each time is labelled f"{t:g}" in the statistics and the CSV schemas
    "times": (lambda v: isinstance(v, list) and v and all(_is_number(x) and x >= 0 for x in v)
              and _distinct([f"{x:g}" for x in v]), "a non-empty list of numbers >= 0, distinct to 6 significant digits"),
    "gammas": (lambda v: isinstance(v, list) and v and all(_is_number(x) and 0 < x < 1 for x in v),
               "a non-empty list of numbers in (0, 1)"),
    "kappa_cut": (lambda v: _is_number(v) and 0 < v < 2, "a number in (0, 2)"),
    "profile": _one_of("wigner", "band"),
    "band_shape": _one_of(*_SHAPES),
    "law": (lambda v: isinstance(v, (str, dict)), "a distribution name or object"),
    "object": (lambda v: isinstance(v, dict), "an object"),
}
_DEFAULT_KINDS = {int: "int", float: "number"}
_ENSEMBLE_KINDS = {
    "profile": "profile", "distribution": "law", "beta": "int", "band_w": "count", "band_shape": "band_shape",
}


def _check(path: str, value, kind: str) -> None:
    ok, want = _KINDS[kind]
    if not ok(value):
        raise ConfigError(f"{path} must be {want}, got {value!r}")


def _check_keys(obj: dict, known, where: str) -> None:
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} at {where}")


@dataclass(frozen=True)
class _Experiment:
    """One experiment tag: its body, the root keys it requires (key -> kind),
    its optional keys with their defaults (kind from the default's type unless
    `checks` names a narrower one; a list default must name its kind there)
    and its default thresholds. `ensemble` says whether the optional ensemble
    object applies."""

    body: Callable
    required: dict
    defaults: dict
    thresholds: dict
    ensemble: bool = True
    checks: dict = field(default_factory=dict)

    @property
    def kinds(self) -> dict:
        kinds = {key: self.checks.get(key) or _DEFAULT_KINDS[type(val)] for key, val in self.defaults.items()}
        if self.ensemble:
            kinds["ensemble"] = "object"
        return {**kinds, **self.required}


@dataclass
class ExperimentConfig:
    """Validated experiment configuration with defaults filled in."""

    experiment: str
    seed: int
    workers: int | None
    params: dict
    thresholds: dict

    def to_json(self) -> str:
        # workers is a parallelism hint, not semantics: excluded so output
        # bytes stay a pure function of (config, seed, artifact version, BLAS build).
        doc = dict(self.params)
        doc["experiment"] = self.experiment
        doc["seed"] = self.seed
        doc["thresholds"] = self.thresholds
        return json.dumps(doc, sort_keys=True)

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.to_json() == other.to_json()


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unknown keys are errors."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than Python converts
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    exp = doc.get("experiment")
    if not isinstance(exp, str) or exp not in _REGISTRY:
        raise ConfigError(f"unknown or missing experiment tag {exp!r}; known: {sorted(_REGISTRY)}")
    entry = _REGISTRY[exp]
    kinds = entry.kinds
    _check_keys(doc, _COMMON_KEYS | kinds.keys(), f"config root (experiment {exp})")
    for key in ("seed", *entry.required):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r} (experiment {exp})")
    _check("seed", doc["seed"], "int")
    for key, kind in kinds.items():
        if key in doc:
            _check(key, doc[key], kind)
            if kind == "law":
                _resolve_distribution(doc[key], key)  # fail fast on laws that cannot be built
    if "ensemble" in doc:
        ens = doc["ensemble"]
        _check_keys(ens, _ENSEMBLE_KINDS, "ensemble")
        for key, val in ens.items():
            _check(f"ensemble.{key}", val, _ENSEMBLE_KINDS[key])
            if key.startswith("band_") and ens.get("profile", "wigner") != "band":
                raise ConfigError(f"ensemble.{key} applies to the band profile only")
        if ens.get("beta", 2) not in (1, 2):
            raise ConfigError("ensemble.beta must be 1 or 2")
        n_min = min(doc.get("sizes", [doc.get("n")]))
        if ens.get("band_w", 1) > n_min:
            raise ConfigError(f"ensemble.band_w must be <= n = {n_min}, got {ens['band_w']}")
        _resolve_distribution(ens.get("distribution", "gaussian"), "ensemble.distribution")
    thresholds = dict(entry.thresholds)
    overrides = doc.get("thresholds", {})
    _check("thresholds", overrides, "object")
    _check_keys(overrides, thresholds, f"thresholds (experiment {exp})")
    for key, val in overrides.items():
        _check(f"thresholds.{key}", val, "number")
        thresholds[key] = val
    params = dict(entry.defaults)
    params.update((key, val) for key, val in doc.items() if key not in _COMMON_KEYS)
    workers = doc.get("workers")
    if workers is not None:
        _check("workers", workers, "count")
    return ExperimentConfig(experiment=exp, seed=doc["seed"], workers=workers, params=params, thresholds=thresholds)


def _resolve_distribution(spec, path: str) -> EntryDistribution:
    """The entry law a config value names: a catalog name, {"matched": {m3,
    m4, gamma}} or an inline law {"atoms": [[value, prob], ...], "gamma": g},
    gamma 0 by default, which is gaussian-divisible when gamma > 0 and
    discrete-atoms otherwise. A spec that cannot be built or has an unknown
    key is a ConfigError naming `path`."""
    if isinstance(spec, dict):
        matched = spec.get("matched")
        _check_keys(spec, ("matched",) if "matched" in spec else ("atoms", "gamma"), path)
        if isinstance(matched, dict):
            _check_keys(matched, ("m3", "m4", "gamma"), f"{path}.matched")
    try:
        if isinstance(spec, str):
            return catalog_distribution(spec)
        if "matched" in spec:
            m = spec["matched"]
            return moments.match_four_moments(moments.MomentTarget(m["m3"], m["m4"]), m["gamma"]).to_distribution()
        gamma = spec.get("gamma", 0.0)
        kind = "gaussian-divisible" if gamma > 0 else "discrete-atoms"
        return EntryDistribution(kind=kind, atoms=tuple(tuple(a) for a in spec["atoms"]), gamma=gamma)
    except NotFoundError:
        raise ConfigError(f"{path}: unresolved distribution name {spec!r}") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc} in {spec!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ConfigError(f"{path}: cannot build the law {spec!r}: {exc}") from None


def _build_profile(ens: dict, n: int):
    if ens.get("profile", "wigner") == "wigner":
        return wigner_profile(n)
    return band_profile(n, int(ens.get("band_w", max(1, n // 8))), _SHAPES[ens.get("band_shape", "box")])


def _ensemble(cfg: ExperimentConfig, n: int):
    ens = cfg.params.get("ensemble", {})
    profile = _build_profile(ens, n)
    dist = _resolve_distribution(ens.get("distribution", "gaussian"), "ensemble.distribution")
    beta = ens.get("beta", 2)
    return profile, dist, beta


# each manifest field and the type `report` reads it as
_MANIFEST_TYPES = {
    "experiment": str, "config": dict, "artifact_version": str, "wall_clock_s": (int, float), "digests": dict,
    "acceptance": dict, "statistics": dict, "clauses": list, "environment": dict,
}
_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


class Clause(NamedTuple):
    """One acceptance clause: it passes when `value op threshold`, op one of
    "<", "<=" and ">=", value the binding statistic (the max or min compared)."""

    name: str
    value: float
    op: str
    threshold: float

    @property
    def passed(self) -> bool:
        return _OPS[self.op](self.value, self.threshold)

    @property
    def margin(self) -> float:  # positive on the passing side; 0 passes "<=" and ">=" but fails "<"
        return self.value - self.threshold if self.op == ">=" else self.threshold - self.value


@dataclass
class RunManifest:
    """Run record: config echo, output digests, each clause's verdict (`acceptance`)
    and value, threshold and margin (`clauses`), and the environment the run had
    (BLAS builds and threads, workers, cores, versions), which affects speed only."""

    experiment: str
    config: dict
    artifact_version: str
    wall_clock_s: float
    digests: dict
    acceptance: dict
    statistics: dict
    clauses: list
    environment: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.acceptance.values())

    def to_json(self) -> str:
        return json.dumps({key: getattr(self, key) for key in _MANIFEST_TYPES}, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Read a manifest; a document that is not one, or whose verdicts
        cannot be trusted, is a ConfigError naming the key."""
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than Python converts
            raise ConfigError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("manifest must be a JSON object")
        doc = {"clauses": [], "environment": {}, **doc}  # manifests written before these fields existed
        for key, kind in _MANIFEST_TYPES.items():
            if key not in doc:
                raise ConfigError(f"manifest has no key {key!r}")
            if not isinstance(doc[key], kind):
                raise ConfigError(f"manifest key {key!r} has the wrong type ({type(doc[key]).__name__})")
        if not _is_number(doc["wall_clock_s"]):
            raise ConfigError(f"manifest key 'wall_clock_s' must be a finite number, got {doc['wall_clock_s']!r}")
        acceptance = doc["acceptance"]
        if not acceptance or not all(isinstance(v, bool) for v in acceptance.values()):
            raise ConfigError(f"manifest key 'acceptance' must map clause names to true or false, got {acceptance!r}")
        for c in doc["clauses"]:  # well formed, and its comparison gives the verdict and margin recorded
            clause = (isinstance(c, dict) and c.keys() == {*Clause._fields, "margin"} and isinstance(c["name"], str)
                      and c["op"] in tuple(_OPS) and all(_is_number(c[k]) for k in ("value", "threshold", "margin"))
                      and Clause(*(c[k] for k in Clause._fields)))
            if not (clause and clause.passed is acceptance.get(clause.name) and clause.margin == c["margin"]):
                raise ConfigError(f"manifest key 'clauses' has a malformed entry, or one that 'acceptance' "
                                  f"contradicts: {c!r}")
        return cls(**{key: doc[key] for key in _MANIFEST_TYPES})


def _read_text(path: str) -> str:
    """A config or manifest file's text; one that is not UTF-8 is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _atomic_write(path: str, data: str | bytes) -> None:
    """Write to a temporary name, then rename. mkstemp creates the file with
    mode 0600; it gets the mode open() would give, 0666 less the umask."""
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-rmt-")
    try:
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _digest(data: str | bytes) -> str:
    blob = data.encode() if isinstance(data, str) else data
    return hashlib.sha256(blob).hexdigest()


# --- experiment bodies ------------------------------------------------------
# Each returns (files: name -> text, statistics: dict, clauses: [Clause]);
# `run` handles writing, digesting, the verdicts and the manifest.


def _exp_locallaw_scan(cfg: ExperimentConfig):
    pr = cfg.params
    thr = cfg.thresholds
    sizes = sorted(pr["sizes"])
    # every size's eta and grid point before the first sample, so that one
    # that overflows or leaves D costs no run
    zs = {n: complex(pr["e"], _power(n, pr["eta_power"], "eta_power", pr["eta_coeff"])) for n in sizes}
    ensembles = {n: _ensemble(cfg, n) for n in sizes}
    for n in sizes:
        locallaw.check_scan_grid(ensembles[n][0], [zs[n]])
    rows = {}
    medians_meta = {}
    medians_ld = {}
    # largest size first, each ensemble dropped once its scan is done: the
    # largest scan is the run's peak, and it runs before the smaller scans'
    # frees can leave the heap fragmented (smallest first, scan-resolvent
    # peaked 54 MB higher); each size draws from its own seed, so the order
    # changes no byte
    for n in reversed(sizes):
        profile, dist, beta = ensembles.pop(n)
        z = zs[n]
        rows[n] = locallaw.sample_map(
            profile, dist, beta, derive_seed(cfg.seed, "scan", n), (), pr["samples"],
            lambda seed, h: locallaw.scan_row(profile, z, seed, locallaw.diagnostics(h, profile, z)), cfg.workers,
        )
        medians_meta[n] = float(np.median([r["meta_m_err"] for r in rows[n]]))
        medians_ld[n] = float(
            np.median([math.sqrt(profile.m_param * r["eta"]) * r["lambda_d"] for r in rows[n]])
        )
    cols = locallaw.SCAN_COLUMNS
    table = [[r[c] for c in cols] for n in sizes for r in rows[n]]
    files = {"locallaw-scan.csv": csv_text("locallaw-scan", cols, table)}
    flatness = medians_meta[sizes[-1]] / medians_meta[sizes[0]] if len(sizes) > 1 else 1.0
    statistics = {
        "median_meta_m_err": medians_meta,
        "median_sqrt_meta_lambda_d": medians_ld,
        "flatness_ratio": flatness,
    }
    clauses = [
        Clause("median_meta_m_err", max(medians_meta.values()), "<", thr["median_meta_m_err_max"]),
        Clause("flatness", flatness, "<", thr["flatness_ratio_max"]),
        Clause("median_sqrt_meta_lambda_d", max(medians_ld.values()), "<", thr["median_sqrt_meta_lambda_d_max"]),
    ]
    return files, statistics, clauses


def _eigenvalues(_seed, h) -> np.ndarray:
    """A sample_map reduction: the sample's eigenvalues, ascending."""
    return eigh(h, compute_vectors=False).eigenvalues


def _power(n: int, exponent: float, key: str, coeff: float = 1.0) -> float:
    """coeff * n ** exponent, in floating point: Python's exact integer power
    takes superlinear time on a huge integer exponent. A value that overflows
    is a ConfigError naming `key`, the config key the exponent comes from."""
    try:
        value = coeff * float(n) ** exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{key} makes n ** {exponent!r} overflow at n = {n}")
    return value


def _exp_rigidity(cfg: ExperimentConfig):
    n = cfg.params["n"]
    thr_value = _power(n, cfg.thresholds["exponent"], "thresholds.exponent")
    values = [locallaw.rigidity_stat(lam) for lam in locallaw.sample_map(
        *_ensemble(cfg, n), cfg.seed, ("rigidity",), cfg.params["samples"], _eigenvalues, cfg.workers)]
    rows = [[si, v] for si, v in enumerate(values)]
    files = {"rigidity.csv": csv_text("rigidity", ["sample_index", "sum_sq_dev"], rows)}
    statistics = {"values": values, "max": max(values), "threshold": thr_value}
    return files, statistics, [Clause("all_below_threshold", statistics["max"], "<", thr_value)]


def _exp_counting(cfg: ExperimentConfig):
    n = cfg.params["n"]
    thr = cfg.thresholds
    thr_value = _power(n, thr["power"], "thresholds.power", thr["coeff"]) / n
    profile, dist, beta = _ensemble(cfg, n)
    a_exp = profile.edge_exponent_a
    values = [locallaw.counting_gap(lam, a_exp) for lam in locallaw.sample_map(
        profile, dist, beta, cfg.seed, ("counting",), cfg.params["samples"], _eigenvalues, cfg.workers)]
    passed = sum(v < thr_value for v in values)
    rows = [[si, v, v < thr_value] for si, v in enumerate(values)]
    files = {"counting.csv": csv_text("counting", ["sample_index", "sup_stat", "passed"], rows)}
    statistics = {"values": values, "pass_fraction": passed / len(values), "threshold": thr_value, "a_exponent": a_exp}
    return files, statistics, [Clause("pass_fraction", statistics["pass_fraction"], ">=", thr["min_pass_fraction"])]


def _exp_edge(cfg: ExperimentConfig):
    n = cfg.params["n"]
    eps = cfg.params["epsilon"]
    _power(n, -1.0 / 6.0 + eps, "epsilon")  # edge_check's n ** (-1/6 + eps), checked before sampling
    reports = [locallaw.edge_check(lam, eps) for lam in locallaw.sample_map(
        *_ensemble(cfg, n), cfg.seed, ("edge",), cfg.params["samples"], _eigenvalues, cfg.workers)]
    rows = [[si, r.passed, r.lower_margin, r.upper_margin] for si, r in enumerate(reports)]
    files = {"edge.csv": csv_text("edge", ["sample_index", "passed", "lower_margin", "upper_margin"], rows)}
    statistics = {
        "threshold": reports[0].threshold,
        "min_margin": min(min(r.lower_margin, r.upper_margin) for r in reports),
    }
    return files, statistics, [Clause("all_contained", statistics["min_margin"], ">=", 0.0)]


def _gap_pool(gaps: list, n: int, kappa_cut: float, name: str) -> np.ndarray:
    """The pooled unfolded gaps of the samples; an empty pool, where no
    sample has two eigenvalues in the bulk, is a ConfigError naming the keys
    that set the bulk."""
    pool = np.concatenate(gaps)
    if pool.size == 0:
        raise ConfigError(f"gap pool {name} is empty: at n = {n} and kappa_cut = {kappa_cut!r} no sample has "
                          f"two eigenvalues in the bulk |E| <= {2.0 - kappa_cut:g}")
    return pool


def _exp_dbm_gaps(cfg: ExperimentConfig):
    pr = cfg.params
    n, times, kcut = pr["n"], pr["times"], pr["kappa_cut"]
    profile, dist, beta = _ensemble(cfg, n)
    gauss = catalog_distribution("gaussian")

    def _job(si):
        # three n x n arrays: h0, v and one buffer, in which each h_t is
        # formed and which the eigensolver then overwrites
        h0 = sample_matrix(profile, dist, beta, derive_seed(cfg.seed, "h0", si))
        v = sample_matrix(profile, gauss, beta, derive_seed(cfg.seed, "v", si))
        buf = np.empty_like(h0.entries)
        out = []
        for t in times:
            ht = dbm.flow_interpolate(h0, v, t, out=buf)
            out.append(stats.unfold(eigh(ht, compute_vectors=False, overwrite=True).eigenvalues, kcut))
        return out

    per_sample = pmap(_job, list(range(pr["samples"])), cfg.workers)
    pools = [_gap_pool([s[ti] for s in per_sample], n, kcut, f"t{t:g}") for ti, t in enumerate(times)]
    cdfs = [stats.EmpiricalCDF(pool) for pool in pools]
    ks_matrix = {}
    worst = 0.0
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            d = stats.ks_distance(cdfs[a], cdfs[b])
            ks_matrix[f"t{times[a]:g}-t{times[b]:g}"] = d
            worst = max(worst, d)
    files = {}
    for ti, t in enumerate(times):
        files[f"dbm-gaps-t{ti}.csv"] = csv_text(
            f"dbm-gaps-t{t:g}", ["gap"], [[float(g)] for g in np.sort(pools[ti])]
        )
    coeff_residual = max(
        abs(math.exp(-t / 2.0) ** 2 + (-math.expm1(-t)) - 1.0) for t in np.linspace(0.0, 10.0, 201)
    )
    statistics = {
        "pooled_gaps": {f"t{t:g}": int(pools[ti].size) for ti, t in enumerate(times)},
        "ks_matrix": ks_matrix,
        "worst_ks": worst,
        "ou_coefficient_residual": coeff_residual,
    }
    clauses = [
        Clause("pairwise_ks", worst, "<", cfg.thresholds["ks_max"]),
        Clause("pooled_gap_count", min(p.size for p in pools), ">=", cfg.thresholds["min_gaps"]),
        Clause("ou_coefficient_identity", coeff_residual, "<", 1e-15),
    ]
    return files, statistics, clauses


def moment_target_grid(count: int, gammas) -> list:
    """Frozen feasible (m3, m4) grid where the 4*gamma matching bound is provable.

    For every gamma in `gammas` the exact mismatch slope (moments.m4_gap_slope)
    must satisfy |R| <= 4; intersected with feasibility m4 >= 1 + m3^2 and the
    m4 <= 10 cap, with a 2% interior margin.
    """
    side = max(2, int(math.isqrt(count)))
    targets = []
    for m3 in np.linspace(-1.4, 1.4, side):
        lo = 1.0 + m3 * m3
        hi = 10.0
        for g in gammas:
            c = (3.0 - 3.0 * g + g * g) / (1.0 - g)
            lo = max(lo, (c * m3 * m3 + 6.0 - 3.0 * g - 4.0) / (2.0 - g))
            hi = min(hi, (c * m3 * m3 + 6.0 - 3.0 * g + 4.0) / (2.0 - g))
        if hi <= lo:
            continue
        span = hi - lo
        for frac in np.linspace(0.02, 0.98, side):
            targets.append(moments.MomentTarget(float(m3), float(lo + frac * span)))
    return targets[:count]


def _mc_power_stats(chunks) -> list:
    """(sample mean, its standard error) of x^3 and of x^4 over the draws,
    read once, one chunk at a time, so that no array of the draws is kept.

    Each chunk's count, mean and sum of squared deviations M2 merge into the
    running ones by the pairwise update of Chan, Golub and LeVeque. The powers
    are repeated multiplies in a fixed order: x^3 = (x*x)*x, x^4 = x^3*x
    (`**` goes through pow and is far slower).
    """
    running = [(0, 0.0, 0.0), (0, 0.0, 0.0)]
    for c in chunks:
        p3 = c * c
        p3 *= c
        p4 = p3 * c
        for k, p in enumerate((p3, p4)):
            nb = p.size
            mean_b = float(p.sum()) / nb
            p -= mean_b
            p *= p
            na, mean_a, m2_a = running[k]
            n = na + nb
            delta = mean_b - mean_a
            running[k] = (n, mean_a + delta * (nb / n), m2_a + float(p.sum()) + delta * delta * (na * nb / n))
    return [(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)) for n, mean, m2 in running]


def _mc_slack(law, chunks, sigma: float) -> float:
    """max over x^3 and x^4 of |sample mean - the law's moment| - sigma * its standard
    error; <= 0 when both sample means are within sigma standard errors."""
    return max(abs(mean - target) - sigma * se
               for (mean, se), target in zip(_mc_power_stats(chunks), (law.achieved_m3, law.achieved_m4)))


def _exp_moments_match(cfg: ExperimentConfig):
    pr = cfg.params
    thr = cfg.thresholds
    gammas = pr["gammas"]
    targets = moment_target_grid(pr["grid_count"], gammas)
    laws = [(t, g) for t in targets for g in gammas]

    def _job(k):
        # law k draws from its own stream, so results do not depend on scheduling
        t, g = laws[k]
        law = moments.match_four_moments(t, g)
        # without draws there is nothing to miss: slack 0, which passes
        mc_slack = 0.0 if pr["mc_draws"] == 0 else _mc_slack(
            law, law.to_distribution().draw_chunks(generator(cfg.seed, "mc", k), pr["mc_draws"]), thr["mc_sigma"]
        )
        return law, mc_slack

    rows, mc_slacks = [], []
    for (t, g), (law, mc_slack) in zip(laws, pmap(_job, range(len(laws)), cfg.workers)):
        mc_slacks.append(mc_slack)
        m3_err = abs(law.achieved_m3 - t.m3)
        rows.append([t.m3, t.m4, g, law.achieved_m3, law.achieved_m4, m3_err, law.m4_gap, mc_slack <= 0])
    sweep_worst = 0.0
    for m3 in np.linspace(-_SWEEP_M3_MAX, _SWEEP_M3_MAX, 9):
        for m4 in np.linspace(1.0 + m3 * m3, _SWEEP_M4_MAX, 9):
            law = moments.match_four_moments(moments.MomentTarget(float(m3), float(m4)), max(gammas))
            sweep_worst = max(sweep_worst, law.m4_gap / max(gammas))
    files = {
        "moments-match.csv": csv_text(
            "moments-match",
            ["m3", "m4", "gamma", "achieved_m3", "achieved_m4", "m3_err", "m4_gap", "mc_ok"],
            rows,
        )
    }
    statistics = {
        "targets": len(targets),
        "worst_m4_gap_over_gamma": max(r[6] / r[2] for r in rows),
        "report_sweep_m4_gap_over_gamma": sweep_worst,
    }
    # a row passed m3_err <= m3_tol, m4_gap <= coeff * gamma + 1e-12, mc_slack <= 0; a <= b iff a - b <= 0
    clauses = [
        Clause("m3_exact", max(r[5] for r in rows), "<=", thr["m3_tol"]),
        Clause("m4_within_4gamma", max(r[6] - (thr["m4_gap_coeff"] * r[2] + 1e-12) for r in rows), "<=", 0.0),
        Clause("mc_moments", max(mc_slacks), "<=", 0.0),
    ]
    return files, statistics, clauses


def _exp_zmoments(cfg: ExperimentConfig):
    pr = cfg.params
    n = pr["n"]
    profile, dist, beta = _ensemble(cfg, n)
    z = complex(pr["z"][0], pr["z"][1])
    bounds = locallaw.z_moment_bounds(profile, z, pr["p_max"], pr["log_alpha"])  # before the first sample
    sums = locallaw.sample_map(profile, dist, beta, cfg.seed, (), pr["samples"],
                               lambda _seed, h: complex(np.mean(locallaw.diagnostics(h, profile, z).z_terms)),
                               cfg.workers)
    moment_rows = locallaw.z_moment_rows(sums, bounds, generator(cfg.seed, "bootstrap"))
    ratio = moment_rows[0]["ratio"]  # the rows ascend in p from p = 2
    rows = [[r["p"], r["moment"], r["stderr"], r["bound"], r["ratio"]] for r in moment_rows]
    files = {"zmoments.csv": csv_text("zmoments", ["p", "moment", "stderr", "bound", "ratio"], rows)}
    statistics = {"x_value": locallaw.x_control(n, profile.m_param, z, pr["log_alpha"]), "rows": moment_rows}
    return files, statistics, [Clause("p2_ratio_below_max", ratio, "<", cfg.thresholds["ratio_max"])]


def _exp_correlations(cfg: ExperimentConfig):
    pr = cfg.params
    n, kcut = pr["n"], pr["kappa_cut"]
    profile, dist_a, beta = _ensemble(cfg, n)
    dist_b = _resolve_distribution(pr["distribution_b"], "distribution_b")
    pool_a, pool_b = (
        _gap_pool([stats.unfold(lam, kcut) for lam in locallaw.sample_map(
            profile, law, beta, cfg.seed, (tag,), pr["samples"], _eigenvalues, cfg.workers)], n, kcut, tag)
        for tag, law in (("a", dist_a), ("b", dist_b))
    )
    ks = stats.ks_distance(stats.EmpiricalCDF(pool_a), stats.EmpiricalCDF(pool_b))
    files = {
        "correlations-gaps-a.csv": csv_text("gap-pool-a", ["gap"], [[float(g)] for g in np.sort(pool_a)]),
        "correlations-gaps-b.csv": csv_text("gap-pool-b", ["gap"], [[float(g)] for g in np.sort(pool_b)]),
    }
    statistics = {"ks": ks, "gaps_a": int(pool_a.size), "gaps_b": int(pool_b.size)}
    return files, statistics, [Clause("gap_cdf_ks", ks, "<", cfg.thresholds["ks_max"])]


_REGISTRY = {
    "locallaw-scan": _Experiment(
        _exp_locallaw_scan,
        {"sizes": "counts", "samples": "count"},
        {"e": 0.0, "eta_power": -0.8, "eta_coeff": 1.0},
        {"median_meta_m_err_max": 10.0, "flatness_ratio_max": 4.0, "median_sqrt_meta_lambda_d_max": 10.0},
        checks={"eta_coeff": "positive"},
    ),
    "rigidity": _Experiment(_exp_rigidity, {"n": "count", "samples": "count"}, {}, {"exponent": -1.0 / 7.0}),
    "counting": _Experiment(
        _exp_counting, {"n": "count", "samples": "count"}, {},
        {"coeff": 10.0, "power": 0.1, "min_pass_fraction": 0.95},
    ),
    "edge": _Experiment(_exp_edge, {"n": "count", "samples": "count"}, {"epsilon": 0.05}, {}),
    "dbm-gaps": _Experiment(
        _exp_dbm_gaps, {"n": "count", "samples": "count"}, {"times": [0.0, 0.1, 1.0], "kappa_cut": 0.5},
        {"ks_max": 0.03, "min_gaps": 0}, checks={"times": "times", "kappa_cut": "kappa_cut"},
    ),
    "moments-match": _Experiment(
        _exp_moments_match,
        {},
        {"grid_count": 100, "gammas": [0.001, 0.01, 0.1], "mc_draws": 1000000},
        {"m3_tol": 1e-12, "m4_gap_coeff": 4.0, "mc_sigma": 5.0},
        ensemble=False,
        checks={"grid_count": "count", "gammas": "gammas", "mc_draws": "draws"},
    ),
    "zmoments": _Experiment(
        _exp_zmoments, {"n": "count", "z": "point", "samples": "count2"}, {"p_max": 2, "log_alpha": 1.0},
        {"ratio_max": 1.0},
    ),
    "correlations": _Experiment(
        _exp_correlations, {"distribution_b": "law", "n": "count", "samples": "count"}, {"kappa_cut": 0.5},
        {"ks_max": 0.05}, checks={"kappa_cut": "kappa_cut"},
    ),
}


def _environment(cfg: ExperimentConfig, timings: dict) -> dict:
    """What the run's speed depended on and what it cost (the wall and CPU
    seconds of each stage, the process's peak resident memory so far); kept
    out of every digested file."""
    blas = numpy_openblas()
    return {
        "blas_threads": BLAS_THREADS,
        "blas": {blas.name: blas.config},
        "lapack": lapack.ROUTINES,
        "workers": cfg.workers if cfg.workers is not None else default_workers(),
        "affinity_cores": affinity_cores(),
        "numpy": np.__version__,
        "timings": timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # Linux counts KiB
    }


def run(cfg: ExperimentConfig, outdir: str) -> RunManifest:
    """Execute one experiment; write outputs + manifest atomically into outdir.

    The body writes nothing, so a config error it raises leaves no outdir.
    An outdir that cannot be a directory (it, or its nearest existing
    ancestor, is not one) is a NotADirectoryError before the body runs."""
    existing = os.path.abspath(outdir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)
    wall0, cpu0 = time.monotonic(), time.process_time()
    files, statistics, clauses = _REGISTRY[cfg.experiment].body(cfg)
    wall1, cpu1 = time.monotonic(), time.process_time()
    os.makedirs(outdir, exist_ok=True)
    summary = json.dumps({"config": json.loads(cfg.to_json()), "statistics": statistics}, sort_keys=True, indent=1)
    files[f"{cfg.experiment}.summary.json"] = summary
    digests = {}
    for name, text in sorted(files.items()):
        _atomic_write(os.path.join(outdir, name), text)
        digests[name] = _digest(text)
    wall2, cpu2 = time.monotonic(), time.process_time()
    timings = {
        "experiment": {"wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0},
        "writes": {"wall_s": wall2 - wall1, "cpu_s": cpu2 - cpu1},
    }
    manifest = RunManifest(
        experiment=cfg.experiment,
        config=json.loads(cfg.to_json()),
        artifact_version=ARTIFACT_VERSION,
        wall_clock_s=time.monotonic() - wall0,
        digests=digests,
        acceptance={c.name: c.passed for c in clauses},
        statistics=statistics,
        clauses=[{**c._asdict(), "margin": c.margin} for c in clauses],
        environment=_environment(cfg, timings),
    )
    _atomic_write(os.path.join(outdir, f"{cfg.experiment}.manifest.json"), manifest.to_json())
    return manifest


def report(manifests) -> str:
    """Aggregate summary table, one row per acceptance clause of each manifest: its value,
    threshold and margin (blank in a manifest older than clauses) and its verdict."""
    manifests = list(manifests)
    if not manifests:
        raise ConfigError("report needs at least one manifest")
    rows = [("experiment", "clause", "value", "threshold", "margin", "status", "runtime")]
    for m in manifests:
        clauses = {c["name"]: c for c in m.clauses}
        for name in {**clauses, **m.acceptance}:  # the clauses in the order the experiment declares them
            c = clauses.get(name)
            cells = (f"{c['value']:.4g}", f"{c['op']} {c['threshold']:.4g}", f"{c['margin']:+.4g}") if c else ("",) * 3
            status = "PASS" if m.acceptance[name] else "FAIL"
            rows.append((m.experiment, name, *cells, status, f"{m.wall_clock_s:.1f}s"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows]
    lines.append("overall: " + ("PASS" if all(m.all_passed for m in manifests) else "FAIL"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rmt", description="Random-matrix desk-scale experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for tag in _REGISTRY:
        sp = sub.add_parser(tag, help=f"run the {tag} experiment")
        sp.add_argument("-c", "--config", required=True, help="path to the JSON config")
        sp.add_argument("-o", "--outdir", required=True, help="output directory")
        sp.add_argument("--workers", type=int, default=None, help="override worker count")
    rp = sub.add_parser("report", help="aggregate manifests into a summary table")
    rp.add_argument("manifests", nargs="+", help="manifest JSON files")
    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            ms = [RunManifest.from_json(_read_text(path)) for path in args.manifests]
            text = report(ms)
        except (OSError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 0 if all(m.all_passed for m in ms) else 1

    try:
        cfg = parse_config(_read_text(args.config))
        if args.workers is not None:
            _check("--workers", args.workers, "count")
            cfg.workers = args.workers
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.experiment != args.command:
        print(f"config error: config is for {cfg.experiment!r}, not {args.command!r}", file=sys.stderr)
        return 2
    try:
        manifest = run(cfg, args.outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ConvergenceError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the output directory or a file in it
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except RMTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(report([manifest]))
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":  # python -m rmt_locallaw.runner, the same CLI as python -m rmt_locallaw
    sys.exit(main())
