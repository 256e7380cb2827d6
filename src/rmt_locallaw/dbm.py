"""Ornstein-Uhlenbeck matrix flow and the eigenvalue-level interacting SDE.

The matrix flow h_t = e^(-t/2) h_0 + (1 - e^(-t))^(1/2) v is exact (no
discretization); the particle SDE integrates the eigenvalue generator with
drift -(beta/4) x_i + (beta/2N) sum_{j != i} 1/(x_i - x_j) and diffusion
sqrt(1/N), and exists to validate the generator, not to replace the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .ensembles import MatrixSample, catalog_distribution
from .errors import ConfigError, StepError
from .linalg import eigenvalues
from .locallaw import rigidity_stat
from .seeding import generator
from .semicircle import nsc_eval

__all__ = [
    "FlowState",
    "ParticleState",
    "flow_interpolate",
    "sde_step",
    "assumption_ii_stat",
    "assumption_iii_stat",
    "assumption_iv_stat",
    "dump_trajectory",
]


@dataclass(frozen=True)
class FlowState:
    """Matrix flow snapshot: time, endpoints and the interpolated sample."""

    t: float
    h0: MatrixSample
    v: MatrixSample
    ht: MatrixSample


_GAUSSIAN_ID = catalog_distribution("gaussian").dist_id


def flow_interpolate(h0: MatrixSample, v: MatrixSample, t: float) -> FlowState:
    """Exact OU interpolation h_t = e^(-t/2) h0 + (1 - e^(-t))^(1/2) v."""
    if t < 0:
        raise ConfigError(f"flow time must be >= 0, got {t}")
    if h0.profile_id != v.profile_id or h0.symmetry_class != v.symmetry_class:
        raise ConfigError("flow endpoints must share profile and symmetry class")
    if v.dist_id != _GAUSSIAN_ID:
        raise ConfigError(f"comparison matrix must be Gaussian, got {v.dist_id!r}")
    c0 = math.exp(-t / 2.0)
    cg = math.sqrt(-math.expm1(-t))
    entries = c0 * h0.entries + cg * v.entries
    entries.setflags(write=False)
    ht = MatrixSample(
        symmetry_class=h0.symmetry_class,
        entries=entries,
        profile_id=h0.profile_id,
        dist_id=f"flow(t={t:g};{h0.dist_id})",
        seed=h0.seed,
    )
    return FlowState(t=t, h0=h0, v=v, ht=ht)


@dataclass(frozen=True)
class ParticleState:
    """Strictly ordered eigenvalue coordinates under the interacting SDE."""

    x: np.ndarray
    beta: int
    time: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise ConfigError("particle coordinates must be strictly increasing")
        if self.beta not in (1, 2):
            raise ConfigError("beta must be 1 or 2")


def _drift(x: np.ndarray, beta: int) -> np.ndarray:
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)
    inter = np.sum(1.0 / diff, axis=1)
    return -(beta / 4.0) * x + (beta / (2.0 * n)) * inter


def sde_step(state: ParticleState, dt: float, noise_seed: int | None = None) -> ParticleState:
    """One Euler-Maruyama step of length dt.

    x_i <- x_i + dt * drift_i + sqrt(dt/N) g_i with independent standard
    Gaussians (omitted when noise_seed is None). If the update breaks the
    strict ordering, the step is bisected into two half-steps, at most 20
    levels deep, preserving the total time advanced.
    """
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")

    def _attempt(x: np.ndarray, step: float, seed_parts: tuple, depth: int) -> np.ndarray:
        if depth > 20:
            raise StepError("persistent particle collision after 20 dt halvings")
        noise = 0.0
        if noise_seed is not None:
            rng = generator(noise_seed, *seed_parts)
            noise = math.sqrt(step / x.size) * rng.standard_normal(x.size)
        cand = x + step * _drift(x, state.beta) + noise
        if x.size <= 1 or np.all(np.diff(cand) > 0):
            return cand
        half = _attempt(x, step / 2.0, seed_parts + (0,), depth + 1)
        return _attempt(half, step / 2.0, seed_parts + (1,), depth + 1)

    new_x = _attempt(state.x, dt, (), 0)
    return ParticleState(x=new_x, beta=state.beta, time=state.time + dt)


def assumption_ii_stat(spectra, a: float, b: float) -> float:
    """|mean_samples N^-1 #{lambda in [a,b]} - semicircle mass of [a,b]|."""
    if not a < b:
        raise ConfigError(f"need a < b, got a={a}, b={b}")
    fracs = [np.mean((lam >= a) & (lam <= b)) for lam in map(eigenvalues, spectra)]
    return float(abs(np.mean(fracs) - (nsc_eval(b) - nsc_eval(a))))


def assumption_iii_stat(spectrum) -> float:
    """N^-1 sum_j (x_j - gamma_j)^2, the mean-square classical deviation."""
    lam = eigenvalues(spectrum)
    return rigidity_stat(lam).total / lam.size


def assumption_iv_stat(spectrum, interval, k_threshold: float, sigma: float = 0.1):
    """Local-density check: (N_I, indicator N_I >= K * N * |I|).

    interval must sit compactly inside (-2, 2) and be no shorter than
    N^(-1+sigma).
    """
    a, b = float(interval[0]), float(interval[1])
    lam = eigenvalues(spectrum)
    n = lam.size
    if not (-2.0 < a < b < 2.0):
        raise ConfigError(f"interval [{a}, {b}] must sit inside (-2, 2)")
    if (b - a) < n ** (-1.0 + sigma):
        raise ConfigError(f"interval shorter than N^(-1+sigma) = {n ** (-1.0 + sigma):.3g}")
    count = int(np.sum((lam >= a) & (lam <= b)))
    return count, bool(count >= k_threshold * n * (b - a))


def dump_trajectory(path, times, states, stride: int = 1) -> None:
    """CSV dump of (t, x_1..x_N) rows every `stride` snapshots."""
    columns = ["t"] + [f"x{i + 1}" for i in range(states[0].x.size)]
    rows = ([float(times[idx]), *states[idx].x] for idx in range(0, len(states), stride))
    write_csv(path, "dbm-trajectory", columns, rows)
