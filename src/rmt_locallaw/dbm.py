"""Ornstein-Uhlenbeck matrix flow.

The flow h_t = e^(-t/2) h_0 + (1 - e^(-t))^(1/2) v is exact (no
discretization): at each time t, h_t has the law of the matrix OU process
started at h_0, whose eigenvalues follow Dyson Brownian motion.
"""

from __future__ import annotations

import math

from .ensembles import MatrixSample, catalog_distribution
from .errors import ConfigError

__all__ = ["flow_interpolate"]

_GAUSSIAN_ID = catalog_distribution("gaussian").dist_id


def flow_interpolate(h0: MatrixSample, v: MatrixSample, t: float) -> MatrixSample:
    """The sample h_t = e^(-t/2) h0 + (1 - e^(-t))^(1/2) v of the exact OU flow."""
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
    return MatrixSample(
        symmetry_class=h0.symmetry_class,
        entries=entries,
        profile_id=h0.profile_id,
        dist_id=f"flow(t={t:g};{h0.dist_id})",
        seed=h0.seed,
    )
