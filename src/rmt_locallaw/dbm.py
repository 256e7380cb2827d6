"""Ornstein-Uhlenbeck matrix flow.

The flow h_t = e^(-t/2) h_0 + (1 - e^(-t))^(1/2) v is exact (no
discretization): at each time t, h_t has the law of the matrix OU process
started at h_0, whose eigenvalues follow Dyson Brownian motion.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import ROW_BLOCK, MatrixSample, catalog_distribution
from .errors import ConfigError

__all__ = ["flow_interpolate"]

_GAUSSIAN_ID = catalog_distribution("gaussian").dist_id


def flow_interpolate(h0: MatrixSample, v: MatrixSample, t: float, out: np.ndarray) -> MatrixSample:
    """The sample h_t = e^(-t/2) h0 + (1 - e^(-t))^(1/2) v of the exact OU flow.

    The entries go into `out`, a C-ordered array of h0's shape and dtype
    (such as np.empty_like of h0's entries), which the sample wraps
    writable: a sample handed over (MatrixSample), which an eigensolver
    may overwrite. Each entry is the sum
    of the two products, formed ROW_BLOCK rows at a time, so that their
    temporaries are ROW_BLOCK x n; at t = 0, h_t is h0 to the bit.
    """
    if t < 0:
        raise ConfigError(f"flow time must be >= 0, got {t}")
    if h0.profile_id != v.profile_id or h0.symmetry_class != v.symmetry_class:
        raise ConfigError("flow endpoints must share profile and symmetry class")
    if v.dist_id != _GAUSSIAN_ID:
        raise ConfigError(f"comparison matrix must be Gaussian, got {v.dist_id!r}")
    a, g = h0.entries, v.entries
    if t == 0:
        np.copyto(out, a)
    else:
        c0 = math.exp(-t / 2.0)
        cg = math.sqrt(-math.expm1(-t))
        for r0 in range(0, a.shape[0], ROW_BLOCK):
            rows = slice(r0, r0 + ROW_BLOCK)
            np.multiply(c0, a[rows], out=out[rows])
            out[rows] += cg * g[rows]
    return MatrixSample(
        symmetry_class=h0.symmetry_class,
        entries=out,
        profile_id=h0.profile_id,
        dist_id=f"flow(t={t:g};{h0.dist_id})",
        seed=h0.seed,
    )
