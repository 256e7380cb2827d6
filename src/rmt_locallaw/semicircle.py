"""Closed-form semicircle-law machinery.

Stieltjes transform m_sc, density rho_sc, distribution function n_sc,
classical locations, the edge control function theta and the admissible
spectral domains used to gate experiments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "msc_eval",
    "rho_sc",
    "nsc_eval",
    "classical_locations",
    "theta_eval",
    "in_domain",
]


def _msc(z):
    """Stieltjes transform of the semicircle law, vectorized over z.

    Branch: sqrt(z-2)*sqrt(z+2) with principal square roots, sign flipped
    where the imaginary part would come out nonpositive. This is robust next
    to the cut [-2, 2] and matches sqrt(z^2-4) ~ z at infinity.
    """
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
    m = 0.5 * (-z + s)
    m_alt = 0.5 * (-z - s)
    return np.where(m.imag > 0, m, m_alt)


def msc_eval(z: complex) -> complex:
    """m_sc(z): the root of m^2 + z*m + 1 = 0 with positive imaginary part."""
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"Im z must be positive, got {z.imag}")
    return complex(_msc(z))


def rho_sc(e):
    """Semicircle density (2*pi)^-1 sqrt((4 - E^2)_+)."""
    e = np.asarray(e, dtype=float)
    out = np.sqrt(np.clip(4.0 - e * e, 0.0, None)) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def nsc_eval(e):
    """Distribution function of the semicircle law, clamped to [0, 1].

    Closed form 1/2 + E*sqrt(4-E^2)/(4*pi) + arcsin(E/2)/pi on [-2, 2].
    """
    e = np.asarray(e, dtype=float)
    ec = np.clip(e, -2.0, 2.0)
    val = 0.5 + ec * np.sqrt(4.0 - ec * ec) / (4.0 * math.pi) + np.arcsin(ec / 2.0) / math.pi
    out = np.clip(val, 0.0, 1.0)
    return out if out.ndim else float(out)


def classical_locations(n: int) -> np.ndarray:
    """Quantiles gamma_j with n_sc(gamma_j) = j/n, j = 1..n; gamma_n = 2 exactly.

    Bisection on [-2, 2] to 1e-12 in the energy variable (at most 200
    halvings); the j = n inversion is degenerate and is fixed to the edge by
    convention.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return np.array([2.0])
    targets = np.arange(1, n) / n
    lo = np.full(n - 1, -2.0)
    hi = np.full(n - 1, 2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = nsc_eval(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < 1e-12:
            break
    gamma = np.empty(n)
    gamma[:-1] = 0.5 * (lo + hi)
    gamma[-1] = 2.0
    return gamma


def theta_eval(z: complex, delta_plus: float) -> float:
    """Edge control function 1/|1 - m_sc^2| + 1/max(delta_plus, |Re m_sc^2 - 1|),
    with delta_plus floored at 1e-12, so that a profile with no gap still
    gives a finite theta."""
    m2 = msc_eval(z) ** 2
    t1 = 1.0 / abs(1.0 - m2)
    t2 = 1.0 / max(delta_plus, 1e-12, abs(m2.real - 1.0))
    return float(t1 + t2)


def in_domain(z: complex, n: int, m_param: float, delta_plus: float, edge_exponent_a: int, variant: str) -> bool:
    """Admissibility of z = E + i*eta for the scan domains of a profile with
    dimension n, M = m_param, gap delta_plus and edge exponent A.

    All variants require |E| <= 5 and 1/N < eta <= 10. With kappa = ||E| - 2|,
    the variant inequality:

      D:      sqrt(M*eta) >= P * (kappa+eta)^(1/4 - A)   (the local-law scan)
      D_star: M*eta       >= P * theta(z)^4 * (kappa+eta)^(1/2)   (zmoments)

    The asymptotic prefactor P is a power of log N whose literal value empties
    every desk-scale grid, so it is frozen to 1.
    """
    if variant not in ("D", "D_star"):
        raise ValueError(f"unknown domain variant {variant!r}")
    if m_param < 1:
        raise DomainError(f"m_param must be >= 1, got {m_param}")
    z = complex(z)
    e, eta = z.real, z.imag
    if abs(e) > 5.0 or not (1.0 / n < eta <= 10.0):
        return False
    ke = abs(abs(e) - 2.0) + eta
    meta = m_param * eta
    if variant == "D":
        return math.sqrt(meta) >= ke ** (0.25 - edge_exponent_a)
    return meta >= theta_eval(z, delta_plus) ** 4 * math.sqrt(ke)
