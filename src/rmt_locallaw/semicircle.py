"""Closed-form semicircle-law machinery.

Stieltjes transform m_sc, density rho_sc, distribution function n_sc,
classical locations, the edge control function theta and the admissible
spectral domains used to gate experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "SpectralPoint",
    "ControlFunction",
    "msc_eval",
    "rho_sc",
    "nsc_eval",
    "classical_locations",
    "theta_eval",
    "in_domain",
]


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter z = e + i*eta with derived edge distance kappa."""

    e: float
    eta: float
    kappa: float = field(init=False)

    def __post_init__(self):
        if not self.eta > 0:
            raise DomainError(f"eta must be positive, got {self.eta}")
        object.__setattr__(self, "kappa", abs(abs(self.e) - 2.0))

    @property
    def z(self) -> complex:
        return complex(self.e, self.eta)


@dataclass(frozen=True)
class ControlFunction:
    """Parameters of the edge control function: profile gap and edge exponent."""

    delta_plus: float = 1.0
    edge_exponent_a: int = 1

    def __post_init__(self):
        if self.edge_exponent_a not in (1, 2):
            raise DomainError("edge exponent must be 1 or 2")


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


def msc_eval(point: SpectralPoint | complex) -> complex:
    """m_sc(z): the root of m^2 + z*m + 1 = 0 with positive imaginary part."""
    if isinstance(point, SpectralPoint):
        z = point.z
    else:
        z = complex(point)
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


def classical_locations(n: int, tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
    """Quantiles gamma_j with n_sc(gamma_j) = j/n, j = 1..n; gamma_n = 2 exactly.

    Bisection on [-2, 2] to `tol` in the energy variable; the j = n inversion
    is degenerate and is fixed to the edge by convention.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return np.array([2.0])
    targets = np.arange(1, n) / n
    lo = np.full(n - 1, -2.0)
    hi = np.full(n - 1, 2.0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        below = nsc_eval(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < tol:
            break
    gamma = np.empty(n)
    gamma[:-1] = 0.5 * (lo + hi)
    gamma[-1] = 2.0
    return gamma


def theta_eval(point: SpectralPoint, ctrl: ControlFunction, variant: str = "exact") -> float:
    """Edge control function.

    variant="exact":      1/|1 - m_sc^2| + 1/max(delta_plus, |Re m_sc^2 - 1|)
    variant="simplified": (kappa + eta)^(-1/2), valid for comparable-variance
                          profiles where delta_plus is order one.
    """
    if variant == "simplified":
        return float((point.kappa + point.eta) ** -0.5)
    if variant != "exact":
        raise ValueError(f"unknown theta variant {variant!r}")
    m2 = msc_eval(point) ** 2
    t1 = 1.0 / abs(1.0 - m2)
    t2 = 1.0 / max(ctrl.delta_plus, abs(m2.real - 1.0))
    return float(t1 + t2)


DOMAIN_VARIANTS = ("D", "D_theorem", "D_star")


def in_domain(
    point: SpectralPoint,
    ctrl: ControlFunction,
    n: int,
    m_param: float,
    variant: str = "D",
    log_alpha: float = 1.0,
    strict: bool = False,
) -> bool:
    """Admissibility of z for the scan domains.

    All variants require |E| <= 5 and 1/N < eta <= 10. The variant inequality:

      D:         sqrt(M*eta) >= P * (kappa+eta)^(1/4 - A)
      D_theorem: sqrt(M*eta) >= P * theta(z)^2 * (kappa+eta)^(1/4)
      D_star:    M*eta       >= P * theta(z)^4 * (kappa+eta)^(1/2)

    The asymptotic prefactor P is a power of log N whose literal value empties
    every desk-scale grid, so by default it is frozen to 1; strict=True
    evaluates the literal (ln N)^(12+3a) / (ln N)^(24+6a) prefactor instead.
    """
    if variant not in DOMAIN_VARIANTS:
        raise ValueError(f"unknown domain variant {variant!r}")
    if m_param < 1:
        raise DomainError(f"m_param must be >= 1, got {m_param}")
    if abs(point.e) > 5.0 or not (1.0 / n < point.eta <= 10.0):
        return False
    ke = point.kappa + point.eta
    meta = m_param * point.eta
    logn = math.log(n) if n > 1 else 1.0
    if variant == "D":
        pref = logn ** (12 + 3 * log_alpha) if strict else 1.0
        return math.sqrt(meta) >= pref * ke ** (0.25 - ctrl.edge_exponent_a)
    theta = theta_eval(point, ctrl)
    if variant == "D_theorem":
        pref = logn ** (12 + 3 * log_alpha) if strict else 1.0
        return math.sqrt(meta) >= pref * theta**2 * ke**0.25
    pref = logn ** (24 + 6 * log_alpha) if strict else 1.0
    return meta >= pref * theta**4 * math.sqrt(ke)
