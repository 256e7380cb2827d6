"""Four-moment arithmetic.

Construction of standardized laws with prescribed third and fourth moments,
the Gaussian-divisible moment transform and the approximate fourth-moment
matching with its exact mismatch slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EntryDistribution
from .errors import ConfigError, MomentInfeasibleError

__all__ = [
    "MomentTarget",
    "MatchedLaw",
    "three_point_construct",
    "gaussian_divisible_transform",
    "match_four_moments",
    "m4_gap_slope",
]

_DEFAULT_M4_CAP = 100.0


@dataclass(frozen=True)
class MomentTarget:
    """Target (m3, m4) of a standardized law; must satisfy m4 - m3^2 - 1 >= 0."""

    m3: float
    m4: float
    m4_cap: float = _DEFAULT_M4_CAP

    def __post_init__(self):
        if self.m4 - self.m3**2 - 1.0 < -1e-12:
            raise MomentInfeasibleError(
                f"infeasible target: m4 - m3^2 - 1 = {self.m4 - self.m3 ** 2 - 1.0:.3g} < 0"
            )
        if self.m4 > self.m4_cap:
            raise MomentInfeasibleError(f"m4 = {self.m4} exceeds the cap {self.m4_cap}")


def three_point_construct(t: MomentTarget) -> EntryDistribution:
    """Bounded-support law with moments (0, 1, m3, m4), exactly.

    Mixture of an atom at 0 (weight 1 - 1/(m4 - m3^2)) with a two-point law
    at {s*a, -s/a}, s = sqrt(m4 - m3^2), a the positive root of
    a - 1/a = m3/s. Degenerates to the pure two-point law when
    m4 = m3^2 + 1.
    """
    s2 = t.m4 - t.m3**2
    s = math.sqrt(s2)
    w0 = 1.0 - 1.0 / s2
    mu = t.m3 / s
    a = (mu + math.sqrt(mu * mu + 4.0)) / 2.0
    p_plus = 1.0 / (1.0 + a * a)
    p_minus = a * a / (1.0 + a * a)
    atoms = [(s * a, (1.0 - w0) * p_plus), (-s / a, (1.0 - w0) * p_minus)]
    if w0 > 1e-15:
        atoms.append((0.0, w0))
    vals = np.array([v for v, _ in atoms])
    probs = np.array([p for _, p in atoms])
    for k, target in ((1, 0.0), (2, 1.0), (3, t.m3), (4, t.m4)):
        got = float(np.sum(probs * vals**k))
        if abs(got - target) > 1e-12 * max(1.0, abs(target)):
            raise MomentInfeasibleError(f"construction drifted: m{k} = {got}, wanted {target}")
    return EntryDistribution(kind="discrete-atoms", atoms=tuple(atoms), dist_id=f"three-point({t.m3:g},{t.m4:g})")


def gaussian_divisible_transform(m3_in: float, m4_in: float, gamma: float):
    """Moments of sqrt(1-gamma)*xi + sqrt(gamma)*N(0,1) given the moments of xi.

    m3' = (1-gamma)^(3/2) m3,  m4' = (1-gamma)^2 m4 + 6 gamma - 3 gamma^2.
    """
    if not 0 <= gamma < 1:
        raise ConfigError(f"gamma must be in [0, 1), got {gamma}")
    return (1.0 - gamma) ** 1.5 * m3_in, (1.0 - gamma) ** 2 * m4_in + 6.0 * gamma - 3.0 * gamma**2


def m4_gap_slope(m3: float, m4: float, gamma: float) -> float:
    """Exact fourth-moment mismatch per unit gamma for the matching construction.

    The achieved m4 differs from the target by gamma * R with
    R = m3^2 (3 - 3g + g^2)/(1 - g) + 6 - 3g - (2 - g) m4; the 4*gamma
    matching bound is provable exactly where |R| <= 4.
    """
    return m3 * m3 * (3.0 - 3.0 * gamma + gamma * gamma) / (1.0 - gamma) + 6.0 - 3.0 * gamma - (2.0 - gamma) * m4


@dataclass(frozen=True)
class MatchedLaw:
    """Gaussian-divisible law matching a moment target.

    xi' = sqrt(1-gamma) xi_gamma + sqrt(gamma) xi_G matches m3 exactly; the
    fourth-moment gap equals gamma * |R| (see m4_gap_slope) and is below
    4*gamma exactly on the band |R| <= 4.
    """

    xi_gamma: EntryDistribution
    gamma: float
    achieved_m3: float
    achieved_m4: float
    target: MomentTarget

    @property
    def m4_gap(self) -> float:
        return abs(self.achieved_m4 - self.target.m4)

    def to_distribution(self) -> EntryDistribution:
        return EntryDistribution(
            kind="gaussian-divisible",
            atoms=self.xi_gamma.atoms,
            gamma=self.gamma,
            dist_id=f"matched({self.target.m3:g},{self.target.m4:g};g={self.gamma:g})",
        )


def match_four_moments(t: MomentTarget, gamma: float) -> MatchedLaw:
    """Build the Gaussian-divisible approximation of a moment target.

    The discrete component xi_gamma carries the inflated targets
    m3(xi_gamma) = (1-gamma)^(-3/2) m3 and
    m4(xi_gamma) = m3(xi_gamma)^2 + (m4 - m3^2); feasibility of the inflated
    pair is automatic. The third moment of xi' is exact; the fourth lands
    within 4*gamma exactly when |m4_gap_slope(m3, m4, gamma)| <= 4.
    """
    if not 0 < gamma < 1:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    m3_g = (1.0 - gamma) ** -1.5 * t.m3
    m4_g = m3_g**2 + (t.m4 - t.m3**2)
    xi_gamma = three_point_construct(MomentTarget(m3_g, m4_g, m4_cap=t.m4_cap * 4))
    m3_out, m4_out = gaussian_divisible_transform(m3_g, m4_g, gamma)
    return MatchedLaw(
        xi_gamma=xi_gamma,
        gamma=gamma,
        achieved_m3=m3_out,
        achieved_m4=m4_out,
        target=t,
    )
