"""Model parameters, admissibility regimes, and the entropy-method constants.

The macroscopic model is controlled by two numbers: the diffusion-to-drift
ratio ``lam`` (sigma^2/gamma in the microscopic picture, written lambda
elsewhere) and the conserved mean opinion ``m``.  Everything downstream
(steady state, convergence rates, inequality constants) is a function of
this pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class RegimeError(ValueError):
    """Raised when an operation needs a stronger parameter regime than given."""


@dataclass(frozen=True)
class KineticParams:
    """Parameter pair (lam, m) with lam > 0 and -1 < m < 1.

    lam is the ratio of self-thinking variance to compromise intensity;
    small lam means compromise-dominated interactions, large lam means
    self-thinking dominated ones.  m is the mean opinion, conserved by
    the dynamics.
    """

    lam: float
    m: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be a positive finite real, got {self.lam}")
        if not (math.isfinite(self.m) and -1.0 < self.m < 1.0):
            raise ValueError(f"m must lie strictly inside (-1, 1), got {self.m}")


class ParamRegime(enum.IntEnum):
    """Nested admissibility classes, ordered by restrictiveness.

    GENERAL          always holds (lam > 0, |m| < 1).
    L2_EQUILIBRIUM   the steady state is square-integrable: 1 - lam/2 > 0
                     for m = 0, and 1 - lam/2 >= |m| for m != 0.  This is
                     the regime where the weighted log-Sobolev inequality
                     carries an explicit constant.
    VANISHING_BOUNDARY  1 - lam > |m|: the steady state (and the solution)
                     vanish at both endpoints.
    """

    GENERAL = 0
    L2_EQUILIBRIUM = 1
    VANISHING_BOUNDARY = 2


def classify_params(p: KineticParams) -> ParamRegime:
    """Return the most restrictive regime satisfied by ``p``.

    Both inequalities are decided on the floats taken exactly, 1 - lam - |m|
    and 1 - lam/2 - |m| summed by math.fsum: a rounded 1 - lam/2 can land on
    or past |m| where the exact one falls short, as at (0.2, 0.9).
    """
    m = abs(p.m)
    if math.fsum((1.0, -p.lam, -m)) > 0.0:
        return ParamRegime.VANISHING_BOUNDARY
    gap = math.fsum((1.0, -p.lam / 2.0, -m))
    if gap > 0.0 or (gap == 0.0 and m != 0.0):
        return ParamRegime.L2_EQUILIBRIUM
    return ParamRegime.GENERAL


def bakry_emery_rho(p: KineticParams) -> float:
    """Uniform convexity bound of the transformed log-density potential.

    With c = 1 - lam/2, the minimum of the potential's second derivative
    over the angular interval is (c + sqrt(c^2 - m^2))/2, which is c for
    m = 0.  Strictly positive on the admissible set and never larger than 1.
    The square root falls to 0 at |m| = c, where the rounding of c or of
    c^2 - m^2 would move it by up to sqrt(eps) ~ 1e-8; so c^2 - m^2 is taken
    as (c - |m|)(c + |m|), with c - |m| = 1 - lam/2 - |m| summed exactly.
    """
    if classify_params(p) < ParamRegime.L2_EQUILIBRIUM:
        raise RegimeError(
            "bakry_emery_rho requires a square-integrable equilibrium "
            f"(1 - lam/2 >= |m|, strict for m = 0); got lam={p.lam}, m={p.m}"
        )
    c, m = 1.0 - p.lam / 2.0, abs(p.m)
    gap = math.fsum((1.0, -p.lam / 2.0, -m))  # >= 0, as classify_params decides
    return 0.5 * (c + math.sqrt(gap * (c + m)))


def log_sobolev_constant(p: KineticParams) -> float:
    """Constant K = 1/(2 rho), rho = bakry_emery_rho(p), relating relative
    entropy to weighted Fisher information.

    K = (c + sqrt(c^2 - m^2))^{-1} with c = 1 - lam/2.  Entropy along the
    flow decays at least like exp(-t/K).
    """
    return 1.0 / (2.0 * bakry_emery_rho(p))
