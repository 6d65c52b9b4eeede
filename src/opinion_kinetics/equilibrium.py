"""The Beta-type steady state of the opinion Fokker-Planck equation.

For parameters (lam, m) the stationary density on (-1, 1) is

    v(y) = C * (1 - y)^(a - 1) * (1 + y)^(b - 1),
    a = (1 - m)/lam,  b = (1 + m)/lam,

a Beta density stretched to (-1, 1).  It integrates to one for every
admissible pair, vanishes at both endpoints when lam < 1 - |m|, and blows
up at an endpoint once lam exceeds 1 -+ m.  All evaluation happens in log
space and is exponentiated last, so extreme exponents are survivable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DensityField, Grid
from .params import KineticParams


def _scalar_or_array(values):
    """A pointwise result as callers get it: a float for 0-d input, the
    ndarray for anything else (a list included)."""
    return float(values) if np.ndim(values) == 0 else values


def _exp_density(log_values, what: str):
    """exp of log density values; OverflowError naming the count of points
    where a value overflows, instead of inf and a RuntimeWarning."""
    with np.errstate(over="ignore"):
        out = np.exp(log_values)
    over = np.isinf(out)
    if over.any():
        raise OverflowError(f"{what} overflows on {over.sum()} of {over.size} points")
    return _scalar_or_array(out)


def log_normalization(p: KineticParams) -> float:
    """log C with C = 1 / (2^(a+b-1) B(a, b)), via log-gamma.

    Direct quadrature of the unnormalized density is ill-conditioned when
    the exponents approach 0; the Euler Beta function in log space is not.
    """
    a = (1.0 - p.m) / p.lam
    b = (1.0 + p.m) / p.lam
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_c = -((a + b - 1.0) * math.log(2.0) + log_beta)
    if not math.isfinite(log_c):
        raise OverflowError(
            f"normalization constant overflowed for exponents a={a}, b={b}"
        )
    return log_c


@dataclass(frozen=True)
class BetaEquilibrium:
    """Steady state with cached exponents and log normalization constant."""

    params: KineticParams
    exponent_minus: float  # a = (1 - m)/lam, power of (1 - y) plus one
    exponent_plus: float   # b = (1 + m)/lam, power of (1 + y) plus one
    log_norm_constant: float

    @classmethod
    def from_params(cls, p: KineticParams) -> "BetaEquilibrium":
        a = (1.0 - p.m) / p.lam
        b = (1.0 + p.m) / p.lam
        return cls(p, a, b, log_normalization(p))

    def log_value(self, y):
        """log v(y) for |y| < 1 (scalar or array)."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(np.abs(y_arr) >= 1.0):
            raise ValueError("equilibrium is defined on the open interval (-1, 1)")
        # grouping keeps the m <-> -m mirror symmetry exact in floating point
        out = self.log_norm_constant + (
            (self.exponent_minus - 1.0) * np.log1p(-y_arr)
            + (self.exponent_plus - 1.0) * np.log1p(y_arr)
        )
        return _scalar_or_array(out)

    def value(self, y):
        """Pointwise density v(y), |y| < 1."""
        return _exp_density(self.log_value(y), "the Beta steady state")

    def on_grid(self, grid: Grid) -> DensityField:
        """Center-sampled equilibrium as a DensityField, rescaled to unit
        discrete mass, which keeps the discrete entropy functionals
        nonnegative by Jensen's inequality.  FloatingPointError when every
        cell underflows to 0 (at tiny lam the peak falls between centers)."""
        v = self.value(grid.centers)
        mass = v.sum() * grid.cell_width
        if mass == 0.0:
            raise FloatingPointError(
                f"the analytic steady state underflows to 0 on all {v.size} cells")
        return DensityField(grid, v / mass)

    def mean(self) -> float:
        """First moment; equals m for every admissible pair."""
        return self.params.m

    def variance(self) -> float:
        """Second central moment: lam (1 - m^2) / (lam + 2)."""
        p = self.params
        return p.lam * (1.0 - p.m * p.m) / (p.lam + 2.0)
