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

from .grid import DensityField, Grid, _scalar_or_array
from .params import KineticParams


# min(a, b) from which log C takes the asymptotic log-Beta: lam < 5e-4 at
# most; every lam from 5e-4 up keeps the log-gamma path and its bits
STIRLING_MIN = 2000.0


def _stirling_tail(x: float) -> float:
    """lgamma(x) - [(x - 1/2) log x - x + log(2 pi)/2] for x >= STIRLING_MIN,
    where the next term, 1/(1260 x^5), is below 3e-20."""
    return (1.0 / 12.0 - 1.0 / (360.0 * x * x)) / x


def _log_normalization_stirling(lam: float, m: float, a: float, b: float) -> float:
    """log C from Stirling's series in 1/a and 1/b.

    With s = a + b, p = (1 - m)/2 = a/s and q = (1 + m)/2 = b/s,
        log C = -s [p log(2p) + q log(2q)] + log(2ab/(pi s))/2
                - tail(a) - tail(b) + tail(s),
    the (a + b - 1) log 2 term merged into the first bracket before any
    rounding; log-gamma at a ~ 1e300 would cancel it at that magnitude.
    s [.] = (1/lam) [(1 - m) log1p(-m) + (1 + m) log1p(m)], which cancels
    to m^2/lam for small m; there it is (1/lam) [log1p(-m^2) + 2 m atanh m].
    """
    if abs(m) < 0.5:
        bracket = (math.log1p(-m * m) + 2.0 * m * math.atanh(m)) / lam
    else:
        bracket = a * math.log1p(-m) + b * math.log1p(m)
    # 2ab/(pi s) = (1 - m)(1 + m)/(pi lam), in logs: a * b overflows at 1e300
    log_prefactor = 0.5 * (math.log1p(-m) + math.log1p(m) - math.log(math.pi) - math.log(lam))
    return -bracket + log_prefactor - _stirling_tail(a) - _stirling_tail(b) + _stirling_tail(a + b)


def log_normalization(p: KineticParams) -> float:
    """log C with C = 1 / (2^(a+b-1) B(a, b)), via log-gamma.

    Direct quadrature of the unnormalized density is ill-conditioned when
    the exponents approach 0; the Euler Beta function in log space is not.
    Once min(a, b) >= STIRLING_MIN, log-gamma's terms would cancel against
    the log 2 term (at lam = 1e-300 no digit is left), so an asymptotic
    log-Beta takes over.
    """
    a = (1.0 - p.m) / p.lam
    b = (1.0 + p.m) / p.lam
    if min(a, b) >= STIRLING_MIN:
        log_c = _log_normalization_stirling(p.lam, p.m, a, b)
    else:
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        log_c = -((a + b - 1.0) * math.log(2.0) + log_beta)
    if not math.isfinite(log_c) or math.isinf(max(a, b)):
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
        # grouping keeps the m <-> -m mirror symmetry exact in floating point;
        # at exponents near 1e308 a negative term overflows to -inf, where v
        # is 0 (a positive one is at most exponent * log 2, which cannot)
        with np.errstate(over="ignore"):
            out = self.log_norm_constant + (
                (self.exponent_minus - 1.0) * np.log1p(-y_arr)
                + (self.exponent_plus - 1.0) * np.log1p(y_arr)
            )
        return _scalar_or_array(out)

    def value(self, y):
        """Pointwise density v(y), |y| < 1; OverflowError naming the count of
        points where v overflows, instead of inf and a RuntimeWarning."""
        with np.errstate(over="ignore"):
            out = np.exp(self.log_value(y))
        over = np.isinf(out)
        if over.any():
            raise OverflowError(
                f"the Beta steady state overflows on {over.sum()} of {over.size} points")
        return _scalar_or_array(out)

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
