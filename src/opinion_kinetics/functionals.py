"""Lyapunov functionals and inequality slacks on gridded densities.

All functionals are midpoint sums over cell centers; derivative terms use
interface-centered differences so they mirror the flux structure of the
finite-volume solver.  Reference densities may be passed either as a
BetaEquilibrium (center-sampled and renormalized on the fly) or as an
explicit DensityField (e.g. the solver's own discrete steady state).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

from .equilibrium import BetaEquilibrium
from .grid import DensityField, Grid, require_same_grid
from .params import KineticParams, log_sobolev_constant


class AbsoluteContinuityError(ValueError):
    """f puts mass where the reference density vanishes."""


class PositivityError(ValueError):
    """An operation needed a strictly positive density."""


def _entropy_series(u: np.ndarray) -> np.ndarray:
    """sum_{k=2}^{10} (-1)^k u^k / (k(k-1)), Horner in u, in a new array."""
    acc = np.full_like(u, 1.0 / 90.0)
    for k in range(9, 1, -1):
        acc *= u
        acc += (1.0 if k % 2 == 0 else -1.0) / (k * (k - 1))
    acc *= u
    acc *= u
    return acc


def _entropy_core(r: np.ndarray) -> np.ndarray:
    """r log r - r + 1, elementwise, accurate through r = 1.

    The direct formula loses all significant digits once r - 1 falls below
    sqrt(eps); a short Taylor series takes over on those cells (|r - 1| <
    0.01) so entropies as small as ~1e-30 remain meaningful.  Each formula
    is evaluated only on the cells that use it.
    """
    r = np.asarray(r, dtype=float)
    u = r - 1.0
    near = np.abs(u) < 0.01
    if near.all():
        return _entropy_series(u)
    out = xlogy(r, r) - u
    if near.any():
        out[near] = _entropy_series(u[near])
    return out


def entropy_gap(f_values: np.ndarray, g_values: np.ndarray, dy: float) -> float:
    """sum g * (r log r - r + 1) dy with r = f/g, over cells with g > 0.

    Nonnegative term by term; coincides with the relative entropy when both
    fields carry unit mass, but stays accurate down to roundoff-level
    discrepancies (no mass-cancellation noise), which matters when fitting
    entropy decay over many orders of magnitude.
    """
    g, f = g_values, f_values
    pos = g > 0.0
    if not pos.all():
        if np.any(f[~pos] > 0.0):
            raise AbsoluteContinuityError("f > 0 on a cell where the reference vanishes")
        g, f = g[pos], f[pos]
    return float((g * _entropy_core(f / g)).sum() * dy)


def relative_entropy(f: DensityField, g: DensityField) -> float:
    """Relative Shannon entropy sum f log(f/g) dy, with 0 log 0 = 0.

    Nonnegative (within roundoff) whenever both fields carry unit discrete
    mass.  Raises AbsoluteContinuityError if f puts mass on a cell where g
    vanishes.
    """
    grid = require_same_grid(f, g)
    dy = grid.cell_width
    core = entropy_gap(f.values, g.values, dy)
    return core + (f.values.sum() - g.values.sum()) * dy


def log_ratio(f: DensityField, ref: DensityField) -> np.ndarray:
    """log(f/ref) per cell; requires both strictly positive."""
    require_same_grid(f, ref)
    if np.any(f.values <= 0.0):
        raise PositivityError("log ratio needs strictly positive f")
    if np.any(ref.values <= 0.0):
        raise PositivityError("log ratio needs a strictly positive reference")
    return np.log(f.values) - np.log(ref.values)


def _reference_field(eq, grid: Grid) -> DensityField:
    if isinstance(eq, BetaEquilibrium):
        return eq.on_grid(grid)
    if isinstance(eq, DensityField):
        return eq
    raise TypeError(f"expected BetaEquilibrium or DensityField, got {type(eq)!r}")


def weighted_fisher(f: DensityField, eq, lam: float) -> float:
    """Weighted Fisher information with diffusion weight (lam/2)(1 - y^2).

    Interface-centered differences of log(f/eq) with arithmetic-mean density
    weights: sum over interior interfaces of
        (lam/2)(1 - y_if^2) * ((dlog r)/dy)^2 * (f_i + f_{i+1})/2 * dy.
    Zero when f is proportional to the reference.
    """
    ref = _reference_field(eq, f.grid)
    logr = log_ratio(f, ref)
    grid = f.grid
    dy = grid.cell_width
    dlogr = np.diff(logr) / dy
    weight = 0.5 * lam * (1.0 - grid.interior_interfaces**2)
    f_mid = 0.5 * (f.values[:-1] + f.values[1:])
    return float((weight * dlogr * dlogr * f_mid).sum() * dy)


def weighted_l2(f: DensityField, eq) -> float:
    """Equilibrium-weighted L2 distance sum (f - v)^2 / v dy."""
    ref = _reference_field(eq, f.grid)
    require_same_grid(f, ref)
    v = ref.values
    if np.any(v <= 0.0):
        raise PositivityError("weighted L2 needs a strictly positive reference")
    d = f.values - v
    return float((d * d / v).sum() * f.grid.cell_width)


def l1_distance(f: DensityField, g: DensityField) -> float:
    """L1 distance sum |f - g| dy (total variation times two at most)."""
    grid = require_same_grid(f, g)
    return float(np.abs(f.values - g.values).sum() * grid.cell_width)


def ckp_slack(f: DensityField, g: DensityField) -> float:
    """Csiszar-Kullback-Pinsker slack 2 H(f,g) - ||f-g||_1^2.

    Nonnegative for every pair of unit-mass fields; +inf when absolute
    continuity fails (the entropy side is then infinite).
    """
    try:
        h = relative_entropy(f, g)
    except AbsoluteContinuityError:
        return math.inf
    return 2.0 * h - l1_distance(f, g) ** 2


def ls_slack(phi: DensityField, p: KineticParams, eq=None) -> float:
    """Slack of the weighted log-Sobolev inequality: K * I(phi, v) - H(phi, v).

    Requires the square-integrable-equilibrium regime.  Nonnegative up to a
    discretization allowance (~1e-6 for smooth positive phi at n >= 400).
    An explicit reference field may be supplied; the default is the
    center-sampled analytic equilibrium.
    """
    k = log_sobolev_constant(p)
    ref = _reference_field(eq if eq is not None else BetaEquilibrium.from_params(p),
                           phi.grid)
    return k * weighted_fisher(phi, ref, p.lam) - relative_entropy(phi, ref)


def uniform_ls_slack(grid: Grid, w: np.ndarray) -> float:
    """Slack of the unconstrained log-Sobolev inequality for the uniform state.

    For any square-integrable w:
        2 sum (1-x^2) (w')^2 dy  >=  sum w^2 log w^2 dy - ||w||^2 log(||w||^2 / 2)
    with the same interface-difference stencil as weighted_fisher.  Returns
    left minus right; scales exactly quadratically under w -> alpha w.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n_cells,):
        raise ValueError("w must have one value per grid cell")
    dy = grid.cell_width
    wsq = w * w
    norm2 = float(wsq.sum() * dy)
    if norm2 == 0.0:
        raise ValueError("w must not be identically zero")
    dw = np.diff(w) / dy
    lhs = 2.0 * float(((1.0 - grid.interior_interfaces**2) * dw * dw).sum() * dy)
    rhs = float(xlogy(wsq, wsq).sum() * dy) - norm2 * math.log(norm2 / 2.0)
    return lhs - rhs
