"""Lyapunov functionals and inequality slacks on gridded densities.

All functionals are midpoint sums over cell centers; derivative terms use
interface-centered differences so they mirror the flux structure of the
finite-volume solver.  Every reference density is a DensityField on the
same grid: the solver's own discrete steady state, or the analytic one
sampled on the grid by BetaEquilibrium.on_grid (ls_slack's default).

Every sum runs along the last axis.  Each functional has one private
kernel on raw values (_relative_entropy, _weighted_fisher, _weighted_l2,
_l1_distance) that its public one-row function calls and that the stacked
callers call on a (rows, n) stack in a single pass: ls_slack_rows for the
log-Sobolev battery and solver.solve for the sampled rows of each block.
Row i of a stack gives bit for bit what the one-row call gives for row i.
entropy_gap and uniform_ls_slack take a stack as well as one row.

The entropy kernel and the log ratio take numpy's vectorised log.  xlogy,
scipy.special's own ufunc, remains only in uniform_ls_slack; it is loaded
from its extension file by _scipy: importing scipy.special would load
scipy's array-API layer, the larger part of the package's import time.
"""

from __future__ import annotations

import math

import numpy as np

from ._scipy import xlogy
from .equilibrium import BetaEquilibrium
from .grid import DensityField, Grid, GridMismatchError, check_density_values, require_same_grid
from .params import KineticParams, log_sobolev_constant


class AbsoluteContinuityError(ValueError):
    """f puts mass where the reference density vanishes."""


class PositivityError(ValueError):
    """An operation needed a strictly positive density."""


def _entropy_series(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_{k=2}^{10} (-1)^k u^k / (k(k-1)), Horner in u, written into out
    (shaped like u) and returned."""
    out.fill(1.0 / 90.0)
    for k in range(9, 1, -1):
        out *= u
        out += (1.0 if k % 2 == 0 else -1.0) / (k * (k - 1))
    out *= u
    out *= u
    return out


def _entropy_core(r: np.ndarray) -> np.ndarray:
    """r log r - r + 1, elementwise, accurate through r = 1, in a new array.

    The direct formula, r * log(r) - (r - 1) with numpy's log, loses all
    significant digits once r - 1 falls below sqrt(eps); a short Taylor
    series takes over on those cells (|r - 1| < 0.01) so entropies as small
    as ~1e-30 remain meaningful.  Each formula is evaluated only on the
    cells that use it.  0 log 0 = 0, so r = 0 gives exactly 1; r < 0 and
    NaN give NaN without a warning, as scipy's xlogy does.  Besides r it
    holds two arrays of its size, u = r - 1 and the result, the masks, and
    a copy of u on the series cells.
    """
    r = np.asarray(r, dtype=float)
    u = r - 1.0
    out = np.abs(u)
    near = out < 0.01
    if near.all():
        return _entropy_series(u, out)
    # log 1 = 0 on the r = 0 cells; the log of r < 0 is a quiet NaN.  (Not
    # r + (r == 0): adding the mask casts it through a 64 kB buffer.)
    np.copyto(out, r)
    np.copyto(out, 1.0, where=r == 0.0)
    with np.errstate(invalid="ignore"):
        np.log(out, out=out)
    out *= r
    out -= u
    if near.any():
        # u is needed only on the series cells now: its front takes their series
        u_near = u[near]
        out[near] = _entropy_series(u_near, u.reshape(-1)[:u_near.size])
    return out


def entropy_gap(f_values: np.ndarray, g_values: np.ndarray, dy: float) -> float | np.ndarray:
    """sum g * (r log r - r + 1) dy with r = f/g, over cells with g > 0.

    Nonnegative term by term; coincides with the relative entropy when both
    fields carry unit mass, but stays accurate down to roundoff-level
    discrepancies (no mass-cancellation noise), which matters when fitting
    entropy decay over many orders of magnitude.  A float for one row of
    f_values; an array with one value per row for a (rows, n) stack.
    """
    g, f = g_values, f_values
    pos = g > 0.0
    if not pos.all():
        if np.any(f[..., ~pos] > 0.0):
            raise AbsoluteContinuityError("f > 0 on a cell where the reference vanishes")
        g, f = g[pos], f[..., pos]
    terms = _entropy_core(f / g)
    terms *= g
    gap = terms.sum(axis=-1) * dy
    return float(gap) if gap.ndim == 0 else gap


def _relative_entropy(f_values: np.ndarray, g: DensityField) -> np.ndarray:
    dy = g.grid.cell_width
    return entropy_gap(f_values, g.values, dy) + (f_values.sum(axis=-1) - g.values.sum()) * dy


def relative_entropy(f: DensityField, g: DensityField) -> float:
    """Relative Shannon entropy sum f log(f/g) dy, with 0 log 0 = 0.

    Nonnegative (within roundoff) whenever both fields carry unit discrete
    mass.  Raises AbsoluteContinuityError if f puts mass on a cell where g
    vanishes.
    """
    require_same_grid(f, g)
    return float(_relative_entropy(f.values, g))


def _log_ratio(f_values: np.ndarray, ref: DensityField) -> np.ndarray:
    """log(f/ref) per cell; requires both strictly positive."""
    if np.any(f_values <= 0.0):
        raise PositivityError("log ratio needs strictly positive f")
    if np.any(ref.values <= 0.0):
        raise PositivityError("log ratio needs a strictly positive reference")
    return np.log(f_values) - np.log(ref.values)


def _weighted_fisher(f_values: np.ndarray, ref: DensityField, lam: float) -> np.ndarray:
    grid = ref.grid
    dy = grid.cell_width
    dlogr = np.diff(_log_ratio(f_values, ref), axis=-1) / dy
    weight = 0.5 * lam * (1.0 - grid.interior_interfaces**2)
    f_mid = 0.5 * (f_values[..., :-1] + f_values[..., 1:])
    return (weight * dlogr * dlogr * f_mid).sum(axis=-1) * dy


def weighted_fisher(f: DensityField, eq: DensityField, lam: float) -> float:
    """Weighted Fisher information with diffusion weight (lam/2)(1 - y^2).

    Interface-centered differences of log(f/eq) with arithmetic-mean density
    weights: sum over interior interfaces of
        (lam/2)(1 - y_if^2) * ((dlog r)/dy)^2 * (f_i + f_{i+1})/2 * dy.
    Zero when f is proportional to the reference.
    """
    require_same_grid(f, eq)
    return float(_weighted_fisher(f.values, eq, lam))


def _weighted_l2(f_values: np.ndarray, ref: DensityField) -> np.ndarray:
    v = ref.values
    if np.any(v <= 0.0):
        raise PositivityError("weighted L2 needs a strictly positive reference")
    d = f_values - v
    return (d * d / v).sum(axis=-1) * ref.grid.cell_width


def weighted_l2(f: DensityField, eq: DensityField) -> float:
    """Equilibrium-weighted L2 distance sum (f - v)^2 / v dy."""
    require_same_grid(f, eq)
    return float(_weighted_l2(f.values, eq))


def _l1_distance(f_values: np.ndarray, g: DensityField) -> np.ndarray:
    return np.abs(f_values - g.values).sum(axis=-1) * g.grid.cell_width


def l1_distance(f: DensityField, g: DensityField) -> float:
    """L1 distance sum |f - g| dy (total variation times two at most)."""
    require_same_grid(f, g)
    return float(_l1_distance(f.values, g))


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


def ls_slack(phi: DensityField, p: KineticParams, eq: DensityField | None = None) -> float:
    """Slack of the weighted log-Sobolev inequality: K * I(phi, v) - H(phi, v).

    Requires the square-integrable-equilibrium regime.  Nonnegative up to a
    discretization allowance (~1e-6 for smooth positive phi at n >= 400).
    An explicit reference field may be supplied; the default is the
    center-sampled analytic equilibrium on phi's grid.
    """
    if eq is None:
        eq = BetaEquilibrium.from_params(p).on_grid(phi.grid)
    return float(ls_slack_rows(phi.values, p, eq))


def ls_slack_rows(values: np.ndarray, p: KineticParams, ref: DensityField) -> np.ndarray:
    """ls_slack of each row of a (rows, n) stack of density values.

    The rows are checked once, as a DensityField and the log ratio check
    one field: finite, nonnegative, and strictly positive.
    """
    k = log_sobolev_constant(p)
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (ref.grid.n_cells,):
        raise GridMismatchError(
            f"values of shape {v.shape} do not fit a grid with {ref.grid.n_cells} cells"
        )
    check_density_values(v)
    return k * _weighted_fisher(v, ref, p.lam) - _relative_entropy(v, ref)


def uniform_ls_slack(grid: Grid, w: np.ndarray) -> float | np.ndarray:
    """Slack of the unconstrained log-Sobolev inequality for the uniform state.

    For any square-integrable w:
        2 sum (1-x^2) (w')^2 dy  >=  sum w^2 log w^2 dy - ||w||^2 log(||w||^2 / 2)
    with the same interface-difference stencil as weighted_fisher.  Returns
    left minus right; scales exactly quadratically under w -> alpha w.  A
    float for one function w; one value per row for a (rows, n) stack, where
    no row may be identically zero.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (grid.n_cells,):
        raise ValueError("w must have one value per grid cell")
    dy = grid.cell_width
    wsq = w * w
    norm2 = wsq.sum(axis=-1) * dy
    if np.any(norm2 == 0.0):
        raise ValueError("w must not be identically zero")
    dw = np.diff(w, axis=-1) / dy
    lhs = 2.0 * (((1.0 - grid.interior_interfaces**2) * dw * dw).sum(axis=-1) * dy)
    # xlogy(x, y) is x * log(y) with the C library's log, bit for bit what
    # math.log gives; numpy's log can differ from it in the last place
    rhs = xlogy(wsq, wsq).sum(axis=-1) * dy - xlogy(norm2, norm2 / 2.0)
    slack = lhs - rhs
    return float(slack) if slack.ndim == 0 else slack
