"""Lyapunov functionals and inequality slacks on gridded densities.

All functionals are midpoint sums over cell centers; derivative terms use
interface-centered differences so they mirror the flux structure of the
finite-volume solver.

Each functional is one function with one convention.  Its first argument
is density values, one row (n,) or a (rows, n) stack, summed along the
last axis; its second is the reference DensityField (the solver's discrete
steady state, or the analytic one sampled on the grid by
BetaEquilibrium.on_grid), or the Grid for uniform_ls_slack.  Values of
another width raise GridMismatchError.  A row gives a float and a stack one
value per row, bit for bit what that row alone gives.  Only ls_slack checks
the values themselves (finite, nonnegative): the solver's march has already
checked every row it scores.

The entropy kernel and the log ratio take numpy's vectorised log.  xlogy,
scipy.special's own ufunc, remains only in uniform_ls_slack; it is loaded
from its extension file by _scipy: importing scipy.special would load
scipy's array-API layer, the larger part of the package's import time.
"""

from __future__ import annotations

import math

import numpy as np

from ._scipy import xlogy
from .grid import DensityField, Grid, GridMismatchError, check_density_values
from .params import KineticParams, log_sobolev_constant


class AbsoluteContinuityError(ValueError):
    """f puts mass where the reference density vanishes."""


class PositivityError(ValueError):
    """An operation needed a strictly positive density."""


def _check_width(values: np.ndarray, grid: Grid) -> np.ndarray:
    """values as a float array, GridMismatchError unless its rows have one
    value per cell of grid."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (grid.n_cells,):
        raise GridMismatchError(
            f"values of shape {v.shape} do not fit a grid with {grid.n_cells} cells"
        )
    return v


def _result(x: np.ndarray) -> float | np.ndarray:
    """A float for one row's value, the array for a stack's."""
    return float(x) if np.ndim(x) == 0 else x


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


def entropy_gap(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """sum g * (r log r - r + 1) dy with r = f/g, over cells with g > 0.

    Nonnegative term by term; coincides with the relative entropy when both
    fields carry unit mass, but stays accurate down to roundoff-level
    discrepancies (no mass-cancellation noise), which matters when fitting
    entropy decay over many orders of magnitude.  Raises
    AbsoluteContinuityError if f puts mass on a cell where g vanishes.
    """
    f, g = _check_width(values, ref.grid), ref.values
    pos = g > 0.0
    if not pos.all():
        if np.any(f[..., ~pos] > 0.0):
            raise AbsoluteContinuityError("f > 0 on a cell where the reference vanishes")
        g, f = g[pos], f[..., pos]
    terms = _entropy_core(f / g)
    terms *= g
    return _result(terms.sum(axis=-1) * ref.grid.cell_width)


def relative_entropy(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """Relative Shannon entropy sum f log(f/g) dy, with 0 log 0 = 0.

    Nonnegative (within roundoff) whenever both fields carry unit discrete
    mass.  Raises AbsoluteContinuityError if f puts mass on a cell where g
    vanishes.
    """
    f = _check_width(values, ref.grid)
    return _result(entropy_gap(f, ref)
                   + (f.sum(axis=-1) - ref.values.sum()) * ref.grid.cell_width)


def _log_ratio(f_values: np.ndarray, ref: DensityField) -> np.ndarray:
    """log(f/ref) per cell; requires both strictly positive."""
    if np.any(f_values <= 0.0):
        raise PositivityError("log ratio needs strictly positive f")
    if np.any(ref.values <= 0.0):
        raise PositivityError("log ratio needs a strictly positive reference")
    return np.log(f_values) - np.log(ref.values)


def weighted_fisher(values: np.ndarray, ref: DensityField, lam: float) -> float | np.ndarray:
    """Weighted Fisher information with diffusion weight (lam/2)(1 - y^2).

    Interface-centered differences of log(f/ref) with arithmetic-mean density
    weights: sum over interior interfaces of
        (lam/2)(1 - y_if^2) * ((dlog r)/dy)^2 * (f_i + f_{i+1})/2 * dy.
    Zero when f is proportional to the reference.
    """
    f = _check_width(values, ref.grid)
    grid = ref.grid
    dy = grid.cell_width
    dlogr = np.diff(_log_ratio(f, ref), axis=-1) / dy
    weight = 0.5 * lam * (1.0 - grid.interior_interfaces**2)
    f_mid = 0.5 * (f[..., :-1] + f[..., 1:])
    return _result((weight * dlogr * dlogr * f_mid).sum(axis=-1) * dy)


def weighted_l2(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """Equilibrium-weighted L2 distance sum (f - v)^2 / v dy."""
    f, v = _check_width(values, ref.grid), ref.values
    if np.any(v <= 0.0):
        raise PositivityError("weighted L2 needs a strictly positive reference")
    d = f - v
    return _result((d * d / v).sum(axis=-1) * ref.grid.cell_width)


def l1_distance(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """L1 distance sum |f - g| dy (total variation times two at most)."""
    f = _check_width(values, ref.grid)
    return _result(np.abs(f - ref.values).sum(axis=-1) * ref.grid.cell_width)


def ckp_slack(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """Csiszar-Kullback-Pinsker slack 2 H(f,g) - ||f-g||_1^2.

    Nonnegative for every pair of unit-mass fields; +inf when absolute
    continuity fails (the entropy side is then infinite), row by row.
    """
    try:
        h = relative_entropy(values, ref)
    except AbsoluteContinuityError:
        if np.ndim(values) == 1:
            return math.inf
        return np.array([ckp_slack(row, ref) for row in values])
    return 2.0 * h - l1_distance(values, ref) ** 2


def ls_slack(values: np.ndarray, ref: DensityField, p: KineticParams) -> float | np.ndarray:
    """Slack of the weighted log-Sobolev inequality: K * I(f, ref) - H(f, ref).

    Requires the square-integrable-equilibrium regime.  Nonnegative up to a
    discretization allowance (~1e-6 for smooth positive f at n >= 400)
    against the center-sampled analytic equilibrium.  The values must be
    finite and nonnegative, as a DensityField's are, and strictly positive,
    as the log ratio needs.
    """
    k = log_sobolev_constant(p)
    f = _check_width(values, ref.grid)
    check_density_values(f)
    return _result(k * weighted_fisher(f, ref, p.lam) - relative_entropy(f, ref))


def uniform_ls_slack(w: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Slack of the unconstrained log-Sobolev inequality for the uniform state.

    For any square-integrable w:
        2 sum (1-x^2) (w')^2 dy  >=  sum w^2 log w^2 dy - ||w||^2 log(||w||^2 / 2)
    with the same interface-difference stencil as weighted_fisher.  Returns
    left minus right; scales exactly quadratically under w -> alpha w.  No
    row of w may be identically zero.
    """
    w = _check_width(w, grid)
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
    return _result(lhs - rhs)
