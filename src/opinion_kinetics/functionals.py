"""Lyapunov functionals and inequality slacks on gridded densities.

All functionals are midpoint sums over cell centers; derivative terms use
interface-centered differences so they mirror the flux structure of the
finite-volume solver.

Each functional is one function with one convention.  Its first argument
is density values, one row (n,) or a (rows, n) stack, summed along the
last axis; its second is the reference DensityField (the solver's discrete
steady state, or the analytic one sampled on the grid by
BetaEquilibrium.on_grid), the Grid for uniform_ls_slack, or points for
ls_slack (below).  Values of another width raise GridMismatchError.  A row
gives a float and a stack one value per row, bit for bit what that row
alone gives; ls_slack gives that per point, along a new first axis.

Every functional but l1_distance divides by the reference: one private
check, _reference, raises PositivityError unless it is > 0 on every cell.

weighted_fisher and ls_slack check the values once per row or stack, in
_check_positive: two reductions, min >= 0 and max < inf (else the
DensityField invariant's ValueError, non-finite before negative), then
min > 0 (PositivityError).  _log_ratio then forms log r = log(f/ref) in
place, and _fisher differences that log r across the interfaces.
entropy_gap, relative_entropy, weighted_l2 and l1_distance do not check
the values (the solver's march has already checked every row it scores).

ls_slack's points are (reference, KineticParams) pairs, and one call
scores a row or stack against all of them, as the log-Sobolev battery
does with each block of random densities.  The point-independent work
runs once per stack: the value check, the sums f_i + f_(i+1), the
interface weights 1 - y_if^2 and the scratch arrays every point reuses.
Each point still takes its own division, log, weighted square sum and
entropy sum, in the one-point order, so each point's row is bit for bit
what a call with that point alone gives.

Two sums give the relative entropy.  relative_entropy and ls_slack take
the direct one, sum f log r dy: one multiply and one row sum on the log r
ls_slack already holds, with 0 log 0 = 0 where f vanishes, so ls_slack is
K * weighted_fisher - relative_entropy bit for bit.  It equals the
Bregman sum below plus the mass term (sum f - sum g) dy, and near the
steady state it is the more accurate, since that mass term rounds at
1e-17 to 1e-16.  entropy_gap, which the solver scores every step with,
keeps the Bregman form sum g (r log r - r + 1) dy, nonnegative term by
term: the direct sum would add the march's mass drift, about 1e-16 per
step, to entropies that fall to 1e-25, and swamp the monotone check and
the decay fit.

Every log here is numpy's vectorised log: the entropy kernel, the log
ratio and uniform_ls_slack's w^2 log w^2, which takes the same
_log_in_place and _entropy_sum as relative_entropy.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import DensityField, Grid, GridMismatchError, _scalar_or_array, check_density_values
from .params import log_sobolev_constant


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


def _reference(ref: DensityField) -> np.ndarray:
    """ref's values; PositivityError unless every cell is > 0."""
    g = ref.values
    if not g.min() > 0.0:
        raise PositivityError("the reference density must be strictly positive")
    return g


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


def _log_in_place(x: np.ndarray) -> np.ndarray:
    """x <- log x in place, returned, with numpy's log: log 0 is taken as 0,
    so f log r is 0 where r = 0; x < 0 and NaN give a quiet NaN."""
    # (Not x + (x == 0): adding the mask casts it through a 64 kB buffer.)
    np.copyto(x, 1.0, where=x == 0.0)
    with np.errstate(invalid="ignore"):
        np.log(x, out=x)
    return x


def _entropy_core(r: np.ndarray) -> np.ndarray:
    """r log r - r + 1, elementwise, accurate through r = 1, in a new array.

    The direct formula, r * log(r) - (r - 1) with numpy's log, loses all
    significant digits once r - 1 falls below sqrt(eps); a short Taylor
    series takes over on those cells (|r - 1| < 0.01) so entropies as small
    as ~1e-30 remain meaningful.  When every cell is near, only the series
    runs; otherwise the direct formula runs on every cell and the series
    overwrites the near ones.  0 log 0 = 0, so r = 0 gives exactly 1; r < 0
    and NaN give NaN without a warning, as scipy's xlogy does.  Besides r it
    holds two arrays of its size, u = r - 1 and the result, the masks, and
    a copy of u on the series cells.
    """
    r = np.asarray(r, dtype=float)
    u = r - 1.0
    out = np.abs(u)
    near = out < 0.01
    if near.all():
        return _entropy_series(u, out)
    np.copyto(out, r)
    _log_in_place(out)
    out *= r
    out -= u
    if near.any():
        # u is needed only on the series cells now: its front takes their series
        u_near = u[near]
        out[near] = _entropy_series(u_near, u.reshape(-1)[:u_near.size])
    return out


def _entropy_sum(f: np.ndarray, log_r: np.ndarray, dy: float) -> np.ndarray:
    """sum f log r dy along the last axis; log_r is overwritten."""
    log_r *= f
    return log_r.sum(axis=-1) * dy


def entropy_gap(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """sum g * (r log r - r + 1) dy with r = f/g.

    Nonnegative term by term; coincides with the relative entropy when both
    fields carry unit mass, but stays accurate down to roundoff-level
    discrepancies (no mass-cancellation noise), which matters when fitting
    entropy decay over many orders of magnitude.
    """
    f, g = _check_width(values, ref.grid), _reference(ref)
    terms = _entropy_core(f / g)
    terms *= g
    return _scalar_or_array(terms.sum(axis=-1) * ref.grid.cell_width)


def relative_entropy(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """Relative Shannon entropy sum f log(f/g) dy, with 0 log 0 = 0.

    Nonnegative (within roundoff) whenever both fields carry unit discrete
    mass.  A negative value gives NaN, without a warning.
    """
    f, g = _check_width(values, ref.grid), _reference(ref)
    return _scalar_or_array(_entropy_sum(f, _log_in_place(f / g), ref.grid.cell_width))


def _check_positive(f: np.ndarray) -> None:
    """Raise unless every value of f is finite and > 0, in two reductions:
    min >= 0 and max < inf, else check_density_values raises its ValueError
    (non-finite before negative); then min > 0, else PositivityError."""
    if f.size:
        lo, hi = f.min(), f.max()
        if not (lo >= 0.0 and hi < math.inf):
            check_density_values(f)
        if lo == 0.0:
            raise PositivityError("log ratio needs strictly positive f")


def _log_ratio(f: np.ndarray, ref: DensityField, out: np.ndarray) -> np.ndarray:
    """log(f/ref) for a row or a stack, written into out (shaped like f) and
    returned.  The reference must be strictly positive."""
    np.divide(f, _reference(ref), out=out)
    return np.log(out, out=out)


def _neighbours(op, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op(x_{i+1}, x_i) in slot i of out, shaped like x, returned.

    It runs over the flattened stack, one loop instead of one per row (at
    25 x 400 the per-row slices take twice as long).  Slot n - 1 of each
    row pairs its last cell with the next row's first; the last slot is 0.
    """
    flat, x = out.reshape(-1), x.reshape(-1)
    op(x[1:], x[:-1], out=flat[:-1])
    flat[-1:] = 0.0
    return out


def _interface_weight(grid: Grid) -> np.ndarray:
    """1 - y_if^2 in slot i for the n - 1 interior interfaces, and 0 in slot
    n - 1, which _neighbours fills across rows."""
    w = np.zeros(grid.n_cells)
    w[:-1] = 1.0 - grid.interior_interfaces**2
    return w


def _fisher(log_r: np.ndarray, f_pairs: np.ndarray, w: np.ndarray,
            d: np.ndarray) -> np.ndarray:
    """sum over interior interfaces of w (dlog r)^2 (f_i + f_{i+1}), with w
    the scaled _interface_weight, f_pairs _neighbours(np.add, f) and d a
    scratch array shaped like log_r.

    Slot n - 1 of _neighbours, which pairs a row with the next, has weight 0
    and the sum leaves it out.
    """
    d = _neighbours(np.subtract, log_r, d)
    d *= d
    d *= w
    d *= f_pairs
    return d[..., :-1].sum(axis=-1)


def weighted_fisher(values: np.ndarray, ref: DensityField, lam: float) -> float | np.ndarray:
    """Weighted Fisher information with diffusion weight (lam/2)(1 - y^2).

    Interface-centered differences of log(f/ref) with arithmetic-mean density
    weights: sum over interior interfaces of
        (lam/2)(1 - y_if^2) * ((dlog r)/dy)^2 * (f_i + f_{i+1})/2 * dy,
    summed as (lam/(4 dy))(1 - y_if^2) (dlog r)^2 (f_i + f_{i+1}).  Zero when
    f is proportional to the reference.  The values must be finite and
    strictly positive (ValueError for a non-finite or negative value,
    PositivityError for a zero).
    """
    f = _check_width(values, ref.grid)
    _check_positive(f)
    w = _interface_weight(ref.grid)
    w *= 0.25 * lam / ref.grid.cell_width
    log_r = _log_ratio(f, ref, np.empty(f.shape))
    return _scalar_or_array(
        _fisher(log_r, _neighbours(np.add, f, np.empty(f.shape)), w, np.empty(f.shape)))


def weighted_l2(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """Equilibrium-weighted L2 distance sum (f - v)^2 / v dy."""
    f, v = _check_width(values, ref.grid), _reference(ref)
    d = f - v
    return _scalar_or_array((d * d / v).sum(axis=-1) * ref.grid.cell_width)


def l1_distance(values: np.ndarray, ref: DensityField) -> float | np.ndarray:
    """L1 distance sum |f - g| dy (total variation times two at most)."""
    f = _check_width(values, ref.grid)
    return _scalar_or_array(np.abs(f - ref.values).sum(axis=-1) * ref.grid.cell_width)


def ls_slack(values: np.ndarray, points) -> np.ndarray:
    """Slack of the weighted log-Sobolev inequality, K * I(f, ref) - H(f, ref),
    at each of the (ref, KineticParams) points.

    Requires the square-integrable-equilibrium regime.  Nonnegative up to a
    discretization allowance (~1e-6 for smooth positive f at n >= 400)
    against the center-sampled analytic equilibrium.  The values must be
    finite and strictly positive, as weighted_fisher's.  One log ratio
    serves both terms; the result is bit for bit
    K * weighted_fisher - relative_entropy.

    The result holds one slack per point and row, shaped
    (points,) + values.shape[:-1]; each point's entry is bit for bit a call
    with that point alone.  Every K is taken first (RegimeError), then
    every point's width, and the values are validated once.  Every
    reference has the values' width, so they share one Grid.
    """
    points = list(points)
    ks = [log_sobolev_constant(q) for _, q in points]
    f = np.asarray(values, dtype=float)
    for r, _ in points:
        _check_width(f, r.grid)
    _check_positive(f)
    slack = np.empty((len(points),) + f.shape[:-1])
    if points:
        grid = points[0][0].grid
        dy = grid.cell_width
        base, w = _interface_weight(grid), np.empty(grid.n_cells)
        f_pairs = _neighbours(np.add, f, np.empty(f.shape))
        log_r, d = np.empty(f.shape), np.empty(f.shape)
        for i, ((r, q), k) in enumerate(zip(points, ks)):
            np.multiply(0.25 * q.lam / dy, base, out=w)
            fisher = _fisher(_log_ratio(f, r, log_r), f_pairs, w, d)
            slack[i] = k * fisher - _entropy_sum(f, log_r, dy)
    return slack


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
    rhs = _entropy_sum(wsq, _log_in_place(wsq.copy()), dy) - norm2 * np.log(norm2 / 2.0)
    return _scalar_or_array(lhs - rhs)
