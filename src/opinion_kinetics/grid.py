"""Cell-centered grids on (-1, 1) and nonnegative densities living on them."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

# Standard deviation of each Gaussian bump of the bimodal initial law.
BIMODAL_WIDTH = 0.15
# Highest wavenumber k of the random trig series (cos and sin of pi k y / 2).
TRIG_DEGREE = 4


class GridMismatchError(ValueError):
    """Raised when density values do not have one value per cell of the grid
    they are scored on."""


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on (-1, 1) with n_cells cells.

    Cell centers are y_i = -1 + (i + 1/2) dy, dy = 2/n; all centers are
    strictly interior, so endpoint singularities of the steady state are
    never evaluated.  Centers and interfaces are stored exactly mirror
    symmetric so that even/odd symmetry of the dynamics survives in
    floating point.
    """

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError(f"need at least 4 cells, got {self.n_cells}")

    @property
    def cell_width(self) -> float:
        return 2.0 / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        y = -1.0 + (np.arange(self.n_cells) + 0.5) * self.cell_width
        y = 0.5 * (y - y[::-1])
        y.flags.writeable = False
        return y

    @cached_property
    def interior_interfaces(self) -> np.ndarray:
        """The n-1 interfaces between neighboring cells (boundaries excluded)."""
        z = -1.0 + (np.arange(1, self.n_cells)) * self.cell_width
        z = 0.5 * (z - z[::-1])
        z.flags.writeable = False
        return z

    @cached_property
    def edges(self) -> np.ndarray:
        """All n+1 cell edges, including the domain endpoints -1 and 1."""
        e = np.concatenate(([-1.0], self.interior_interfaces, [1.0]))
        e.flags.writeable = False
        return e


@dataclass(frozen=True)
class DensityField:
    """Nonnegative cell values of a density on a Grid.

    values[i] approximates the density at the cell center y_i; the discrete
    mass is sum(values) * dy.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with {self.grid.n_cells} cells"
            )
        check_density_values(v)
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_width)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.mass() - 1.0) <= tol

    def normalized(self) -> "DensityField":
        m = self.mass()
        if m <= 0.0:
            raise ValueError("cannot normalize a field with zero mass")
        return DensityField(self.grid, self.values / m)

    def mean(self) -> float:
        return float(_mean(self.values, self.grid))


def _mean(values: np.ndarray, grid: Grid) -> np.ndarray:
    """sum y_i v_i dy along the last axis: the mean of one density or of
    each row of a (rows, n) stack."""
    return (grid.centers * values).sum(axis=-1) * grid.cell_width


def check_density_values(values: np.ndarray) -> None:
    """Raise ValueError unless every value is finite and nonnegative.

    The DensityField invariant, applied as well to (rows, n) stacks of
    density values that are scored without a DensityField per row.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite")
    if np.any(values < 0.0):
        raise ValueError(f"density values must be nonnegative (min {values.min()})")


def uniform_density(grid: Grid) -> DensityField:
    """The uniform probability density 1/2 on (-1, 1)."""
    return DensityField(grid, np.full(grid.n_cells, 0.5))


def bimodal_density(grid: Grid, width: float = BIMODAL_WIDTH) -> DensityField:
    """Equal-weight Gaussian mixture at +-1/2, truncated to (-1,1), renormalized.

    The standard initial condition for the decay experiments.  Values are
    symmetrized so the discrete field is exactly even.
    """
    if width <= 0.0:
        raise ValueError("width must be positive")
    y = grid.centers
    v = np.exp(-0.5 * ((y - 0.5) / width) ** 2) + np.exp(-0.5 * ((y + 0.5) / width) ** 2)
    v = 0.5 * (v + v[::-1])
    v /= v.sum() * grid.cell_width
    return DensityField(grid, v)


@lru_cache(maxsize=8)
def _trig_basis(grid: Grid) -> np.ndarray:
    """Read-only (2 * TRIG_DEGREE, n) array: rows 2(k-1) and 2(k-1) + 1 hold
    cos and sin of pi k y / 2 at the cell centers y, for k = 1..TRIG_DEGREE."""
    y = grid.centers
    basis = np.empty((2 * TRIG_DEGREE, grid.n_cells))
    for k in range(1, TRIG_DEGREE + 1):
        arg = 0.5 * np.pi * k * y
        basis[2 * k - 2] = np.cos(arg)
        basis[2 * k - 1] = np.sin(arg)
    basis.flags.writeable = False
    return basis


def _trig_series(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """sum_k a_k cos(pi k y / 2) + b_k sin(pi k y / 2), row by row.

    coef has shape (rows, TRIG_DEGREE, 2) holding (a_k, b_k); the result has
    shape (rows, n).  One einsum over the cached basis: unlike a BLAS
    matmul, which rounds a one-row product (gemv) differently from a stack
    (gemm), it gives every row bit for bit what a one-row call gives.
    """
    rows = coef.shape[0]
    return np.einsum("rk,kn->rn", coef.reshape(rows, 2 * TRIG_DEGREE), _trig_basis(grid))


def random_smooth_densities(grid: Grid, rng: np.random.Generator, rows: int) -> np.ndarray:
    """(rows, n) stack of strictly positive smooth random densities.

    Each row is exp of a trig series of degree TRIG_DEGREE, normalized to
    unit discrete mass; smoothness keeps the discretization error of the
    inequality batteries' functionals at second order.  The coefficients are
    drawn in row order, so one call with k rows equals k successive one-row
    calls on the same generator.
    """
    k = np.arange(1, TRIG_DEGREE + 1)[:, None]
    coef = rng.normal(size=(rows, TRIG_DEGREE, 2)) * 0.6 / k
    v = np.exp(_trig_series(grid, coef))
    v /= v.sum(axis=-1, keepdims=True) * grid.cell_width
    return v


def random_grid_functions(grid: Grid, rng: np.random.Generator, rows: int) -> np.ndarray:
    """(rows, n) stack of sign-changing smooth random functions, for the L2
    form of the inequality.

    Per row, a constant term then TRIG_DEGREE (cos, sin) coefficient pairs
    are drawn; rows are drawn in order, so one call with k rows equals k
    successive one-row calls on the same generator.
    """
    draws = rng.normal(size=(rows, 1 + 2 * TRIG_DEGREE))
    coef = draws[:, 1:].reshape(rows, TRIG_DEGREE, 2) / np.arange(1, TRIG_DEGREE + 1)[:, None]
    return draws[:, :1] + _trig_series(grid, coef)
