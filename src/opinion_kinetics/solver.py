"""Structure-preserving finite-volume integrator for the opinion Fokker-Planck
equation on (-1, 1) with no-flux boundaries.

The flux is split as F = D(y) v' + B(y) v with

    D(y) = (lam/2)(1 - y^2),   B(y) = (1 - lam) y - m,

which is the expansion of (lam/2)((1-y^2) v)'' + ((y-m) v)' into divergence
form.  Interfaces carry Chang-Cooper weights, so the scheme is positivity
preserving for any time step, conserves mass exactly (zero column sums),
dissipates the discrete relative entropy, and holds the discrete Beta
steady state to machine precision.  Time stepping is backward Euler: the
tridiagonal I - dt A is factored once per run (LAPACK dgttrf), and each step
is one dgttrs solve on a raw array.  march, the one stepping loop, runs
from the initial state and hands the steps out in blocks of consecutive
rows.  solve scores each block once: the per-step checks (finiteness,
nonnegativity, mass drift, entropy monotonicity) over every row, and the
sampled rows as one (rows, n) stack through the last-axis kernels of the
functionals module, the same kernels its one-row functionals use.  Every
step is still checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .config import whole_steps
from .functionals import _l1_distance, _weighted_fisher, _weighted_l2, entropy_gap
from .grid import DensityField, Grid, _mean
from .params import KineticParams


class SolverError(RuntimeError):
    """Numerical failure inside the time stepper."""


def chang_cooper_delta(w):
    """Chang-Cooper interface weight delta(w) = 1/w - 1/(e^w - 1).

    w is the cell Peclet number dy*B/D.  delta(0) = 1/2 recovers centered
    differencing; delta -> 0 (w -> +inf) and delta -> 1 (w -> -inf) are the
    upwind limits.  The removable singularity at 0 is handled by series.
    """
    w_arr = np.asarray(w, dtype=float)
    small = np.abs(w_arr) < 1e-4
    safe = np.where(small, 1.0, w_arr)
    with np.errstate(over="ignore"):
        main = 1.0 / safe - 1.0 / np.expm1(safe)
    series = 0.5 - w_arr / 12.0 + w_arr**3 / 720.0
    out = np.where(small, series, main)
    if np.ndim(w) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FluxCoefficients:
    """Per-interface drift/diffusion data and the assembled operator bands.

    drift, diffusion and delta live on the n-1 interior interfaces; the two
    boundary interfaces carry no entries because their flux is hard zero.
    upper/lower are the off-diagonal rates of the flux-divergence operator A
    (dv_i/dt = (F_{i+1/2} - F_{i-1/2})/dy); the diagonal is -(lower + upper)
    shifted, so column sums vanish identically.
    """

    grid: Grid
    params: KineticParams
    drift: np.ndarray = field(repr=False)       # B at interior interfaces
    diffusion: np.ndarray = field(repr=False)   # D at interior interfaces
    delta: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)       # A[i, i+1], i = 0..n-2
    lower: np.ndarray = field(repr=False)       # A[i+1, i], i = 0..n-2
    diag: np.ndarray = field(repr=False)        # A[i, i]


def assemble_coefficients(p: KineticParams, grid: Grid) -> FluxCoefficients:
    """Drift, diffusion and Chang-Cooper weights for the interior interfaces."""
    y = grid.interior_interfaces
    dy = grid.cell_width
    drift = (1.0 - p.lam) * y - p.m
    diffusion = 0.5 * p.lam * (1.0 - y * y)
    w = dy * drift / diffusion
    delta = chang_cooper_delta(w)

    d_over = diffusion / dy
    cu = drift * (1.0 - delta) + d_over       # coefficient of v_{i+1} in F_{i+1/2}
    mm = d_over - drift * delta               # minus the coefficient of v_i
    upper = cu / dy
    lower = mm / dy
    n = grid.n_cells
    diag = np.zeros(n)
    diag[:-1] -= lower
    diag[1:] -= upper
    return FluxCoefficients(grid, p, drift, diffusion, delta, upper, lower, diag)


def discretize_equilibrium(p: KineticParams, grid: Grid) -> DensityField:
    """The positive unit-mass kernel vector of the discrete operator.

    Zero flux at every interface gives the two-term recurrence
    v_{i+1} = v_i * lower_i / upper_i, solved cell by cell and normalized.
    This is the steady state the scheme holds exactly; it converges to the
    analytic Beta density as the grid is refined.
    """
    coeffs = assemble_coefficients(p, grid)
    q = coeffs.lower / coeffs.upper
    v = np.concatenate(([1.0], np.cumprod(q)))
    if not np.all(np.isfinite(v)):
        # extreme exponents: rebuild in log space, losing the exact kernel
        # property but staying finite
        logv = np.concatenate(([0.0], np.cumsum(np.log(q))))
        v = np.exp(logv - logv.max())
    v /= v.sum() * grid.cell_width
    return DensityField(grid, v)


@dataclass(frozen=True)
class SolverState:
    """The initial density of a run and the factored I - dt A it steps with."""

    density: DensityField
    dt: float
    lu: tuple = field(repr=False)   # dgttrf factors of I - dt A


def make_solver_state(p: KineticParams, v0: DensityField, dt: float) -> SolverState:
    """Validate the initial density and factor I - dt A once."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not v0.is_normalized(tol=1e-8):
        raise ValueError(f"initial density must have unit mass, got {v0.mass()}")
    coeffs = assemble_coefficients(p, v0.grid)
    *lu, info = dgttrf(-dt * coeffs.lower, 1.0 - dt * coeffs.diag, -dt * coeffs.upper)
    if info != 0:
        raise SolverError(f"LU factorization of I - dt A failed (dgttrf info {info})")
    return SolverState(v0, dt, tuple(lu))


# Values per block of march: a block's arrays stay in L2 cache, and its
# checks and entropies are one array pass.
_BLOCK_VALUES = 10_000


def march(s: SolverState, n_steps: int):
    """Take n_steps backward-Euler steps (I - dt A) v_new = v_old from the
    initial density of s, and yield them in blocks of up to
    max(1, 10_000 // n) consecutive steps.

    A block is (steps, times, values, mass): the range of its step numbers
    (1 to n_steps over the run), their times (t += dt per step from
    t = 0), a fresh (rows, n) array whose row i is
    the density after step steps[i], and the per-row masses.  Each step is
    one dgttrs solve.  I - dt A is an M-matrix, so each solve keeps
    nonnegativity and mass for any dt; every step is still checked, once per
    block, and the first non-finite or negative row raises SolverError
    naming its step (non-finite first when a row is both).
    """
    dl, d, du, du2, ipiv = s.lu
    grid = s.density.grid
    block = max(1, _BLOCK_VALUES // grid.n_cells)
    v, t = s.density.values, 0.0
    for first in range(1, n_steps + 1, block):
        steps = range(first, min(first + block, n_steps + 1))
        times = np.empty(len(steps))
        values = np.empty((len(steps), grid.n_cells))
        info = np.empty(len(steps), dtype=int)
        for i in range(len(steps)):
            v, info[i] = dgttrs(dl, d, du, du2, ipiv, v)
            t += s.dt
            times[i] = t
            values[i] = v
        mass = values.sum(axis=1) * grid.cell_width
        # a NaN or infinity anywhere in a row makes its sum non-finite
        non_finite = (info != 0) | ~np.isfinite(mass)
        bad = non_finite | (values.min(axis=1) < 0.0)
        if bad.any():
            i = int(bad.argmax())
            kind = "non-finite" if non_finite[i] else "negative"
            raise SolverError(f"implicit step {steps[i]} produced {kind} values")
        yield steps, times, values, mass


@dataclass(frozen=True)
class Trajectory:
    """Sampled functional rows along a solve.

    All distances are measured against the discrete kernel equilibrium (the
    scheme's own steady state), which is what makes the entropy column
    exactly monotone and the late-time decay rates clean.
    """

    params: KineticParams
    grid: Grid
    times: np.ndarray
    entropy: np.ndarray
    fisher: np.ndarray
    l1_dist: np.ndarray
    wl2_dist: np.ndarray
    mass: np.ndarray
    mean: np.ndarray
    max_entropy_increase: float
    max_mass_drift: float
    final: DensityField
    equilibrium: DensityField


def _score_rows(times, values, mass, entropy, eq_field: DensityField, lam: float):
    """The Trajectory columns of a (rows, n) stack of sampled rows.

    Each functional is one pass over the stack through the kernel its
    one-row function uses; a row with a cell <= 0 has infinite Fisher
    information.
    """
    l1 = _l1_distance(values, eq_field)
    wl2 = _weighted_l2(values, eq_field)
    fisher = np.full(len(values), math.inf)
    positive = (values > 0.0).all(axis=-1)
    if positive.any():
        fisher[positive] = _weighted_fisher(values[positive], eq_field, lam)
    return times, entropy, fisher, l1, wl2, mass, _mean(values, eq_field.grid)


def solve(p: KineticParams, v0: DensityField, dt: float, t_end: float,
          sample_every: int = 10) -> Trajectory:
    """Integrate to t_end, sampling functional rows every sample_every steps.

    t_end must be a whole number of dt steps.  Each block of march is
    scored in one pass: the entropy of every step, its increase over the
    step before (the previous block's last value carried over), the mass
    drift, and the functionals of the block's sampled rows.  v0 is scored
    as a one-row block, and the final density is the only DensityField
    built.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    state = make_solver_state(p, v0, dt)
    n_steps = whole_steps(t_end, dt)
    eq_field = discretize_equilibrium(p, v0.grid)
    g = eq_field.values
    dy = v0.grid.cell_width

    start, start_mass = v0.values[None, :], v0.mass()
    h_prev = entropy_gap(start, g, dy)
    max_increase = 0.0
    max_mass_drift = abs(start_mass - 1.0)
    scored = [_score_rows(np.zeros(1), start, np.array([start_mass]), h_prev, eq_field, p.lam)]
    for steps, times, values, mass in march(state, n_steps):
        h = entropy_gap(values, g, dy)
        max_increase = max(max_increase, float(np.diff(h, prepend=h_prev[-1]).max()))
        h_prev = h
        max_mass_drift = max(max_mass_drift, float(np.abs(mass - 1.0).max()))
        k = np.arange(steps.start, steps.stop)
        keep = (k % sample_every == 0) | (k == n_steps)
        scored.append(_score_rows(times[keep], values[keep], mass[keep], h[keep],
                                  eq_field, p.lam))

    times, entropy, fisher, l1, wl2, mass, mean = (np.concatenate(c) for c in zip(*scored))
    return Trajectory(
        params=p,
        grid=v0.grid,
        times=times,
        entropy=entropy,
        fisher=fisher,
        l1_dist=l1,
        wl2_dist=wl2,
        mass=mass,
        mean=mean,
        max_entropy_increase=max_increase,
        max_mass_drift=max_mass_drift,
        final=DensityField(v0.grid, values[-1]),
        equilibrium=eq_field,
    )
