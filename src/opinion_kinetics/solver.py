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
is one dgttrs solve on a raw array.  march, the one stepping loop, hands
the steps out in blocks of consecutive rows, and the per-step checks
(finiteness, nonnegativity, mass drift, entropy monotonicity) run as one
array pass per block; every step is still checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .equilibrium import BetaEquilibrium
from .functionals import entropy_gap, l1_distance, weighted_fisher, weighted_l2
from .grid import DensityField, Grid, build_grid
from .params import KineticParams

__all__ = [
    "FluxCoefficients",
    "SolverState",
    "Trajectory",
    "SolverError",
    "build_grid",
    "chang_cooper_delta",
    "assemble_coefficients",
    "apply_operator",
    "discretize_equilibrium",
    "make_solver_state",
    "march",
    "step_implicit",
    "solve",
]


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


def apply_operator(coeffs: FluxCoefficients, values: np.ndarray) -> np.ndarray:
    """A @ values using the assembled bands (for residual checks)."""
    out = coeffs.diag * values
    out[:-1] += coeffs.upper * values[1:]
    out[1:] += coeffs.lower * values[:-1]
    return out


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
    """One owning context's view of the evolving density."""

    params: KineticParams
    density: DensityField
    dt: float
    lu: tuple = field(repr=False)   # dgttrf factors of I - dt A
    time: float = 0.0
    step_count: int = 0


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
    return SolverState(p, v0, dt, tuple(lu))


# Values per block of march: a block's arrays stay in L2 cache, and its
# checks and entropies are one array pass.
_BLOCK_VALUES = 10_000


def march(s: SolverState, n_steps: int):
    """Take n_steps backward-Euler steps (I - dt A) v_new = v_old from s and
    yield them in blocks of up to max(1, 10_000 // n) consecutive steps.

    A block is (steps, times, values, mass): the range of its step numbers,
    their times (t += dt per step), a fresh (rows, n) array whose row i is
    the density after step steps[i], and the per-row masses.  Each step is
    one dgttrs solve.  I - dt A is an M-matrix, so each solve keeps
    nonnegativity and mass for any dt; every step is still checked, once per
    block, and the first non-finite or negative row raises SolverError
    naming its step (non-finite first when a row is both).
    """
    dl, d, du, du2, ipiv = s.lu
    grid = s.density.grid
    block = max(1, _BLOCK_VALUES // grid.n_cells)
    v, t = s.density.values, s.time
    end = s.step_count + n_steps
    for first in range(s.step_count + 1, end + 1, block):
        steps = range(first, min(first + block, end + 1))
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


def step_implicit(s: SolverState) -> SolverState:
    """One backward-Euler step, march's one-step block, as a new state."""
    steps, times, values, _ = next(march(s, 1))
    return replace(s, density=DensityField(s.density.grid, values[0]),
                   time=float(times[0]), step_count=steps[0])


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


def _row_fisher(v: DensityField, eq_field: DensityField, lam: float) -> float:
    if np.any(v.values <= 0.0) or np.any(eq_field.values <= 0.0):
        return math.inf
    return weighted_fisher(v, eq_field, lam)


def solve(p: KineticParams, v0: DensityField, dt: float, t_end: float,
          sample_every: int = 10) -> Trajectory:
    """Integrate to t_end, sampling functional rows every sample_every steps.

    Each block of march is scored in one pass: the entropy of every step,
    its increase over the step before (the previous block's last value
    carried over), and the mass drift.  A DensityField is built only for
    the sampled rows.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    state = make_solver_state(p, v0, dt)
    eq_field = discretize_equilibrium(p, v0.grid)
    g = eq_field.values
    dy = v0.grid.cell_width

    n_steps = max(1, int(round(t_end / dt)))
    rows = []

    def record(t: float, v: DensityField, h: float):
        rows.append((
            t,
            h,
            _row_fisher(v, eq_field, p.lam),
            l1_distance(v, eq_field),
            weighted_l2(v, eq_field),
            v.mass(),
            v.mean(),
        ))

    h_prev = entropy_gap(v0.values, g, dy)
    max_increase = 0.0
    max_mass_drift = abs(v0.mass() - 1.0)
    record(0.0, v0, h_prev)
    for steps, times, values, mass in march(state, n_steps):
        h = entropy_gap(values, g, dy)
        max_increase = max(max_increase, float(np.diff(h, prepend=h_prev).max()))
        h_prev = h[-1]
        max_mass_drift = max(max_mass_drift, float(np.abs(mass - 1.0).max()))
        for i, k in enumerate(steps):
            if k % sample_every == 0 or k == n_steps:
                final = DensityField(v0.grid, values[i])
                record(times[i], final, h[i])

    cols = list(zip(*rows))
    return Trajectory(
        params=p,
        grid=v0.grid,
        times=np.array(cols[0]),
        entropy=np.array(cols[1]),
        fisher=np.array(cols[2]),
        l1_dist=np.array(cols[3]),
        wl2_dist=np.array(cols[4]),
        mass=np.array(cols[5]),
        mean=np.array(cols[6]),
        max_entropy_increase=max_increase,
        max_mass_drift=max_mass_drift,
        final=final,
        equilibrium=eq_field,
    )


def analytic_equilibrium_field(p: KineticParams, grid: Grid) -> DensityField:
    """Center-sampled, renormalized analytic Beta density (for comparisons)."""
    return BetaEquilibrium.from_params(p).on_grid(grid)
