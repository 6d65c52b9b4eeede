"""Structure-preserving finite-volume integrator for the opinion Fokker-Planck
equation on (-1, 1) with no-flux boundaries.

The flux is split as F = D(y) v' + B(y) v with

    D(y) = (lam/2)(1 - y^2),   B(y) = (1 - lam) y - m,

which is the expansion of (lam/2)((1-y^2) v)'' + ((y-m) v)' into divergence
form.  Interfaces carry the Chang-Cooper rates in their closed Bernoulli
(Scharfetter-Gummel) form, so the scheme is positivity preserving for any
time step, conserves mass exactly (zero column sums), dissipates the
discrete relative entropy, and holds the discrete Beta steady state (a
log-space sum of the rate ratios) to roundoff.  The operator A is held as
its two off-diagonal rates per interior interface (assemble_coefficients);
its diagonal is built from them only where I - dt A is factored.  Time
stepping is backward Euler in march(p, v0, dt, n_steps), the one entry
point: it checks dt and the initial mass, factors the tridiagonal I - dt A
once per run (LAPACK dgttrf), and hands the steps out in blocks of
consecutive rows, each step one dgttrs solve in place in its block row.
solve checks each block once: finiteness, nonnegativity, mass drift and
entropy monotonicity over every row.  It buffers the sampled
rows across blocks and scores them in chunks of about one block's values,
each chunk one (rows, n) stack through the functionals.  Every step is
still checked.  Its Trajectory.columns is decay.csv, header names in file
order.  dgttrf and dgttrs are scipy's LAPACK wrappers, loaded from
their extension file by lapack() at the first factorization, so a
process that never steps the solver never loads LAPACK.  The rates' exprel
is _exprel, the C library's expm1 through math: it gives
scipy.special.exprel's bits without loading scipy.special's extension.
"""

from __future__ import annotations

import functools
import math
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
# lapack() needs only scipy's path, but the benchmark's child process reads
# sys.modules["scipy"].__version__ after every run, one that never steps
# the solver included
import scipy

from ._frozen import Frozen
from .config import whole_steps
from .functionals import entropy_gap, l1_distance, weighted_fisher, weighted_l2
from .grid import DensityField, Grid, _mean
from .params import KineticParams, ParamRegime, classify_params, log_sobolev_constant


class SolverError(RuntimeError):
    """Numerical failure of the scheme: rates, a steady state or a time step
    that floating point cannot represent."""


def _exprel(x: float) -> float:
    """(e^x - 1)/x, bit for bit scipy.special.exprel: 1 for |x| < eps, inf
    above 717 and where expm1 overflows, else the C library's expm1(x)/x.
    (numpy's expm1 has vector paths of its own that can differ in the last
    place.)"""
    if abs(x) < sys.float_info.epsilon:
        return 1.0
    if x > 717.0:
        return math.inf
    try:
        return math.expm1(x) / x
    except OverflowError:
        return math.inf


@functools.cache
def lapack() -> tuple:
    """(dgttrf, dgttrs), loaded at the first call and the same objects after.

    `from scipy.linalg.lapack import ...` runs the init of scipy.linalg,
    which imports scipy._lib._array_api and with it numpy.testing and
    numpy.f2py: about 0.3 s.  The two routines live in one extension file,
    scipy/linalg/_flapack*, which loads by file location in a few ms; it
    brings scipy's OpenBLAS with it, which a run that never steps the solver
    does not pay.  The module is registered under its dotted name, so a
    later scipy.linalg import reuses it (and one imported first is reused
    here): the objects are the very ones the public names are bound to.
    ImportError, naming the path, when no such file exists.
    """
    name = "scipy.linalg._flapack"
    mod = sys.modules.get(name)
    if mod is None:
        stem = Path(scipy.__path__[0], "linalg", "_flapack")
        for suffix in EXTENSION_SUFFIXES:
            path = stem.with_name(stem.name + suffix)
            if path.is_file():
                break
        else:
            raise ImportError(f"cannot load dgttrf, dgttrs: no extension file {stem}*")
        spec = spec_from_file_location(name, path)
        mod = module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules[name] = mod
    return mod.dgttrf, mod.dgttrs


def assemble_coefficients(p: KineticParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonal rates of A, upper[i] = A[i, i+1] and lower[i] =
    A[i+1, i], one per interior interface (the boundary fluxes are hard
    zero), from the drift B and the diffusion D.

    These are the Chang-Cooper rates in closed Bernoulli form: with the cell
    Peclet number w = dy B / D, upper, lower = (D/dy^2) / exprel(-+w), so
    lower/upper = e^-w and neither rate is a difference that can cancel.
    SolverError, naming max |w|, when a rate is not a positive finite float
    (it underflows at tiny lam, exprel overflows at large |w|), so whenever
    this returns I - dt A is an M-matrix.
    """
    y = grid.interior_interfaces
    dy = grid.cell_width
    drift = (1.0 - p.lam) * y - p.m
    diffusion = 0.5 * p.lam * (1.0 - y * y)
    with np.errstate(all="ignore"):
        w = dy * drift / diffusion
        rate = diffusion / dy**2
        upper = rate / np.array([_exprel(-v) for v in w.tolist()])
        lower = rate / np.array([_exprel(v) for v in w.tolist()])
    rates = np.concatenate((upper, lower))
    if not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise SolverError(f"the Chang-Cooper rates are not positive finite floats "
                          f"(max cell Peclet number |w| {np.abs(w).max():.3e})")
    return upper, lower


def _diagonal(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """A[i, i] = -(lower + upper) shifted, so the column sums of A vanish."""
    diag = np.zeros(upper.size + 1)
    diag[:-1] -= lower
    diag[1:] -= upper
    return diag


def _log_kernel(p: KineticParams, grid: Grid) -> np.ndarray:
    """log of the unnormalized kernel: zero flux at every interface gives
    v_{i+1} = v_i * lower_i / upper_i, summed in log space from log v_0 = 0."""
    upper, lower = assemble_coefficients(p, grid)
    return np.concatenate(([0.0], np.cumsum(np.log(lower) - np.log(upper))))


def discretize_equilibrium(p: KineticParams, grid: Grid) -> DensityField:
    """The nonnegative unit-mass kernel vector of the discrete operator.

    This is the steady state the scheme holds to roundoff; it converges to
    the analytic Beta density as the grid is refined.  It is exponentiated
    from its maximum, so it is finite for every lam the rates accept, but
    cells more than ~745 below the maximum in log underflow to 0.
    """
    log_g = _log_kernel(p, grid)
    g = np.exp(log_g - log_g.max())
    g /= g.sum() * grid.cell_width
    return DensityField(grid, g)


# Values per block of march: a block's arrays stay in L2 cache, and its
# checks and entropies are one array pass.
_BLOCK_VALUES = 10_000


def rows_per_block(n: int) -> int:
    """The rows of n values in one block: max(1, 10_000 // n)."""
    return max(1, divmod(_BLOCK_VALUES, n)[0])


def march(p: KineticParams, v0: DensityField, dt: float, n_steps: int):
    """Take n_steps backward-Euler steps (I - dt A) v_new = v_old from v0,
    and yield them in blocks of up to rows_per_block(n) consecutive steps.

    At the first next() it checks dt > 0 and that v0 has unit mass to 1e-8
    (ValueError), and only then loads LAPACK (lapack()) and factors I - dt A
    once (dgttrf; SolverError when that fails).  A block is (steps, times,
    values, mass): the range of its step numbers (1 to n_steps over the
    run), their times (t += dt per step from t = 0), a fresh (rows, n) array
    whose row i is the density after step steps[i], and the per-row masses.
    Each step is one dgttrs solve in place: the previous state is copied
    into row i and solved there, so a step allocates no array.  I - dt A is
    an M-matrix, so each solve keeps nonnegativity and mass for any dt;
    every step is still checked, once per block, and the first non-finite
    or negative row raises SolverError naming its step (non-finite first
    when a row is both).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not v0.is_normalized(tol=1e-8):
        raise ValueError(f"initial density must have unit mass, got {v0.mass()}")
    grid = v0.grid
    upper, lower = assemble_coefficients(p, grid)
    dgttrf, dgttrs = lapack()
    dl, d, du, du2, ipiv, info = dgttrf(-dt * lower, 1.0 - dt * _diagonal(upper, lower),
                                        -dt * upper)
    if info != 0:
        raise SolverError(f"LU factorization of I - dt A failed (dgttrf info {info})")
    block = rows_per_block(grid.n_cells)
    v, t = v0.values, 0.0
    for first in range(1, n_steps + 1, block):
        steps = range(first, min(first + block, n_steps + 1))
        times = np.empty(len(steps))
        values = np.empty((len(steps), grid.n_cells))
        info = np.empty(len(steps), dtype=int)
        for i, row in enumerate(values):
            row[:] = v
            # overwrite_b positionally (the keyword form is slower); f2py
            # solves in the row and returns it
            x, info[i] = dgttrs(dl, d, du, du2, ipiv, row, "N", 1)
            if x is not row:
                row[:] = x
            v = row
            t += dt
            times[i] = t
        mass = values.sum(axis=1) * grid.cell_width
        # a NaN or infinity anywhere in a row makes its sum non-finite
        non_finite = (info != 0) | ~np.isfinite(mass)
        bad = non_finite | (values.min(axis=1) < 0.0)
        if bad.any():
            i = int(bad.argmax())
            kind = "non-finite" if non_finite[i] else "negative"
            raise SolverError(f"implicit step {steps[i]} produced {kind} values")
        yield steps, times, values, mass


class Trajectory(Frozen):
    """Sampled functional rows along a solve.

    columns is decay.csv: its keys are the file's header names in file
    order, each an array with one entry per sampled row.  All distances are
    measured against the discrete kernel equilibrium (the scheme's own
    steady state), which is what makes the entropy column exactly monotone
    and the late-time decay rates clean.  Immutable; it compares and hashes
    by identity, as it holds arrays.
    """

    def __init__(self, columns: dict, max_entropy_increase: float, max_mass_drift: float,
                 final: DensityField, equilibrium: DensityField):
        self.__dict__.update(columns=columns, max_entropy_increase=max_entropy_increase,
                             max_mass_drift=max_mass_drift, final=final,
                             equilibrium=equilibrium)


def _score_rows(times, values, mass, entropy, eq_field: DensityField, lam: float, k: float):
    """The decay.csv columns of a (rows, n) stack of sampled rows, k the
    log-Sobolev constant (NaN outside the L2 regime).

    Each functional is one pass over the stack; a row with a cell <= 0 has
    infinite Fisher information.
    """
    fisher = np.full(len(values), math.inf)
    positive = (values > 0.0).all(axis=-1)
    if positive.any():
        fisher[positive] = weighted_fisher(values[positive], eq_field, lam)
    return {"t": times, "entropy": entropy, "fisher": fisher, "k_fisher": k * fisher,
            "l1_dist": l1_distance(values, eq_field), "weighted_l2": weighted_l2(values, eq_field),
            "mass": mass, "mean": _mean(values, eq_field.grid)}


def _entropies(values: np.ndarray, eq_field: DensityField, first_step: int) -> np.ndarray:
    """entropy_gap of each row of a stack whose row 0 is step first_step.

    r log r overflows where g is small but normal and f is not, so a
    non-finite entropy raises SolverError naming its first step.
    """
    with np.errstate(all="ignore"):
        h = entropy_gap(values, eq_field)
    bad = ~np.isfinite(h)
    if bad.any():
        raise SolverError(f"the relative entropy at step {first_step + int(bad.argmax())} "
                          f"is not finite (min of the steady state {eq_field.values.min():.3e})")
    return h


def solve(p: KineticParams, v0: DensityField, dt: float, t_end: float,
          sample_every: int = 10) -> Trajectory:
    """Integrate to t_end, sampling functional rows every sample_every steps.

    t_end must be a whole number of dt steps.  Each block of march is
    checked in one pass: the entropy of every step (SolverError when one is
    not finite), its increase over the step before (the previous block's
    last value carried over) and the mass drift.  The sampled rows, v0
    first, wait across blocks until at least rows_per_block(n) are
    pending (and at the last block), and each such chunk is scored as one
    stack by _score_rows, which names the decay.csv columns.  The final
    density is the only DensityField built.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps = whole_steps(t_end, dt)
    eq_field = discretize_equilibrium(p, v0.grid)
    g = eq_field.values
    # the distances to g divide by it: an underflowed cell (0 or subnormal)
    # turns f/g infinite
    tiny = g < np.finfo(float).tiny
    if tiny.any():
        span = np.ptp(_log_kernel(p, v0.grid))
        raise SolverError(f"the discrete steady state underflows on {tiny.sum()} of "
                          f"{g.size} cells (its log spans {span:.1f})")
    chunk = rows_per_block(v0.grid.n_cells)
    ls_constant = (log_sobolev_constant(p) if classify_params(p) >= ParamRegime.L2_EQUILIBRIUM
                   else math.nan)

    start, start_mass = v0.values[None, :], v0.mass()
    h = _entropies(start, eq_field, 0)
    max_increase = 0.0
    max_mass_drift = abs(start_mass - 1.0)
    # a chunk's stack stays about one block in size: collecting every
    # sampled row would cost memory in proportion to the run
    pending, n_pending = [(np.zeros(1), start, np.array([start_mass]), h)], 1
    scored = []
    for steps, times, values, mass in march(p, v0, dt, n_steps):
        h_last = h[-1]
        h = _entropies(values, eq_field, steps.start)
        max_increase = max(max_increase, float((h[1:] - h[:-1]).max(initial=h[0] - h_last)))
        max_mass_drift = max(max_mass_drift, float(np.abs(mass - 1.0).max()))
        k = np.arange(steps.start, steps.stop)
        keep = (k % sample_every == 0) | (k == n_steps)
        rows = values[keep]
        pending.append((times[keep], rows, mass[keep], h[keep]))
        n_pending += len(rows)
        if n_pending >= chunk or steps.stop > n_steps:
            stack = [np.concatenate(c) for c in zip(*pending)]
            pending, n_pending = [], 0
            scored.append(_score_rows(*stack, eq_field, p.lam, ls_constant))

    return Trajectory(
        columns={name: np.concatenate([c[name] for c in scored]) for name in scored[0]},
        max_entropy_increase=max_increase,
        max_mass_drift=max_mass_drift,
        final=DensityField(v0.grid, values[-1]),
        equilibrium=eq_field,
    )
