import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from opinion_kinetics import solver as solver_module
from opinion_kinetics.cli import main
from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.functionals import (
    entropy_gap,
    l1_distance,
    relative_entropy,
    weighted_fisher,
    weighted_l2,
)
from opinion_kinetics.grid import (
    DensityField,
    Grid,
    _mean,
    bimodal_density,
    uniform_density,
)
from opinion_kinetics.params import KineticParams, log_sobolev_constant
from opinion_kinetics.solver import (
    SolverError,
    _exprel,
    assemble_coefficients,
    discretize_equilibrium,
    solve,
)
from oracles import zero_flux_kernel


def _apply_bands(rates, values):
    """A @ values from the assembled rates and the diagonal the solver factors."""
    upper, lower = rates
    out = solver_module._diagonal(upper, lower) * values
    out[:-1] += upper * values[1:]
    out[1:] += lower * values[:-1]
    return out


def _rows(p, v0, dt, n_steps):
    """Every row march yields from v0, in step order."""
    return np.concatenate([b[2] for b in solver_module.march(p, v0, dt, n_steps)])


def _stub_dgttrs(monkeypatch, fn):
    """Make march step with fn in place of dgttrs, through the lapack() it
    loads dgttrf and dgttrs from."""
    monkeypatch.setattr(solver_module, "lapack", lambda: (dgttrf, fn))


def _factors(p, g, dt):
    """dgttrf of I - dt A, the factors march steps with."""
    upper, lower = assemble_coefficients(p, g)
    *lu, info = dgttrf(-dt * lower, 1.0 - dt * solver_module._diagonal(upper, lower),
                       -dt * upper)
    assert info == 0
    return lu


def test_assemble_coefficients_pure_diffusion():
    # lam = 1, m = 0: drift vanishes identically, so both rates are D/dy^2
    g = Grid(64)
    upper, lower = assemble_coefficients(KineticParams(1.0, 0.0), g)
    y, dy = g.interior_interfaces, g.cell_width
    assert np.array_equal(upper, lower)
    assert np.allclose(upper, 0.5 * (1.0 - y * y) / dy**2, rtol=1e-14, atol=0.0)
    assert np.all(upper > 0.0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise: a and b are the same float (signed zeros apart), or both NaN."""
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


def test_exprel_is_scipys_bit_for_bit():
    # scipy.special is imported here only: the package takes exprel from the
    # C library's expm1.  inf is the input on which expm1(x)/x alone would
    # differ (inf/inf), and numpy's expm1 differs in the last place on
    # some hosts' vector paths
    eps, big = sys.float_info.epsilon, math.log(sys.float_info.max)
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
             eps, -eps, eps / 2.0, -eps / 2.0, math.nextafter(eps, 0.0),
             math.nextafter(-eps, 0.0), math.nextafter(eps, 1.0), 709.78, big,
             math.nextafter(big, math.inf), 710.0, 716.9, 717.0, math.nextafter(717.0, 718.0),
             1e308, -1e308, -745.2, -800.0, math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(2024)
    x = np.concatenate([edges, rng.normal(0.0, 1.0, 25_000), rng.normal(0.0, 1e-8, 25_000),
                        rng.normal(0.0, 30.0, 25_000), rng.uniform(-800.0, 800.0, 25_000)])
    got = np.array([_exprel(v) for v in x.tolist()])
    with np.errstate(all="ignore"):
        want = scipy.special.exprel(x)
    assert np.all(_same_bits(got, want))


@pytest.mark.parametrize("lam, m, n", [(0.5, 0.0, 200), (0.05, 0.3, 200), (3.0, -0.6, 400),
                                       (20.0, 0.9, 50), (1e-3, 0.99, 2000)])
def test_assembled_rates_are_the_scipy_exprel_ones_bit_for_bit(lam, m, n):
    p, g = KineticParams(lam, m), Grid(n)
    y, dy = g.interior_interfaces, g.cell_width
    drift, diffusion = (1.0 - lam) * y - m, 0.5 * lam * (1.0 - y * y)
    w, rate = dy * drift / diffusion, diffusion / dy**2
    with np.errstate(all="ignore"):
        want = rate / scipy.special.exprel(-w), rate / scipy.special.exprel(w)
    try:
        got = assemble_coefficients(p, g)
    except SolverError:
        assert not all(np.all(np.isfinite(r) & (r > 0.0)) for r in want)
        return
    assert all(np.all(_same_bits(a, b)) for a, b in zip(got, want))


def _chang_cooper_rates(lam, m, y, dy):
    """(upper, lower) at the interface y, from the flux
    F = D (v_right - v_left)/dy + B ((1 - delta) v_right + delta v_left)
    with B = (1 - lam) y - m, D = (lam/2)(1 - y^2), delta = 1/w - 1/(e^w - 1)
    and w = dy B / D; each rate is its coefficient in F over dy."""
    b, d = (1.0 - lam) * y - m, 0.5 * lam * (1.0 - y * y)
    w = dy * b / d
    delta = 1.0 / w - 1.0 / math.expm1(w)
    return (b * (1.0 - delta) + d / dy) / dy, (d / dy - b * delta) / dy


def test_assemble_coefficients_values():
    g = Grid(200)
    upper, lower = assemble_coefficients(KineticParams(0.5, 0.2), g)
    i_mid = np.where(g.interior_interfaces == 0.0)[0][0]
    # the middle interface (B = -m, D = lam/2) and the one nearest the left boundary
    for i, y in ((i_mid, 0.0), (0, -0.99)):
        want_upper, want_lower = _chang_cooper_rates(0.5, 0.2, y, g.cell_width)
        assert upper[i] == pytest.approx(want_upper, rel=1e-12, abs=0)
        assert lower[i] == pytest.approx(want_lower, rel=1e-12, abs=0)
    # the interface nearest the left boundary stays strictly diffusive
    assert upper[0] > 0.0 and lower[0] > 0.0


def test_operator_columns_sum_to_zero():
    # zero column sums are what makes the implicit step conserve mass
    g = Grid(50)
    upper, lower = assemble_coefficients(KineticParams(0.8, -0.3), g)
    colsum = solver_module._diagonal(upper, lower)
    colsum[:-1] += lower
    colsum[1:] += upper
    scale = max(upper.max(), lower.max())
    assert np.max(np.abs(colsum)) <= 1e-13 * scale


def test_discrete_equilibrium_uniform_case():
    field = discretize_equilibrium(KineticParams(1.0, 0.0), Grid(64))
    assert np.all(field.values == 0.5)


def test_discrete_equilibrium_kernel_property():
    # small grid: the residual is at absolute machine scale
    p = KineticParams(0.5, 0.2)
    g = Grid(8)
    eq = discretize_equilibrium(p, g)
    res = _apply_bands(assemble_coefficients(p, g), eq.values.copy())
    assert np.max(np.abs(res)) <= 1e-14
    # production grid: the bands scale like 1/dy^2, so the honest statement
    # is a residual within a few ulps of the operator scale
    g = Grid(200)
    eq = discretize_equilibrium(p, g)
    upper, lower = assemble_coefficients(p, g)
    res = _apply_bands((upper, lower), eq.values.copy())
    scale = max(upper.max(), lower.max()) * eq.values.max()
    assert np.max(np.abs(res)) <= 20 * np.finfo(float).eps * scale


@pytest.mark.parametrize("lam, m, n, rel", [
    (0.5, 0.0, 200, 1e-14),
    (20.0, 0.3, 200, 2e-14),
    (1.5, -0.1, 7, 1e-15),
    (0.02, -0.9, 200, 4e-13),
    (0.005, 0.0, 200, 6e-13),
    (0.01, 0.5, 2000, 6e-12),
])
def test_discrete_equilibrium_matches_zero_flux_oracle(lam, m, n, rel):
    # the log-space sum rounds each of its n terms, so each bound follows n
    # and the span of log g (1108 at (0.01, 0.5, 2000)), about twice the
    # measured error
    g = Grid(n)
    disc = discretize_equilibrium(KineticParams(lam, m), g).values
    want = zero_flux_kernel(lam, m, g.interior_interfaces, g.cell_width)
    cells = want > 1e-300
    assert np.max(np.abs(disc[cells] / want[cells] - 1.0)) <= rel


# hypothesis imports libcst to write a failure patch, and libcst's import
# warns: without this filter a failing example ends the run as an INTERNALERROR
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, deadline=None)
@given(lam=st.floats(1e-3, 50.0), m=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       n=st.integers(4, 2000))
def test_rates_are_positive_or_raise_and_the_kernel_is_a_density(lam, m, n):
    p, g = KineticParams(lam, m), Grid(n)
    try:
        upper, lower = assemble_coefficients(p, g)
    except SolverError:
        return
    assert np.all(np.isfinite(upper) & (upper > 0.0))
    assert np.all(np.isfinite(lower) & (lower > 0.0))
    v = discretize_equilibrium(p, g).values
    assert np.all(np.isfinite(v) & (v >= 0.0))
    assert abs(v.sum() * g.cell_width - 1.0) <= 1e-12


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
def test_discrete_equilibrium_matches_beta(lam):
    p = KineticParams(lam, 0.0)
    g = Grid(200)
    disc = discretize_equilibrium(p, g)
    ana = BetaEquilibrium.from_params(p).on_grid(g)
    assert l1_distance(disc.values, ana) <= 2e-3


def test_discrete_equilibrium_refinement_order():
    p = KineticParams(0.8, 0.0)
    errs = []
    ns = (100, 200, 400, 800)
    for n in ns:
        g = Grid(n)
        errs.append(l1_distance(discretize_equilibrium(p, g).values,
                                BetaEquilibrium.from_params(p).on_grid(g)))
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order >= 1.0


def test_step_holds_equilibrium():
    p = KineticParams(0.5, 0.2)
    g = Grid(200)
    eq = discretize_equilibrium(p, g)
    v = _rows(p, eq, 1e-3, 1)[0]
    assert np.max(np.abs(v - eq.values)) <= 1e-13


def test_step_conserves_mass_and_positivity():
    p = KineticParams(0.5, 0.0)
    g = Grid(200)
    rng = np.random.default_rng(4)
    v0 = DensityField(g, rng.uniform(0.0, 1.0, 200)).normalized()
    before = v0
    for row in _rows(p, v0, 0.05, 20):
        after = DensityField(g, row)
        assert abs(after.mass() - before.mass()) <= 1e-13
        assert np.all(after.values >= 0.0)
        assert np.all(after.values[1:-1] > 0.0)
        before = after


def test_step_from_point_mass_spreads_positively():
    # a single loaded cell becomes strictly positive after one implicit step
    p = KineticParams(1.0, 0.0)
    g = Grid(64)
    v = np.zeros(64)
    v[32] = 1.0 / g.cell_width
    assert np.all(_rows(p, DensityField(g, v), 0.1, 1)[0] > 0.0)


def test_step_decreases_entropy():
    p = KineticParams(0.5, 0.0)
    g = Grid(200)
    eq = discretize_equilibrium(p, g)
    v0 = bimodal_density(g)
    h0 = relative_entropy(v0.values, eq)
    assert relative_entropy(_rows(p, v0, 1e-3, 1)[0], eq) < h0


def test_solve_from_equilibrium_is_flat():
    p = KineticParams(1.0, 0.0)
    g = Grid(100)
    eq = discretize_equilibrium(p, g)
    traj = solve(p, eq, 1e-3, 0.5, sample_every=50)
    assert np.all(traj.columns["entropy"] <= 1e-12)
    assert np.all(traj.columns["l1_dist"] <= 1e-12)
    assert np.all(traj.columns["weighted_l2"] <= 1e-12)


def test_solve_trajectory_invariants():
    p = KineticParams(0.6, 0.0)
    g = Grid(128)
    traj = solve(p, bimodal_density(g), 2e-3, 3.0, sample_every=25)
    assert traj.max_entropy_increase <= 1e-12
    assert np.all(np.diff(traj.columns["entropy"]) <= 1e-12)
    assert np.max(np.abs(traj.columns["mass"] - 1.0)) <= 1e-12
    assert traj.max_mass_drift <= 1e-12
    # terminal state close to the discrete steady state
    assert traj.columns["l1_dist"][-1] <= 1e-2
    assert math.isinf(traj.columns["fisher"][0]) or traj.columns["fisher"][0] >= 0.0


def test_solve_input_validation():
    p = KineticParams(0.5, 0.0)
    g = Grid(64)
    with pytest.raises(ValueError):
        solve(p, DensityField(g, np.full(64, 1.0)), 1e-3, 1.0)  # mass 2
    with pytest.raises(ValueError):
        solve(p, uniform_density(g), -1e-3, 1.0)
    with pytest.raises(ValueError):
        solve(p, uniform_density(g), 1e-3, 0.0)


def test_solve_ends_at_t_end_or_raises():
    # the library call keeps the config rule: t_end is a whole number of dt steps
    p = KineticParams(0.5, 0.0)
    v0 = uniform_density(Grid(64))
    for dt, t_end in ((0.5, 0.1), (0.03, 0.1)):
        with pytest.raises(ValueError, match="must be a whole number of dt steps"):
            solve(p, v0, dt, t_end)
    assert solve(p, v0, 0.05, 0.1).columns["t"][-1] == pytest.approx(0.1, rel=1e-12, abs=0)


def test_solver_runs_outside_l2_regime():
    # degenerate-parameter run: the scheme itself has no regime gate
    p = KineticParams(2.4, 0.3)
    g = Grid(100)
    traj = solve(p, uniform_density(g), 1e-3, 0.5, sample_every=100)
    assert traj.max_mass_drift <= 1e-12
    assert np.all(traj.final.values >= 0.0)


@pytest.mark.parametrize("lam, k", [(0.5, log_sobolev_constant(KineticParams(0.5, 0.0))),
                                     (3.0, math.nan)], ids=["l2_regime", "lambda_3"])
def test_k_fisher_is_k_times_fisher(lam, k):
    # outside the L2 regime there is no K, and the column is all NaN
    traj = solve(KineticParams(lam, 0.0), bimodal_density(Grid(64)), 1e-2, 0.5)
    assert np.array_equal(traj.columns["k_fisher"], k * traj.columns["fisher"], equal_nan=True)
    assert np.isnan(traj.columns["k_fisher"]).all() == math.isnan(k)


def _reference_entropy(f, g, dy):
    # the direct and series formulas on every cell, chosen per cell afterwards
    r = f / g
    u = r - 1.0
    direct = r * np.log(r, out=np.zeros_like(r), where=r > 0.0) - u
    acc = np.zeros_like(u)
    for k in range(10, 1, -1):
        acc = acc * u + (1.0 if k % 2 == 0 else -1.0) / (k * (k - 1))
    return float((g * np.where(np.abs(u) < 0.01, acc * u * u, direct)).sum() * dy)


@pytest.mark.parametrize("lam, m, n, dt, t_end", [
    (0.5, 0.0, 200, 1e-3, 1.0),
    (0.8, 0.3, 400, 1e-2, 2.0),
    (1.5, -0.1, 100, 5e-2, 5.0),
])
def test_solve_matches_banded_reference_bitwise(lam, m, n, dt, t_end):
    # reference: a fresh banded solve of (I - dt A) v_new = v_old every step
    p = KineticParams(lam, m)
    g = Grid(n)
    v0 = bimodal_density(g)
    upper, lower = assemble_coefficients(p, g)
    bands = np.zeros((3, n))
    bands[0, 1:] = -dt * upper
    bands[1, :] = 1.0 - dt * solver_module._diagonal(upper, lower)
    bands[2, :-1] = -dt * lower
    eq = discretize_equilibrium(p, g).values
    dy = g.cell_width
    n_steps, every = int(round(t_end / dt)), 7
    v, t = v0.values.copy(), 0.0
    times, entropy = [t], [_reference_entropy(v, eq, dy)]
    for k in range(1, n_steps + 1):
        v = solve_banded((1, 1), bands, v)
        t += dt
        if k % every == 0 or k == n_steps:
            times.append(t)
            entropy.append(_reference_entropy(v, eq, dy))

    traj = solve(p, v0, dt, t_end, sample_every=every)
    assert np.array_equal(traj.final.values, v)
    assert np.array_equal(traj.columns["t"], times)
    assert np.array_equal(traj.columns["entropy"], entropy)


@pytest.mark.parametrize("n, t_end, start", [
    pytest.param(200, 1.23, "bimodal", id="n200_partial_last_block"),
    pytest.param(2000, 0.12, "bimodal", id="n2000_five_row_blocks"),
    pytest.param(200, 0.3, "point_mass", id="n200_point_mass_start"),
])
def test_solve_rows_equal_one_row_functionals_bitwise(n, t_end, start):
    # reference: a per-step dgttrs loop, each sampled row scored alone as a
    # DensityField by the public one-row functionals
    p = KineticParams(0.8, 0.3)
    g = Grid(n)
    if start == "bimodal":
        v0 = bimodal_density(g)
    else:
        v = np.zeros(n)
        v[n // 3] = 1.0 / g.cell_width
        v0 = DensityField(g, v)
    dt, every = 1e-2, 7
    lu = _factors(p, g, dt)
    eq = discretize_equilibrium(p, g)
    n_steps = int(round(t_end / dt))
    assert n_steps % every != 0
    v, t = v0.values, 0.0
    times, fields = [t], [v0]
    for k in range(1, n_steps + 1):
        v, info = dgttrs(*lu, v)
        assert info == 0
        t += dt
        if k % every == 0 or k == n_steps:
            times.append(t)
            fields.append(DensityField(g, v))

    traj = solve(p, v0, dt, t_end, sample_every=every)
    fisher = [weighted_fisher(f.values, eq, p.lam) if np.all(f.values > 0.0) else math.inf
              for f in fields]
    assert math.isinf(fisher[0]) == (start == "point_mass")
    assert np.array_equal(traj.columns["t"], times)
    assert np.array_equal(traj.columns["entropy"],
                          [entropy_gap(f.values, eq) for f in fields])
    assert np.array_equal(traj.columns["fisher"], fisher)
    assert np.array_equal(traj.columns["l1_dist"], [l1_distance(f.values, eq) for f in fields])
    assert np.array_equal(traj.columns["weighted_l2"], [weighted_l2(f.values, eq) for f in fields])
    assert np.array_equal(traj.columns["mass"], [f.mass() for f in fields])
    assert np.array_equal(traj.columns["mean"], [f.mean() for f in fields])
    assert np.array_equal(traj.final.values, fields[-1].values)


@pytest.mark.parametrize("n, n_steps", [
    pytest.param(200, 123, id="n200_partial_last_block"),
    pytest.param(200, 1, id="n200_one_step"),
    pytest.param(2000, 12, id="n2000_five_row_blocks"),
])
def test_march_blocks_equal_a_per_step_dgttrs_loop(n, n_steps):
    p = KineticParams(0.8, 0.3)
    g = Grid(n)
    v0, dt = bimodal_density(g), 1e-2
    lu = _factors(p, g, dt)
    dy = g.cell_width
    v, t = v0.values, 0.0
    ref_values, ref_times, ref_mass = [], [], []
    for _ in range(n_steps):
        v, info = dgttrs(*lu, v)
        assert info == 0
        t += dt
        ref_values.append(v)
        ref_times.append(t)
        ref_mass.append(float(v.sum() * dy))

    blocks = list(solver_module.march(p, v0, dt, n_steps))
    rows = max(1, 10_000 // n)
    assert [len(b[0]) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1][0]) <= rows
    assert [k for b in blocks for k in b[0]] == list(range(1, n_steps + 1))
    assert np.array_equal(np.concatenate([b[2] for b in blocks]), ref_values)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), ref_times)
    assert np.array_equal(np.concatenate([b[3] for b in blocks]), ref_mass)


@pytest.mark.parametrize("dt, scale, match", [
    pytest.param(0.0, 1.0, "dt must be positive", id="dt_zero"),
    pytest.param(-1e-3, 1.0, "dt must be positive", id="dt_negative"),
    pytest.param(1e-3, 1.0 + 2e-8, "unit mass", id="mass_above"),
    pytest.param(1e-3, 1.0 - 2e-8, "unit mass", id="mass_below"),
])
def test_march_checks_dt_and_mass_at_the_first_next(monkeypatch, dt, scale, match):
    p, g = KineticParams(0.8, 0.3), Grid(200)
    v0 = DensityField(g, bimodal_density(g).values * scale)
    blocks = solver_module.march(p, v0, dt, 123)

    def no_load():
        raise AssertionError("march loaded LAPACK before its checks")

    monkeypatch.setattr(solver_module, "lapack", no_load)
    with pytest.raises(ValueError, match=match):
        next(blocks)


def test_march_takes_a_start_within_1e_8_of_unit_mass():
    p, g = KineticParams(0.8, 0.3), Grid(200)
    v0 = bimodal_density(g)
    off = DensityField(g, v0.values * (1.0 + 5e-9))
    assert len(next(solver_module.march(p, off, 1e-3, 1))[0]) == 1


def test_solve_rejects_a_zero_dt():
    with pytest.raises(ValueError, match="dt must be positive"):
        solve(KineticParams(0.5, 0.0), bimodal_density(Grid(64)), 0.0, 0.1)


def _poison_steps(monkeypatch, bad_at):
    """Make the k-th dgttrs solve write bad_at(k), unless None, into its middle cell."""
    calls = itertools.count(1)

    def poisoned(*args, **kwargs):
        x, info = dgttrs(*args, **kwargs)
        bad = bad_at(next(calls))
        if bad is not None:
            x[x.size // 2] = bad
        return x, info

    _stub_dgttrs(monkeypatch, poisoned)


@pytest.mark.parametrize("bad", [math.nan, -1e-3])
def test_non_finite_or_negative_step_is_a_solver_error(monkeypatch, tmp_path, bad):
    kind = "non-finite" if math.isnan(bad) else "negative"
    _poison_steps(monkeypatch, lambda k: bad)
    p = KineticParams(0.5, 0.0)
    with pytest.raises(SolverError, match=f"implicit step 1 produced {kind} values"):
        solve(p, bimodal_density(Grid(64)), 1e-3, 0.1)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 64\nt_end = 0.1\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # poison only step 7, inside the first 50-step block at n = 200
    _poison_steps(monkeypatch, lambda k: bad if k == 7 else None)
    with pytest.raises(SolverError, match=f"implicit step 7 produced {kind} values"):
        solve(p, bimodal_density(Grid(200)), 1e-3, 0.1)


def test_first_bad_step_of_a_block_is_reported(monkeypatch):
    # a negative value at step 3 comes before a NaN at step 5 in one block
    _poison_steps(monkeypatch, {3: -1e-3, 5: math.nan}.get)
    with pytest.raises(SolverError, match="implicit step 3 produced negative values"):
        solve(KineticParams(0.5, 0.0), bimodal_density(Grid(200)), 1e-3, 0.1)


def test_entropy_increase_across_a_block_boundary_is_seen(monkeypatch):
    # step 51 opens the second 50-step block at n = 200; it restarts from v0
    p = KineticParams(0.5, 0.0)
    v0 = bimodal_density(Grid(200))
    h_50 = solve(p, v0, 1e-3, 0.05, sample_every=50).columns["entropy"][-1]
    calls = itertools.count(1)

    def restart(*args, **kwargs):
        x, info = dgttrs(*args, **kwargs)
        return (v0.values.copy() if next(calls) == 51 else x), info

    _stub_dgttrs(monkeypatch, restart)
    traj = solve(p, v0, 1e-3, 0.1)
    assert traj.max_entropy_increase == traj.columns["entropy"][0] - h_50 > 0.0


def _solve_scoring_each_block(p, v0, dt, t_end, every):
    """solve as a per-block loop: each march block's sampled rows scored as
    their own stack, the entropy increase through np.diff."""
    eq = discretize_equilibrium(p, v0.grid)
    n_steps = int(round(t_end / dt))
    h_prev = entropy_gap(v0.values[None, :], eq)
    max_increase, max_drift = 0.0, abs(v0.mass() - 1.0)
    pieces = [(np.zeros(1), v0.values[None, :], np.array([v0.mass()]), h_prev)]
    for steps, times, values, mass in solver_module.march(p, v0, dt, n_steps):
        h = entropy_gap(values, eq)
        max_increase = max(max_increase, float(np.diff(h, prepend=h_prev[-1]).max()))
        h_prev = h
        max_drift = max(max_drift, float(np.abs(mass - 1.0).max()))
        k = np.arange(steps.start, steps.stop)
        keep = (k % every == 0) | (k == n_steps)
        pieces.append((times[keep], values[keep], mass[keep], h[keep]))
    k = log_sobolev_constant(p)
    columns = {"t": [], "entropy": [], "fisher": [], "k_fisher": [], "l1_dist": [],
               "weighted_l2": [], "mass": [], "mean": []}
    for times, rows, mass, h in pieces:
        fisher = np.full(len(rows), math.inf)
        positive = (rows > 0.0).all(axis=-1)
        if positive.any():
            fisher[positive] = weighted_fisher(rows[positive], eq, p.lam)
        for name, col in zip(columns, (times, h, fisher, k * fisher, l1_distance(rows, eq),
                                       weighted_l2(rows, eq), mass, _mean(rows, v0.grid))):
            columns[name].append(col)
    return ({name: np.concatenate(cols) for name, cols in columns.items()},
            max_increase, max_drift, values[-1])


@pytest.mark.parametrize("block_values, rows", [(200, 1), (1400, 7), (10_000, 50)])
@pytest.mark.parametrize("every", [1, 7, 123])
@pytest.mark.parametrize("start", ["bimodal", "equilibrium"])
def test_solve_chunks_equal_per_block_scoring_bitwise(monkeypatch, block_values, rows,
                                                      every, start):
    # 123 steps at n = 200: the last block is partial for 7- and 50-row blocks
    p = KineticParams(0.8, 0.3)
    g = Grid(200)
    v0 = bimodal_density(g) if start == "bimodal" else discretize_equilibrium(p, g)
    monkeypatch.setattr(solver_module, "_BLOCK_VALUES", block_values)
    assert len(next(solver_module.march(p, v0, 1e-2, 123))[0]) == rows
    columns, max_increase, max_drift, final = _solve_scoring_each_block(p, v0, 1e-2, 1.23,
                                                                         every)
    traj = solve(p, v0, 1e-2, 1.23, sample_every=every)
    for name, want in columns.items():
        assert np.array_equal(traj.columns[name], want), name
    assert traj.max_entropy_increase == max_increase
    assert traj.max_mass_drift == max_drift
    assert np.array_equal(traj.final.values, final)


def test_solve_memory_stays_bounded_after_the_first_block(monkeypatch):
    # 10^4 steps at n = 200 sample 1 001 rows: 1.6 MB, 20 blocks of 80 kB,
    # if all were kept.  The bound allows one block in march, two of pending
    # rows and their stack, and about five of kernel temporaries on a stack
    # (entropy_gap's alone are 0.33 MB).
    march = solver_module.march
    after_first = []

    def traced_march(*args):
        blocks = march(*args)
        yield next(blocks)
        after_first.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        yield from blocks

    monkeypatch.setattr(solver_module, "march", traced_march)
    v0 = bimodal_density(Grid(200))
    tracemalloc.start()
    try:
        traj = solve(KineticParams(0.5, 0.0), v0, 1e-3, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.columns["t"]) == 1001
    assert peak - after_first[0] < 10 * 80e3
