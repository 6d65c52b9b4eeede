import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrs

from opinion_kinetics import (
    BetaEquilibrium,
    DensityField,
    KineticParams,
    SolverError,
    assemble_coefficients,
    bimodal_density,
    build_grid,
    discretize_equilibrium,
    l1_distance,
    make_solver_state,
    relative_entropy,
    solve,
    uniform_density,
    weighted_fisher,
    weighted_l2,
)
from opinion_kinetics import solver as solver_module
from opinion_kinetics.cli import main
from opinion_kinetics.functionals import entropy_gap
from oracles import zero_flux_kernel


def _apply_bands(rates, values):
    """A @ values from the assembled rates and the diagonal the solver factors."""
    upper, lower = rates
    out = solver_module._diagonal(upper, lower) * values
    out[:-1] += upper * values[1:]
    out[1:] += lower * values[:-1]
    return out


def _rows(s, n_steps):
    """Every row march yields from s, in step order."""
    return np.concatenate([b[2] for b in solver_module.march(s, n_steps)])


def test_assemble_coefficients_pure_diffusion():
    # lam = 1, m = 0: drift vanishes identically, so both rates are D/dy^2
    g = build_grid(64)
    upper, lower = assemble_coefficients(KineticParams(1.0, 0.0), g)
    y, dy = g.interior_interfaces, g.cell_width
    assert np.array_equal(upper, lower)
    assert np.allclose(upper, 0.5 * (1.0 - y * y) / dy**2, rtol=1e-14, atol=0.0)
    assert np.all(upper > 0.0)


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
    g = build_grid(200)
    upper, lower = assemble_coefficients(KineticParams(0.5, 0.2), g)
    i_mid = np.where(g.interior_interfaces == 0.0)[0][0]
    # the middle interface (B = -m, D = lam/2) and the one nearest the left boundary
    for i, y in ((i_mid, 0.0), (0, -0.99)):
        want_upper, want_lower = _chang_cooper_rates(0.5, 0.2, y, g.cell_width)
        assert upper[i] == pytest.approx(want_upper, rel=1e-12)
        assert lower[i] == pytest.approx(want_lower, rel=1e-12)
    # the interface nearest the left boundary stays strictly diffusive
    assert upper[0] > 0.0 and lower[0] > 0.0


def test_operator_columns_sum_to_zero():
    # zero column sums are what makes the implicit step conserve mass
    g = build_grid(50)
    upper, lower = assemble_coefficients(KineticParams(0.8, -0.3), g)
    colsum = solver_module._diagonal(upper, lower)
    colsum[:-1] += lower
    colsum[1:] += upper
    scale = max(upper.max(), lower.max())
    assert np.max(np.abs(colsum)) <= 1e-13 * scale


def test_discrete_equilibrium_uniform_case():
    field = discretize_equilibrium(KineticParams(1.0, 0.0), build_grid(64))
    assert np.all(field.values == 0.5)


def test_discrete_equilibrium_kernel_property():
    # small grid: the residual is at absolute machine scale
    p = KineticParams(0.5, 0.2)
    g = build_grid(8)
    eq = discretize_equilibrium(p, g)
    res = _apply_bands(assemble_coefficients(p, g), eq.values.copy())
    assert np.max(np.abs(res)) <= 1e-14
    # production grid: the bands scale like 1/dy^2, so the honest statement
    # is a residual within a few ulps of the operator scale
    g = build_grid(200)
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
    g = build_grid(n)
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
    p, g = KineticParams(lam, m), build_grid(n)
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
    g = build_grid(200)
    disc = discretize_equilibrium(p, g)
    ana = BetaEquilibrium.from_params(p).on_grid(g)
    assert l1_distance(disc, ana) <= 2e-3


def test_discrete_equilibrium_refinement_order():
    p = KineticParams(0.8, 0.0)
    errs = []
    ns = (100, 200, 400, 800)
    for n in ns:
        g = build_grid(n)
        errs.append(l1_distance(discretize_equilibrium(p, g),
                                BetaEquilibrium.from_params(p).on_grid(g)))
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert order >= 1.0


def test_step_holds_equilibrium():
    p = KineticParams(0.5, 0.2)
    g = build_grid(200)
    eq = discretize_equilibrium(p, g)
    v = _rows(make_solver_state(p, eq, 1e-3), 1)[0]
    assert np.max(np.abs(v - eq.values)) <= 1e-13


def test_step_conserves_mass_and_positivity():
    p = KineticParams(0.5, 0.0)
    g = build_grid(200)
    rng = np.random.default_rng(4)
    v0 = DensityField(g, rng.uniform(0.0, 1.0, 200)).normalized()
    before = v0
    for row in _rows(make_solver_state(p, v0, 0.05), 20):
        after = DensityField(g, row)
        assert abs(after.mass() - before.mass()) <= 1e-13
        assert np.all(after.values >= 0.0)
        assert np.all(after.values[1:-1] > 0.0)
        before = after


def test_step_from_point_mass_spreads_positively():
    # a single loaded cell becomes strictly positive after one implicit step
    p = KineticParams(1.0, 0.0)
    g = build_grid(64)
    v = np.zeros(64)
    v[32] = 1.0 / g.cell_width
    assert np.all(_rows(make_solver_state(p, DensityField(g, v), 0.1), 1)[0] > 0.0)


def test_step_decreases_entropy():
    p = KineticParams(0.5, 0.0)
    g = build_grid(200)
    eq = discretize_equilibrium(p, g)
    s = make_solver_state(p, bimodal_density(g), 1e-3)
    h0 = relative_entropy(s.density, eq)
    assert relative_entropy(DensityField(g, _rows(s, 1)[0]), eq) < h0


def test_solve_from_equilibrium_is_flat():
    p = KineticParams(1.0, 0.0)
    g = build_grid(100)
    eq = discretize_equilibrium(p, g)
    traj = solve(p, eq, 1e-3, 0.5, sample_every=50)
    assert np.all(traj.entropy <= 1e-12)
    assert np.all(traj.l1_dist <= 1e-12)
    assert np.all(traj.wl2_dist <= 1e-12)


def test_solve_trajectory_invariants():
    p = KineticParams(0.6, 0.0)
    g = build_grid(128)
    traj = solve(p, bimodal_density(g), 2e-3, 3.0, sample_every=25)
    assert traj.max_entropy_increase <= 1e-12
    assert np.all(np.diff(traj.entropy) <= 1e-12)
    assert np.max(np.abs(traj.mass - 1.0)) <= 1e-12
    assert traj.max_mass_drift <= 1e-12
    # terminal state close to the discrete steady state
    assert traj.l1_dist[-1] <= 1e-2
    assert math.isinf(traj.fisher[0]) or traj.fisher[0] >= 0.0


def test_solve_input_validation():
    p = KineticParams(0.5, 0.0)
    g = build_grid(64)
    with pytest.raises(ValueError):
        solve(p, DensityField(g, np.full(64, 1.0)), 1e-3, 1.0)  # mass 2
    with pytest.raises(ValueError):
        solve(p, uniform_density(g), -1e-3, 1.0)
    with pytest.raises(ValueError):
        solve(p, uniform_density(g), 1e-3, 0.0)


def test_solve_ends_at_t_end_or_raises():
    # the library call keeps the config rule: t_end is a whole number of dt steps
    p = KineticParams(0.5, 0.0)
    v0 = uniform_density(build_grid(64))
    for dt, t_end in ((0.5, 0.1), (0.03, 0.1)):
        with pytest.raises(ValueError, match="must be a whole number of dt steps"):
            solve(p, v0, dt, t_end)
    assert solve(p, v0, 0.05, 0.1).times[-1] == pytest.approx(0.1, rel=1e-12)


def test_solver_runs_outside_l2_regime():
    # degenerate-parameter run: the scheme itself has no regime gate
    p = KineticParams(2.4, 0.3)
    g = build_grid(100)
    traj = solve(p, uniform_density(g), 1e-3, 0.5, sample_every=100)
    assert traj.max_mass_drift <= 1e-12
    assert np.all(traj.final.values >= 0.0)


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
    g = build_grid(n)
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
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.entropy, entropy)


@pytest.mark.parametrize("n, t_end, start", [
    pytest.param(200, 1.23, "bimodal", id="n200_partial_last_block"),
    pytest.param(2000, 0.12, "bimodal", id="n2000_five_row_blocks"),
    pytest.param(200, 0.3, "point_mass", id="n200_point_mass_start"),
])
def test_solve_rows_equal_one_row_functionals_bitwise(n, t_end, start):
    # reference: a per-step dgttrs loop, each sampled row scored alone as a
    # DensityField by the public one-row functionals
    p = KineticParams(0.8, 0.3)
    g = build_grid(n)
    if start == "bimodal":
        v0 = bimodal_density(g)
    else:
        v = np.zeros(n)
        v[n // 3] = 1.0 / g.cell_width
        v0 = DensityField(g, v)
    dt, every = 1e-2, 7
    s = make_solver_state(p, v0, dt)
    eq = discretize_equilibrium(p, g)
    n_steps = int(round(t_end / dt))
    assert n_steps % every != 0
    v, t = v0.values, 0.0
    times, fields = [t], [v0]
    for k in range(1, n_steps + 1):
        v, info = dgttrs(*s.lu, v)
        assert info == 0
        t += dt
        if k % every == 0 or k == n_steps:
            times.append(t)
            fields.append(DensityField(g, v))

    traj = solve(p, v0, dt, t_end, sample_every=every)
    fisher = [weighted_fisher(f, eq, p.lam) if np.all(f.values > 0.0) else math.inf
              for f in fields]
    assert math.isinf(fisher[0]) == (start == "point_mass")
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.entropy,
                          [entropy_gap(f.values, eq.values, g.cell_width) for f in fields])
    assert np.array_equal(traj.fisher, fisher)
    assert np.array_equal(traj.l1_dist, [l1_distance(f, eq) for f in fields])
    assert np.array_equal(traj.wl2_dist, [weighted_l2(f, eq) for f in fields])
    assert np.array_equal(traj.mass, [f.mass() for f in fields])
    assert np.array_equal(traj.mean, [f.mean() for f in fields])
    assert np.array_equal(traj.final.values, fields[-1].values)


@pytest.mark.parametrize("n, n_steps", [
    pytest.param(200, 123, id="n200_partial_last_block"),
    pytest.param(200, 1, id="n200_one_step"),
    pytest.param(2000, 12, id="n2000_five_row_blocks"),
])
def test_march_blocks_equal_a_per_step_dgttrs_loop(n, n_steps):
    p = KineticParams(0.8, 0.3)
    g = build_grid(n)
    s = make_solver_state(p, bimodal_density(g), 1e-2)
    dy = g.cell_width
    v, t = s.density.values, 0.0
    ref_values, ref_times, ref_mass = [], [], []
    for _ in range(n_steps):
        v, info = dgttrs(*s.lu, v)
        assert info == 0
        t += s.dt
        ref_values.append(v)
        ref_times.append(t)
        ref_mass.append(float(v.sum() * dy))

    blocks = list(solver_module.march(s, n_steps))
    rows = max(1, 10_000 // n)
    assert [len(b[0]) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1][0]) <= rows
    assert [k for b in blocks for k in b[0]] == list(range(1, n_steps + 1))
    assert np.array_equal(np.concatenate([b[2] for b in blocks]), ref_values)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), ref_times)
    assert np.array_equal(np.concatenate([b[3] for b in blocks]), ref_mass)


def _poison_steps(monkeypatch, bad_at):
    """Make the k-th dgttrs solve write bad_at(k), unless None, into its middle cell."""
    calls = itertools.count(1)

    def poisoned(*args, **kwargs):
        x, info = dgttrs(*args, **kwargs)
        bad = bad_at(next(calls))
        if bad is not None:
            x[x.size // 2] = bad
        return x, info

    monkeypatch.setattr(solver_module, "dgttrs", poisoned)


@pytest.mark.parametrize("bad", [math.nan, -1e-3])
def test_non_finite_or_negative_step_is_a_solver_error(monkeypatch, tmp_path, bad):
    kind = "non-finite" if math.isnan(bad) else "negative"
    _poison_steps(monkeypatch, lambda k: bad)
    p = KineticParams(0.5, 0.0)
    with pytest.raises(SolverError, match=f"implicit step 1 produced {kind} values"):
        solve(p, bimodal_density(build_grid(64)), 1e-3, 0.1)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 64\nt_end = 0.1\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # poison only step 7, inside the first 50-step block at n = 200
    _poison_steps(monkeypatch, lambda k: bad if k == 7 else None)
    with pytest.raises(SolverError, match=f"implicit step 7 produced {kind} values"):
        solve(p, bimodal_density(build_grid(200)), 1e-3, 0.1)


def test_first_bad_step_of_a_block_is_reported(monkeypatch):
    # a negative value at step 3 comes before a NaN at step 5 in one block
    _poison_steps(monkeypatch, {3: -1e-3, 5: math.nan}.get)
    with pytest.raises(SolverError, match="implicit step 3 produced negative values"):
        solve(KineticParams(0.5, 0.0), bimodal_density(build_grid(200)), 1e-3, 0.1)


def test_entropy_increase_across_a_block_boundary_is_seen(monkeypatch):
    # step 51 opens the second 50-step block at n = 200; it restarts from v0
    p = KineticParams(0.5, 0.0)
    v0 = bimodal_density(build_grid(200))
    h_50 = solve(p, v0, 1e-3, 0.05, sample_every=50).entropy[-1]
    calls = itertools.count(1)

    def restart(*args, **kwargs):
        x, info = dgttrs(*args, **kwargs)
        return (v0.values.copy() if next(calls) == 51 else x), info

    monkeypatch.setattr(solver_module, "dgttrs", restart)
    traj = solve(p, v0, 1e-3, 0.1)
    assert traj.max_entropy_increase == traj.entropy[0] - h_50 > 0.0
