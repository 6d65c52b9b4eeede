import itertools
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrs
from scipy.special import xlogy

from opinion_kinetics import (
    BetaEquilibrium,
    DensityField,
    KineticParams,
    SolverError,
    assemble_coefficients,
    bimodal_density,
    build_grid,
    chang_cooper_delta,
    discretize_equilibrium,
    l1_distance,
    make_solver_state,
    relative_entropy,
    solve,
    step_implicit,
    uniform_density,
)
from opinion_kinetics import solver as solver_module
from opinion_kinetics.cli import main
from opinion_kinetics.solver import apply_operator


def test_chang_cooper_delta_examples():
    assert chang_cooper_delta(0.0) == 0.5
    # upwinding limits
    assert chang_cooper_delta(800.0) == pytest.approx(0.0, abs=0.002)
    assert chang_cooper_delta(-800.0) == pytest.approx(1.0, abs=0.002)
    assert chang_cooper_delta(1e8) < 1e-7
    assert chang_cooper_delta(-1e8) > 1.0 - 1e-7
    # value frozen from a 30-digit evaluation of 1 - 1/(e - 1)
    assert chang_cooper_delta(1.0) == pytest.approx(0.418023293130673607, abs=1e-15)


def test_chang_cooper_delta_series_seam_and_bounds():
    # continuity across the series/direct switch at |w| = 1e-4; the direct
    # formula itself cancels ~4 digits there, hence the 1e-12 comparison
    for w in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        direct = 1.0 / w - 1.0 / math.expm1(w)
        assert chang_cooper_delta(w) == pytest.approx(direct, abs=2e-12)
    w = np.linspace(-50, 50, 2001)
    d = chang_cooper_delta(w)
    assert np.all((d > 0.0) & (d < 1.0))


def test_assemble_coefficients_pure_diffusion():
    # lam = 1, m = 0: drift vanishes identically, centered weights everywhere
    coeffs = assemble_coefficients(KineticParams(1.0, 0.0), build_grid(64))
    assert np.all(coeffs.drift == 0.0)
    assert np.all(coeffs.delta == 0.5)
    assert np.all(coeffs.diffusion > 0.0)


def test_assemble_coefficients_values():
    g = build_grid(200)
    coeffs = assemble_coefficients(KineticParams(0.5, 0.2), g)
    i_mid = np.where(g.interior_interfaces == 0.0)[0][0]
    assert coeffs.drift[i_mid] == pytest.approx(-0.2, abs=1e-15)
    assert coeffs.diffusion[i_mid] == pytest.approx(0.25, abs=1e-15)
    # interface nearest the left boundary stays strictly diffusive
    assert coeffs.diffusion[0] == pytest.approx(0.25 * (1.0 - 0.99**2), rel=1e-12)
    assert coeffs.diffusion[0] > 0.0


def test_operator_columns_sum_to_zero():
    # zero column sums are what makes the implicit step conserve mass
    g = build_grid(50)
    coeffs = assemble_coefficients(KineticParams(0.8, -0.3), g)
    colsum = coeffs.diag.copy()
    colsum[:-1] += coeffs.lower
    colsum[1:] += coeffs.upper
    scale = max(coeffs.upper.max(), coeffs.lower.max())
    assert np.max(np.abs(colsum)) <= 1e-13 * scale


def test_discrete_equilibrium_uniform_case():
    field = discretize_equilibrium(KineticParams(1.0, 0.0), build_grid(64))
    assert np.all(field.values == 0.5)


def test_discrete_equilibrium_kernel_property():
    # small grid: the residual is at absolute machine scale
    p = KineticParams(0.5, 0.2)
    g = build_grid(8)
    eq = discretize_equilibrium(p, g)
    res = apply_operator(assemble_coefficients(p, g), eq.values.copy())
    assert np.max(np.abs(res)) <= 1e-14
    # production grid: the bands scale like 1/dy^2, so the honest statement
    # is a residual within a few ulps of the operator scale
    g = build_grid(200)
    eq = discretize_equilibrium(p, g)
    coeffs = assemble_coefficients(p, g)
    res = apply_operator(coeffs, eq.values.copy())
    scale = max(coeffs.upper.max(), coeffs.lower.max()) * eq.values.max()
    assert np.max(np.abs(res)) <= 20 * np.finfo(float).eps * scale


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
    s = step_implicit(make_solver_state(p, eq, 1e-3))
    assert np.max(np.abs(s.density.values - eq.values)) <= 1e-13


def test_step_conserves_mass_and_positivity():
    p = KineticParams(0.5, 0.0)
    g = build_grid(200)
    rng = np.random.default_rng(4)
    v0 = DensityField(g, rng.uniform(0.0, 1.0, 200)).normalized()
    s = make_solver_state(p, v0, 0.05)
    for _ in range(20):
        mass_before = s.density.mass()
        s = step_implicit(s)
        assert abs(s.density.mass() - mass_before) <= 1e-13
        assert np.all(s.density.values >= 0.0)
        assert np.all(s.density.values[1:-1] > 0.0)


def test_step_from_point_mass_spreads_positively():
    # a single loaded cell becomes strictly positive after one implicit step
    p = KineticParams(1.0, 0.0)
    g = build_grid(64)
    v = np.zeros(64)
    v[32] = 1.0 / g.cell_width
    s = step_implicit(make_solver_state(p, DensityField(g, v), 0.1))
    assert np.all(s.density.values > 0.0)


def test_step_decreases_entropy():
    p = KineticParams(0.5, 0.0)
    g = build_grid(200)
    eq = discretize_equilibrium(p, g)
    s = make_solver_state(p, bimodal_density(g), 1e-3)
    h0 = relative_entropy(s.density, eq)
    s = step_implicit(s)
    assert relative_entropy(s.density, eq) < h0


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
    direct = xlogy(r, r) - u
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
    coeffs = assemble_coefficients(p, g)
    bands = np.zeros((3, n))
    bands[0, 1:] = -dt * coeffs.upper
    bands[1, :] = 1.0 - dt * coeffs.diag
    bands[2, :-1] = -dt * coeffs.lower
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
