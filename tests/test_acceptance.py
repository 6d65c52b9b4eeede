"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines; each criterion is also a hard assertion."""

import math
import time

import mpmath
import numpy as np
import pytest

from opinion_kinetics.config import whole_steps
from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.fitting import fit_decay_rate
from opinion_kinetics.functionals import (
    entropy_gap,
    l1_distance,
    ls_slack,
    relative_entropy,
    uniform_ls_slack,
    weighted_fisher,
)
from opinion_kinetics.grid import (
    DensityField,
    Grid,
    bimodal_density,
    random_grid_functions,
    random_smooth_densities,
)
from opinion_kinetics.montecarlo import (
    Ensemble,
    InteractionParams,
    histogram,
    mc_sweeps,
    sample_from_density,
)
from opinion_kinetics.params import KineticParams, bakry_emery_rho, log_sobolev_constant
from opinion_kinetics.solver import discretize_equilibrium, march, solve

import oracles


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _last_row(p, v0, dt, n_steps):
    """The density after n_steps backward-Euler steps from v0."""
    for _, _, values, _ in march(p, v0, dt, n_steps):
        pass
    return DensityField(v0.grid, values[-1])


def _swept(e, ip, n_sweeps):
    """The ensemble after n_sweeps Monte Carlo sweeps from e."""
    for _, x, _, _ in mc_sweeps(e, ip, n_sweeps):
        pass
    return Ensemble(opinions=x, rng=e.rng)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def decay_runs():
    """Bimodal decay runs shared by criteria 3, 4 and 5."""
    runs = {}
    grid = Grid(200)
    v0 = bimodal_density(grid)
    for lam in (0.2, 0.4, 0.6, 0.8):
        runs[(lam, 0.0)] = solve(KineticParams(lam, 0.0), v0, 1e-3, 10.0, 10)
    runs[(0.5, 0.2)] = solve(KineticParams(0.5, 0.2), v0, 1e-3, 10.0, 10)
    return runs


# ---------------------------------------------------------------- criteria

def test_criterion_1_closed_form_constants():
    t0 = time.time()
    worst_min = 0.0
    worst_identity = 0.0
    count = 0
    for lam in np.linspace(0.1, 1.8, 18):
        c = 1.0 - lam / 2.0
        for frac in (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95):
            p = KineticParams(float(lam), float(frac * c))
            min_val = float(oracles.potential_second_min(p.lam, p.m))
            rho = bakry_emery_rho(p)
            worst_min = max(worst_min, abs(min_val - rho))
            worst_identity = max(
                worst_identity, abs(2.0 * rho * log_sobolev_constant(p) - 1.0))
            count += 1
    elapsed = time.time() - t0
    ok = count >= 100 and worst_min <= 1e-10 and worst_identity <= 1e-12 and elapsed < 1.0
    _report(1, "closed-form constant oracle", ok,
            f"{count} points, max|min-rho|={worst_min:.2e}, "
            f"max|2 K rho - 1|={worst_identity:.2e}, {elapsed:.2f}s")


def test_criterion_2_steady_state_preservation():
    t0 = time.time()
    p = KineticParams(0.5, 0.0)
    grid = Grid(200)
    eq = discretize_equilibrium(p, grid)
    final = _last_row(p, eq, 1e-3, 10_000)
    drift = float(np.max(np.abs(final.values - eq.values)))
    mass_drift = abs(final.mass() - 1.0)

    l1_at_200 = {}
    orders = {}
    for lam in (0.2, 0.4, 0.6, 0.8):
        pv = KineticParams(lam, 0.0)
        errs = []
        ns = (100, 200, 400, 800)
        for n in ns:
            g = Grid(n)
            errs.append(l1_distance(discretize_equilibrium(pv, g).values,
                                    BetaEquilibrium.from_params(pv).on_grid(g)))
        l1_at_200[lam] = errs[1]
        orders[lam] = -float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    ok = (drift <= 1e-10 and mass_drift <= 1e-10
          and all(e <= 2e-3 for e in l1_at_200.values())
          and all(o >= 1.0 for o in orders.values())
          and elapsed < 5.0)
    _report(2, "steady-state preservation", ok,
            f"drift={drift:.2e} after 1e4 steps, L1(n=200)="
            f"{max(l1_at_200.values()):.2e}, min order={min(orders.values()):.2f}, "
            f"{elapsed:.2f}s")


def test_criterion_3_conservation(decay_runs):
    # mass: checked on every step of every decay run
    worst_mass = max(tr.max_mass_drift for tr in decay_runs.values())

    # mean: initial datum with mean exactly m, drift rate shrinking at
    # order >= 1 under refinement
    p = KineticParams(0.5, 0.2)
    drifts = []
    ns = (50, 100, 200, 400)
    for n in ns:
        g = Grid(n)
        y = g.centers
        v0 = DensityField(g, (1.0 - y * y) * (1.0 + y)).normalized()
        traj = solve(p, v0, 1e-3, 2.0, 40)
        drifts.append(abs(traj.columns["mean"][-1] - traj.columns["mean"][0])
                      / traj.columns["t"][-1])
    order = -float(np.polyfit(np.log(ns), np.log(drifts), 1)[0])
    ok = worst_mass <= 1e-12 and order >= 1.0
    _report(3, "mass and mean conservation", ok,
            f"max mass drift={worst_mass:.2e}, mean drift order={order:.2f} "
            f"(rates {['%.1e' % d for d in drifts]})")


def test_criterion_4_entropy_decay_rate(decay_runs):
    t0 = time.time()
    details = []
    ok = True
    for lam in (0.2, 0.4, 0.6, 0.8):
        traj = decay_runs[(lam, 0.0)]
        bound = -(2.0 - lam) * 0.95
        fit = fit_decay_rate(traj.columns["t"], traj.columns["entropy"], (5.0, 10.0))
        mono = traj.max_entropy_increase <= 1e-12
        ok = ok and mono and fit.slope <= bound
        details.append(f"lam={lam}: slope={fit.slope:.2f}<= {bound:.2f}, "
                       f"maxInc={traj.max_entropy_increase:.1e}")
    elapsed = time.time() - t0
    _report(4, "entropy decay rate", ok and elapsed < 120.0, "; ".join(details))


def test_criterion_5_weighted_l2_decay(decay_runs):
    ok = True
    details = []
    for key, traj in decay_runs.items():
        fit = fit_decay_rate(traj.columns["t"], traj.columns["weighted_l2"], (5.0, 10.0))
        ok = ok and fit.slope <= -1.9
        details.append(f"{key}: slope={fit.slope:.2f}")
    _report(5, "weighted-L2 decay rate", ok, "; ".join(details))


def test_criterion_6_inequality_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    g100 = Grid(100)
    ckp_min = math.inf
    for _ in range(1000):
        f, h = (DensityField(g100, v) for v in random_smooth_densities(g100, rng, 2))
        ckp_min = min(ckp_min, 2.0 * relative_entropy(f.values, h) - l1_distance(f.values, h) ** 2)

    g400 = Grid(400)
    ls_min = math.inf
    n_points = 0
    for lam in np.round(np.arange(0.2, 1.81, 0.2), 10):
        c = 1.0 - lam / 2.0
        for frac in (0.0, 0.5, -0.5, 0.9, -0.9):
            p = KineticParams(float(lam), float(frac * c))
            ref = BetaEquilibrium.from_params(p).on_grid(g400)
            for _ in range(200):
                phi = random_smooth_densities(g400, rng, 1)[0]
                ls_min = min(ls_min, ls_slack(phi, [(ref, p)])[0])
            n_points += 1

    uni_min = math.inf
    for _ in range(200):
        w = random_grid_functions(g400, rng, 1)[0]
        uni_min = min(uni_min, uniform_ls_slack(w, g400))

    elapsed = time.time() - t0
    ok = (ckp_min >= -1e-10 and ls_min >= -1e-6 and uni_min >= -1e-6
          and elapsed < 60.0)
    _report(6, "inequality property suites", ok,
            f"ckp_min={ckp_min:.2e} (1e3 pairs), ls_min={ls_min:.2e} "
            f"({n_points} param points x 200), uniform_min={uni_min:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_micro_macro_consistency():
    t0 = time.time()
    p = KineticParams(0.5, 0.0)
    start = bimodal_density(Grid(200))  # the law both sides start from

    # (a) histogram vs solver at t_fp = 2
    ip = InteractionParams.from_kinetic(p, gamma=0.5, epsilon=0.01)
    ens = sample_from_density(start, 100_000, seed=42)
    hist_grid = Grid(50)
    ens = _swept(ens, ip, whole_steps(2.0, ip.epsilon * ip.gamma))
    hist = histogram(ens.opinions, hist_grid)
    final = _last_row(p, start, 1e-3, 2000)
    fp = DensityField(hist_grid, final.values.reshape(50, -1).mean(axis=1))
    l1_mc_fp = l1_distance(hist.values, fp)

    # (b) mean conservation across 50 independent runs
    drifts = []
    for seed in range(50):
        e = sample_from_density(start, 5000, seed=100 + seed)
        m0 = float(e.opinions.mean())
        e = _swept(e, ip, whole_steps(1.0, ip.epsilon * ip.gamma))
        drifts.append(float(e.opinions.mean()) - m0)
    drifts = np.array(drifts)
    se = drifts.std(ddof=1) / math.sqrt(drifts.size)
    mean_ok = abs(drifts.mean()) <= 3.0 * se

    # (c) lambda invariance: same lam from (gamma, sigma2) and (2 gamma, 2 sigma2)
    hists = []
    for gamma in (0.4, 0.8):
        ipg = InteractionParams(gamma=gamma, sigma2=p.lam * gamma, epsilon=0.01)
        e = sample_from_density(start, 100_000, seed=11)
        e = _swept(e, ipg, whole_steps(2.0, ipg.epsilon * ipg.gamma))
        hists.append(histogram(e.opinions, hist_grid))
    l1_invariance = l1_distance(hists[0].values, hists[1])
    budget = 2.0 * math.sqrt(2.0 * hist_grid.n_cells / 100_000)  # ~2x expected noise

    elapsed = time.time() - t0
    ok = (l1_mc_fp <= 0.05 and mean_ok and l1_invariance <= budget
          and elapsed < 120.0)
    _report(7, "micro-macro consistency", ok,
            f"L1(mc,fp)={l1_mc_fp:.3f}<=0.05, grand mean drift="
            f"{drifts.mean():.1e} ({abs(drifts.mean())/se:.1f} SE), "
            f"lambda-invariance L1={l1_invariance:.3f}<={budget:.3f}, {elapsed:.1f}s")


def test_criterion_8_transform_correctness():
    # the 60-digit oracle first, outside the timed span, at the sparse angles
    # (tests/test_transform.py has all 2001 at three of these pairs): v at
    # the angles' float sin z, and the paper's explicit angular formula
    # against v(sin z) cos z, both sides in mpmath and compared in logs
    pairs = [(0.2, 0.0), (0.4, 0.0), (0.6, 0.0), (0.8, 0.0), (0.5, 0.2), (1.0, 0.0)]
    z = oracles.SPARSE_ANGLES
    y = np.sin(z)
    want = {pair: np.array([float(mpmath.exp(v)) for v in oracles.beta_log_density(*pair, y)])
            for pair in pairs}
    worst_expl = math.expm1(max(abs(float(e - d))
                                for pair in pairs
                                for d, e in zip(oracles.angular_log_density(*pair, z),
                                                oracles.angular_log_density_explicit(*pair, z))))
    t0 = time.time()
    worst_ident = 0.0
    worst_slope = 0.0
    for lam, m in pairs:
        eq = BetaEquilibrium.from_params(KineticParams(lam, m))
        v = want[lam, m]
        worst_ident = max(worst_ident, float(np.max(np.abs(eq.value(y) - v) / v)))
        deltas = np.logspace(-6, -3, 16)
        zs = math.pi / 2 - deltas
        for sign in (1.0, -1.0):
            expected = 2.0 / lam - 1.0 - sign * 2.0 * m / lam
            slope = np.polyfit(np.log(deltas),
                               eq.log_value(np.sin(sign * zs)) + np.log(np.cos(zs)), 1)[0]
            worst_slope = max(worst_slope, abs(slope - expected) / abs(expected))
    elapsed = time.time() - t0
    ok = (worst_ident <= 1e-12 and worst_expl <= 1e-10 and worst_slope <= 0.02
          and elapsed < 1.0)
    _report(8, "transform correctness", ok,
            f"identity={worst_ident:.1e}<=1e-12, explicit={worst_expl:.1e}<=1e-10, "
            f"exponent rel err={worst_slope:.1e}<=2e-2, {elapsed:.2f}s")


def test_criterion_9_entropy_production_identity():
    t0 = time.time()
    p = KineticParams(0.5, 0.0)
    levels = [(100, 8e-3), (200, 4e-3), (400, 2e-3), (800, 1e-3)]
    errs = []
    for n, dt in levels:
        grid = Grid(n)
        eq = discretize_equilibrium(p, grid)
        v0 = bimodal_density(grid)
        h_prev = entropy_gap(v0.values, eq)
        worst = 0.0
        for steps, times, values, _ in march(p, v0, dt, int(round(1.0 / dt))):
            for k, t, v in zip(steps, times, values):
                h_now = entropy_gap(v, eq)
                if (k - 1) % 25 == 0 and t >= 0.2:
                    fisher = weighted_fisher(v, eq, p.lam)
                    worst = max(worst, abs((h_now - h_prev) / dt + fisher))
                h_prev = h_now
        errs.append(worst)
    hs = [2.0 / n + dt for n, dt in levels]
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    ok = (order >= 0.9 and all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
          and elapsed < 30.0)
    _report(9, "entropy production identity", ok,
            f"|dH/dt + I| = {['%.1e' % e for e in errs]}, order={order:.2f}, "
            f"{elapsed:.1f}s")
