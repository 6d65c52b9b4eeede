"""Experiment drivers: steady states, decay runs, Monte Carlo runs, sweeps,
the inequality verification battery and the angular-transform check.
Every artifact is a self-describing CSV (or a plain-text summary
recomputable from the CSVs)."""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, sweep_dir_name, whole_steps
from .equilibrium import BetaEquilibrium
from .fitting import MIN_POINTS, DecayFit, fit_decay_rate
from .functionals import l1_distance, ls_slack, uniform_ls_slack
from .grid import DensityField, Grid, random_grid_functions, random_smooth_densities
from .montecarlo import (
    Ensemble,
    InteractionParams,
    initial_ensemble,
    mc_sweeps,
    moments,
    sample_from_density,
)
from .params import (
    KineticParams,
    ParamRegime,
    RegimeError,
    bakry_emery_rho,
    classify_params,
    log_sobolev_constant,
)
from .solver import Trajectory, discretize_equilibrium, make_solver_state, march, rows_per_block
from .solver import solve
from .transform import (
    angular_equilibrium,
    angular_equilibrium_explicit,
    boundary_exponents,
    minimize_potential_second,
)
from . import montecarlo


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_csv(path: Path, header, columns):
    """Header line, then one row per entry, every value as _fmt prints it."""
    np.savetxt(path, np.column_stack([np.asarray(c, dtype=float) for c in columns]),
               fmt="%.16e", delimiter=",", header=",".join(header), comments="")


def write_equilibrium_csv(out: Path, p: KineticParams, grid: Grid,
                          discrete: DensityField | None = None) -> Path:
    """Write out/equilibrium.csv: y, the analytic steady state on the grid and
    the discrete one, computed after the analytic one unless given."""
    analytic = BetaEquilibrium.from_params(p).on_grid(grid)
    if discrete is None:
        discrete = discretize_equilibrium(p, grid)
    write_csv(out / "equilibrium.csv", ["y", "analytic", "discrete"],
              [grid.centers, analytic.values, discrete.values])
    return out / "equilibrium.csv"


@dataclass(frozen=True)
class Check:
    """One acceptance verdict: the measured value (None when nothing was
    measured), the bound it is held to, and whether it passed.  str() is the
    one rendering of a verdict line."""

    name: str
    value: float | None
    bound: float
    passed: bool

    @classmethod
    def at_most(cls, name: str, value: float | None, bound: float) -> Check:
        """Passes when a value was measured and is <= bound."""
        value = None if value is None else float(value)
        return cls(name, value, bound, value is not None and bool(value <= bound))

    def __str__(self) -> str:
        value = "not measured" if self.value is None else _fmt(self.value)
        return (f"{self.name} = {value} (bound {_fmt(self.bound)}) "
                f"-> {'PASS' if self.passed else 'FAIL'}")


@dataclass(frozen=True)
class DecayReport:
    """Trajectory rows, fitted decay rates and the acceptance checks."""

    trajectory: Trajectory
    k_constant: float | None          # None outside the L2 regime
    rho: float | None
    entropy_fit: DecayFit | None
    wl2_fit: DecayFit | None
    checks: tuple[Check, ...]

    def verdicts(self) -> dict:
        """Check name -> passed."""
        return {c.name: c.passed for c in self.checks}


_NOT_FITTED = f"not fitted (needs at least {MIN_POINTS} samples in the window, all positive)"


def _safe_fit(times, values, window) -> DecayFit | None:
    try:
        return fit_decay_rate(times, values, window)
    except ValueError:
        return None


def build_decay_report(traj: Trajectory) -> DecayReport:
    """Fit log H and log ||.||* over the second half of the run and check
    the run.  A rate that could not be fitted fails: no decay was measured."""
    p = traj.params
    t = traj.times
    fit_window = (0.5 * float(t[-1]), float(t[-1]))
    admissible = classify_params(p) >= ParamRegime.L2_EQUILIBRIUM
    k = log_sobolev_constant(p) if admissible else None
    rho = bakry_emery_rho(p) if admissible else None
    entropy_fit = _safe_fit(t, traj.entropy, fit_window)
    wl2_fit = _safe_fit(t, traj.wl2_dist, fit_window)
    checks = []
    if admissible:
        checks.append(Check.at_most(
            "entropy_rate", None if entropy_fit is None else entropy_fit.slope, -0.95 / k))
    checks += [
        Check.at_most("weighted_l2_rate", None if wl2_fit is None else wl2_fit.slope,
                      -2.0 * 0.95),
        Check.at_most("entropy_monotone", traj.max_entropy_increase, 1e-12),
        Check.at_most("mass_conserved", traj.max_mass_drift, 1e-12),
    ]
    finite = np.isfinite(traj.fisher)
    if admissible and np.any(finite):
        slack = float((k * traj.fisher[finite] - traj.entropy[finite]).min())
        checks.append(Check("ls_rows", slack, -1e-9, slack >= -1e-9))
    return DecayReport(traj, k, rho, entropy_fit, wl2_fit, tuple(checks))


def run_solve(cfg: ExperimentConfig, out_dir) -> DecayReport:
    """Decay experiment: integrate, emit decay/equilibrium/final CSVs + summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    grid = cfg.grid()
    v0 = cfg.initial_density()
    traj = solve(p, v0, cfg.dt, cfg.t_end, cfg.sample_every)
    report = build_decay_report(traj)

    k_col = (report.k_constant * traj.fisher) if report.k_constant is not None \
        else np.full_like(traj.fisher, math.nan)
    write_csv(
        out / "decay.csv",
        ["t", "entropy", "fisher", "k_fisher", "l1_dist", "weighted_l2", "mass", "mean"],
        [traj.times, traj.entropy, traj.fisher, k_col,
         traj.l1_dist, traj.wl2_dist, traj.mass, traj.mean],
    )
    write_equilibrium_csv(out, p, grid, traj.equilibrium)
    write_csv(out / "final_state.csv", ["y", "density"],
              [grid.centers, traj.final.values])

    lines = [
        f"lambda = {p.lam!r}",
        f"m = {p.m!r}",
        f"regime = {classify_params(p).name}",
        f"n = {cfg.n}",
        f"dt = {cfg.dt!r}",
        f"t_end = {cfg.t_end!r}",
        f"initial = {cfg.initial}",
    ]
    if report.k_constant is not None:
        lines.append(f"log_sobolev_constant = {_fmt(report.k_constant)}")
        lines.append(f"bakry_emery_rho = {_fmt(report.rho)}")
    if report.entropy_fit is not None:
        f = report.entropy_fit
        lines.append(f"entropy_slope = {_fmt(f.slope)} (r2 = {f.r_squared:.6f}, "
                     f"window = [{f.window[0]:g}, {f.window[1]:g}])")
    else:
        lines.append(f"entropy_slope = {_NOT_FITTED}")
    if report.wl2_fit is not None:
        f = report.wl2_fit
        lines.append(f"weighted_l2_slope = {_fmt(f.slope)} (r2 = {f.r_squared:.6f})")
    else:
        lines.append(f"weighted_l2_slope = {_NOT_FITTED}")
    lines.append(f"final_l1_to_equilibrium = {_fmt(float(traj.l1_dist[-1]))}")
    lines += map(str, report.checks)
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """One run_solve per sweep_lambdas value, each in its own subdirectory:
    {lambda: (that subdirectory, its DecayReport)}."""
    if not cfg.sweep_lambdas:
        raise ConfigError("sweep requires sweep_lambdas in the config or --lambdas")
    runs = {}
    for lv in cfg.sweep_lambdas:
        sub = Path(out_dir) / sweep_dir_name(lv)
        runs[lv] = sub, run_solve(replace(cfg, lam=lv), sub)
    return runs


def coarsen_density(f: DensityField, coarse: Grid) -> DensityField:
    """Project onto a coarser nested grid by cell averaging (exact for
    uniform nested grids, mass preserving); the config checks that
    coarse.n_cells divides f's."""
    return DensityField(coarse, f.values.reshape(coarse.n_cells, -1).mean(axis=1))


def run_mc(cfg: ExperimentConfig, out_dir, seed=None) -> dict:
    """Monte Carlo run with matched Fokker-Planck reference at sample times.

    The pair rule conserves the ensemble mean while the Fokker-Planck drift
    moves the mean to m, so an initial law whose mean is not m is rejected
    before any output."""
    if cfg.mc is None:
        raise ConfigError("mc run requires an mc block (mc.n, mc.epsilon, ...)")
    p = cfg.params()
    v0 = cfg.initial_density()
    if abs(v0.mean() - p.m) > 1e-9:
        raise ConfigError(
            f"field 'm': the Monte Carlo keeps the mean of the initial law, "
            f"{v0.mean()!r}, so m must equal it, got {p.m!r}")
    mc_cfg = cfg.mc
    use_seed = mc_cfg.seed if seed is None else seed
    if use_seed < 0:
        raise ConfigError(f"seed must be >= 0, got {use_seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ip = InteractionParams.from_kinetic(p, gamma=mc_cfg.gamma, epsilon=mc_cfg.epsilon)

    if cfg.initial in ("bimodal", "uniform"):
        ens = initial_ensemble(mc_cfg.n_agents, use_seed, cfg.initial, cfg.bimodal_width)
    else:
        ens = sample_from_density(v0, mc_cfg.n_agents, use_seed)

    hist_grid = Grid(mc_cfg.hist_n)
    t_samples = mc_cfg.sample_times
    # Fokker-Planck reference densities at the sample times (whole dt steps)
    fp_state = make_solver_state(p, v0, cfg.dt)
    time_of_step = {whole_steps(t, cfg.dt): t for t in t_samples}
    fp = {}
    for steps, _, values, _ in march(fp_state, max(time_of_step)):
        for i, k in enumerate(steps):
            if k in time_of_step:
                fp[time_of_step[k]] = DensityField(fp_state.density.grid, values[i])

    total_sweeps = whole_steps(mc_cfg.t_end, ip.epsilon * ip.gamma)
    sweep_of_sample = {whole_steps(t, ip.epsilon * ip.gamma): t for t in t_samples}
    half = ens.size // 2
    # row k: the state after sweep k = 0..total_sweeps
    sweeps = np.arange(total_sweeps + 1)
    mean_col, var_col = np.empty(total_sweeps + 1), np.empty(total_sweeps + 1)
    rej_col = np.zeros(total_sweeps + 1)  # pairs rejected up to sweep k
    header, cols, l1_rows = ["y"], [hist_grid.centers], []
    x = ens.opinions  # the state after sweep 0, kept when there are no sweeps
    mean_col[0], var_col[0] = moments(x)
    rejected = 0
    edge_deficit = math.nan  # at the last sample time
    with closing(mc_sweeps(ens, ip, total_sweeps)) as run:
        for k, x, rejected_k, scratch in run:
            rejected += rejected_k
            rej_col[k] = rejected
            mean_col[k], var_col[k] = moments(x, scratch)
            if k in sweep_of_sample:
                t = sweep_of_sample[k]
                hist = montecarlo.histogram(x, hist_grid)
                ref = coarsen_density(fp[t], hist_grid)
                header += [f"hist_t{t:g}", f"fp_t{t:g}"]
                cols += [hist.values, ref.values]
                l1_rows.append((t, l1_distance(hist.values, ref)))
                # the two bins have one width, so their densities weigh as masses
                mc_edges, ref_edges = (f.values[0] + f.values[-1] for f in (hist, ref))
                edge_deficit = 1.0 - mc_edges / ref_edges if ref_edges > 0.0 else math.nan
    # the buffer of the finished sweeps; the Ensemble checks its range
    ens = Ensemble(x, ens.rng, attempted_pairs=total_sweeps * half, rejected_pairs=rejected)

    t_axis = sweeps * ip.epsilon * ip.gamma
    att_col = sweeps * half
    write_csv(out / "moments.csv", ["t_fp", "mean", "variance"],
              [t_axis, mean_col, var_col])
    rej_frac = np.divide(rej_col, att_col, out=np.zeros(total_sweeps + 1), where=att_col > 0)
    write_csv(out / "rejection_stats.csv",
              ["t_fp", "attempted_pairs", "rejected_pairs", "rejection_fraction"],
              [t_axis, att_col, rej_col, rej_frac])
    write_csv(out / "mc_hist.csv", header, cols)
    write_csv(out / "mc_vs_fp.csv", ["t_fp", "l1_distance"],
              [[r[0] for r in l1_rows], [r[1] for r in l1_rows]])

    check = Check.at_most("final_l1_mc_vs_fp", l1_rows[-1][1] if l1_rows else None, 0.05)
    (out / "mc_summary.txt").write_text(
        "\n".join([
            f"lambda = {p.lam!r}",
            f"m = {p.m!r}",
            f"n_agents = {mc_cfg.n_agents}",
            f"epsilon = {mc_cfg.epsilon!r}",
            f"gamma = {mc_cfg.gamma!r}",
            f"seed = {use_seed}",
            f"sweeps = {total_sweeps}",
            f"rejection_fraction = {_fmt(ens.rejection_fraction)}",
            # the noise can leave [-1, 1] within 6 eps sigma2 of an endpoint
            f"rejection_layer_width = {_fmt(6.0 * ip.epsilon * ip.sigma2)}",
            f"hist_bin_width = {_fmt(hist_grid.cell_width)}",
            # the share of the reference's edge-bin mass the Monte Carlo misses
            f"edge_bin_deficit = {_fmt(edge_deficit)}",
            str(check),
        ]) + "\n",
        encoding="utf-8",
    )
    final_l1 = math.nan if check.value is None else check.value
    return {"final_l1": final_l1, "pass": check.passed, "ensemble": ens}


def default_ls_grid(lambdas=None):
    """Admissible (lambda, m) points: per lambda, m = 0 and +-fractions of
    the admissibility margin 1 - lambda/2.  lambdas=None takes nine lambdas
    from 0.2 to 1.8; an empty sequence is an error, not the default."""
    if lambdas is None:
        lams = tuple(np.round(np.arange(0.2, 1.81, 0.2), 10))
    else:
        lams = tuple(lambdas)
        if not lams:
            raise ConfigError("lambdas must hold at least one value")
    points = []
    for lv in lams:
        c = 1.0 - lv / 2.0
        if c <= 0.0:
            raise RegimeError(f"lambda = {lv} admits no log-Sobolev constant")
        points.append((lv, 0.0))
        for frac in (0.5, 0.9):
            points.append((lv, frac * c))
            points.append((lv, -frac * c))
    return points


@dataclass(frozen=True)
class LsVerification:
    rows: list
    all_pass: bool


def verify_ls(points=None, n: int = 400, n_samples: int = 200, seed: int = 2024,
              out_dir=None) -> LsVerification:
    """Inequality battery: per (lambda, m), the minimum log-Sobolev slack
    over n_samples random smooth densities, and the minimized potential
    curvature against its closed form.  The distinguished uniform case also
    runs the unconstrained battery.

    The reference field is built once per point.  The random densities are
    drawn and scored in row blocks of about 1e4 values (25 rows at
    n = 400); blocks draw from the generator in the same order as one draw
    per density, and each row's slack does not depend on the block it sits
    in, so the report is the same as one scalar call per density."""
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pts = default_ls_grid() if points is None else list(points)
    if not pts:
        raise ConfigError("points must hold at least one (lambda, m) pair")
    bad = [
        f"(lambda={lv}, m={mv})" for lv, mv in pts
        if classify_params(KineticParams(lv, mv)) < ParamRegime.L2_EQUILIBRIUM
    ]
    if bad:
        raise RegimeError("inadmissible grid points: " + ", ".join(bad))

    grid = Grid(n)
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    block = rows_per_block(n)  # the solver's budget: a block stays in L2 cache
    block_rows = [min(block, n_samples - i) for i in range(0, n_samples, block)]
    rows = []
    for lv, mv in pts:
        p = KineticParams(lv, mv)
        k = log_sobolev_constant(p)
        rho = bakry_emery_rho(p)
        _, rho_min = minimize_potential_second(p)
        ref = BetaEquilibrium.from_params(p).on_grid(grid)
        # the log ratio and the entropy divide by it: an underflowed cell (0
        # or subnormal) has no finite log or turns f/ref infinite
        tiny = ref.values < np.finfo(float).tiny
        if tiny.any():
            raise FloatingPointError(
                f"the analytic steady state underflows on {tiny.sum()} of {n} cells "
                f"at lambda={lv}, m={mv}")
        min_slack = min(
            float(ls_slack(random_smooth_densities(grid, rng, r), ref, p).min())
            for r in block_rows)
        uni_slack = math.nan
        if lv == 1.0 and mv == 0.0:
            uni_slack = min(
                float(uniform_ls_slack(random_grid_functions(grid, rng, r), grid).min())
                for r in block_rows)
        ok = (min_slack >= -1e-6 and abs(rho_min - rho) <= 1e-10
              and (math.isnan(uni_slack) or uni_slack >= -1e-6))
        rows.append({
            "lambda": lv, "m": mv, "K": k, "rho": rho, "rho_minimized": rho_min,
            "min_ls_slack": min_slack, "min_uniform_slack": uni_slack, "pass": ok,
        })
    report = LsVerification(rows, all(r["pass"] for r in rows))
    if out is not None:
        # one column per row key; a verdict is written as 1.0 or 0.0
        write_csv(out / "ls_report.csv",
                  ["passed" if key == "pass" else key for key in rows[0]],
                  [[r[key] for r in rows] for key in rows[0]])
    return report


def format_ls_table(report: LsVerification) -> str:
    lines = [f"{'lambda':>8} {'m':>9} {'K':>10} {'rho':>10} "
             f"{'|rho_min-rho|':>14} {'min_slack':>12} {'uniform':>12} verdict"]
    for r in report.rows:
        uni = "-" if math.isnan(r["min_uniform_slack"]) else f"{r['min_uniform_slack']:.3e}"
        lines.append(
            f"{r['lambda']:>8.3f} {r['m']:>9.4f} {r['K']:>10.5f} {r['rho']:>10.5f} "
            f"{abs(r['rho_minimized'] - r['rho']):>14.3e} {r['min_ls_slack']:>12.3e} "
            f"{uni:>12} {'PASS' if r['pass'] else 'FAIL'}"
        )
    lines.append("overall: " + ("PASS" if report.all_pass else "FAIL"))
    return "\n".join(lines)


def _max_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / want where want > 0; where want is 0 (it underflows
    near the endpoints) got must be 0 too, or the error is infinite."""
    pos = want > 0.0
    if np.any(got[~pos] != 0.0):
        return math.inf
    return float(np.max(np.abs(got[pos] - want[pos]) / want[pos], initial=0.0))


def run_transform_check(cfg: ExperimentConfig, out_dir=None) -> tuple[str, bool]:
    """Check the angular change of variables: the identity g(z) = v(sin z)
    cos z and the explicit formula at 2001 angles, and the boundary
    exponents.  Only lambda and m are read from cfg.
    Returns the report text and whether every check passed; the text also
    goes to out_dir/transform_report.txt when out_dir is given.
    FloatingPointError when v(sin z) cos z is positive at fewer than
    MIN_POINTS angles, the least the decay fits accept too."""
    p = cfg.params()
    z = np.linspace(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3, 2001)
    eq = BetaEquilibrium.from_params(p)
    direct = eq.value(np.sin(z)) * np.cos(z)
    # the relative errors compare only where v(sin z) cos z is positive
    positive = int(np.count_nonzero(direct > 0.0))
    if positive < MIN_POINTS:
        where = "all" if positive == 0 else f"{z.size - positive} of"
        raise FloatingPointError(
            f"v(sin z) cos z underflows to 0 on {where} {z.size} angles at lambda={p.lam!r}, "
            f"m={p.m!r}: {positive} left to compare, fewer than {MIN_POINTS}")
    via_identity = angular_equilibrium(p, z)
    explicit = angular_equilibrium_explicit(p, z)

    # fitted in log space: g itself underflows near the endpoints for small lambda
    exp_minus, exp_plus = boundary_exponents(p)
    deltas = np.logspace(-6, -3, 16)
    zs = 0.5 * math.pi - deltas
    log_cos = np.log(np.cos(zs))
    slope_plus = np.polyfit(np.log(deltas), eq.log_value(np.sin(zs)) + log_cos, 1)[0]
    slope_minus = np.polyfit(np.log(deltas), eq.log_value(np.sin(-zs)) + log_cos, 1)[0]

    checks = [
        Check.at_most("identity_max_relative_error",
                      _max_relative_error(via_identity, direct), 1e-12),
        Check.at_most("explicit_max_relative_error",
                      _max_relative_error(explicit, via_identity), 1e-10),
        Check.at_most("boundary_exponent_error_plus", abs(slope_plus - exp_plus),
                      0.02 * max(1.0, abs(exp_plus))),
        Check.at_most("boundary_exponent_error_minus", abs(slope_minus - exp_minus),
                      0.02 * max(1.0, abs(exp_minus))),
    ]
    text = "\n".join([
        f"boundary exponent at +pi/2: fitted {slope_plus:.6f}, expected {exp_plus:.6f}",
        f"boundary exponent at -pi/2: fitted {slope_minus:.6f}, expected {exp_minus:.6f}",
        *map(str, checks),
    ])
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "transform_report.txt").write_text(text + "\n", encoding="utf-8")
    return text, all(c.passed for c in checks)
