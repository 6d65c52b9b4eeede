"""Experiment drivers: steady states, decay runs, Monte Carlo runs, sweeps
and the inequality verification battery.
Every artifact is a self-describing CSV or a summary recomputable from the
CSVs: a Report, which the runner writes and returns and opkin prints.  Every
verdict is a Check in that Report, the battery's per-point ones included.
decay.csv is the columns of solve's Trajectory, written as they stand."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._frozen import Frozen
from .config import ConfigError, ExperimentConfig, sweep_dir_name, whole_steps
from .equilibrium import BetaEquilibrium
from .fitting import MIN_POINTS, DecayFit, fit_decay_rate
from .functionals import l1_distance, ls_slack, uniform_ls_slack
from .grid import DensityField, Grid, random_grid_functions, random_smooth_densities
from .montecarlo import (
    Ensemble,
    InteractionParams,
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
from .solver import Trajectory, discretize_equilibrium, march, rows_per_block
from .solver import solve
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


class Check(NamedTuple):
    """One acceptance verdict: the measured value (None when nothing was
    measured), the bound it is held to, and whether it passed.  str() is the
    one rendering of a verdict line.  An immutable record."""

    name: str
    value: float | None
    bound: float
    passed: bool

    @classmethod
    def at_most(cls, name: str, value: float | None, bound: float) -> Check:
        """Passes when a value was measured and is <= bound."""
        value = None if value is None else float(value)
        return cls(name, value, bound, value is not None and bool(value <= bound))

    @classmethod
    def at_least(cls, name: str, value: float | None, bound: float) -> Check:
        """Passes when a value was measured and is >= bound."""
        value = None if value is None else float(value)
        return cls(name, value, bound, value is not None and bool(value >= bound))

    def __str__(self) -> str:
        value = "not measured" if self.value is None else _fmt(self.value)
        return (f"{self.name} = {value} (bound {_fmt(self.bound)}) "
                f"-> {'PASS' if self.passed else 'FAIL'}")


class Report(Frozen):
    """A runner's summary: str() is its lines, then one line per check.
    Immutable; it compares and hashes by identity."""

    def __init__(self, lines: tuple[str, ...], checks: tuple[Check, ...]):
        self.__dict__.update(lines=lines, checks=checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def verdicts(self) -> dict:
        """Check name -> passed."""
        return {c.name: c.passed for c in self.checks}

    def __str__(self) -> str:
        return "\n".join([*self.lines, *map(str, self.checks)])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(str(self) + "\n", encoding="utf-8")


_NOT_FITTED = f"not fitted (needs at least {MIN_POINTS} samples in the window, all positive)"


def _safe_fit(times, values, window) -> DecayFit | None:
    try:
        return fit_decay_rate(times, values, window)
    except ValueError:
        return None


def build_decay_report(cfg: ExperimentConfig, traj: Trajectory) -> Report:
    """Fit log H and log ||.||* over the second half of the run and check
    the run.  A rate that could not be fitted fails: no decay was measured."""
    p = cfg.params()
    cols = traj.columns
    t, entropy, fisher = cols["t"], cols["entropy"], cols["fisher"]
    k_fisher, l1, wl2 = cols["k_fisher"], cols["l1_dist"], cols["weighted_l2"]
    fit_window = (0.5 * float(t[-1]), float(t[-1]))
    admissible = classify_params(p) >= ParamRegime.L2_EQUILIBRIUM
    k = log_sobolev_constant(p) if admissible else None
    ef = _safe_fit(t, entropy, fit_window)
    wf = _safe_fit(t, wl2, fit_window)
    lines = [
        f"lambda = {p.lam!r}",
        f"m = {p.m!r}",
        f"regime = {classify_params(p).name}",
        f"n = {cfg.n}",
        f"dt = {cfg.dt!r}",
        f"t_end = {cfg.t_end!r}",
        f"initial = {cfg.initial}",
    ]
    if admissible:
        lines.append(f"log_sobolev_constant = {_fmt(k)}")
        lines.append(f"bakry_emery_rho = {_fmt(bakry_emery_rho(p))}")
    lines += [
        f"entropy_slope = {_NOT_FITTED}" if ef is None else
        f"entropy_slope = {_fmt(ef.slope)} (r2 = {ef.r_squared:.6f}, "
        f"window = [{ef.window[0]:g}, {ef.window[1]:g}])",
        f"weighted_l2_slope = {_NOT_FITTED}" if wf is None else
        f"weighted_l2_slope = {_fmt(wf.slope)} (r2 = {wf.r_squared:.6f})",
        f"final_l1_to_equilibrium = {_fmt(float(l1[-1]))}",
    ]
    checks = []
    if admissible:
        checks.append(Check.at_most(
            "entropy_rate", None if ef is None else ef.slope, -0.95 / k))
    checks += [
        Check.at_most("weighted_l2_rate", None if wf is None else wf.slope, -2.0 * 0.95),
        Check.at_most("entropy_monotone", traj.max_entropy_increase, 1e-12),
        Check.at_most("mass_conserved", traj.max_mass_drift, 1e-12),
    ]
    finite = np.isfinite(fisher)
    if admissible and np.any(finite):
        slack = float((k_fisher[finite] - entropy[finite]).min())
        checks.append(Check.at_least("ls_rows", slack, -1e-9))
    return Report(tuple(lines), tuple(checks))


def run_solve(cfg: ExperimentConfig, out_dir) -> Report:
    """Decay experiment: check the inputs, integrate, write CSVs + summary."""
    p = cfg.params()
    v0 = cfg.initial_density()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = solve(p, v0, cfg.dt, cfg.t_end, cfg.sample_every)
    report = build_decay_report(cfg, traj)
    write_csv(out / "decay.csv", list(traj.columns), list(traj.columns.values()))
    write_equilibrium_csv(out, p, v0.grid, traj.equilibrium)
    write_csv(out / "final_state.csv", ["y", "density"],
              [v0.grid.centers, traj.final.values])
    report.write(out / "summary.txt")
    return report


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """One run_solve per sweep_lambdas value, each in its own subdirectory:
    {lambda: (that subdirectory, its Report)}."""
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


def run_mc(cfg: ExperimentConfig, out_dir) -> dict:
    """Monte Carlo run with matched Fokker-Planck reference at sample times:
    the "report" it writes, its "pass", "final_l1" and the final "ensemble".

    Both sides start from cfg.initial_density(): the solver marches it, and
    mc.n agents are drawn from it, piecewise constant per cell, by mc.seed.
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ip = InteractionParams.from_kinetic(p, gamma=mc_cfg.gamma, epsilon=mc_cfg.epsilon)
    ens = sample_from_density(v0, mc_cfg.n_agents, mc_cfg.seed)

    hist_grid = Grid(mc_cfg.hist_n)
    t_samples = mc_cfg.sample_times
    # Fokker-Planck reference densities at the sample times (whole dt steps)
    time_of_step = {whole_steps(t, cfg.dt): t for t in t_samples}
    fp = {}
    for steps, _, values, _ in march(p, v0, cfg.dt, max(time_of_step)):
        for i, k in enumerate(steps):
            if k in time_of_step:
                fp[time_of_step[k]] = DensityField(v0.grid, values[i])

    total_sweeps = whole_steps(mc_cfg.t_end, ip.epsilon * ip.gamma)
    sweep_of_sample = {whole_steps(t, ip.epsilon * ip.gamma): t for t in t_samples}
    half = ens.size // 2
    # row k: the state after sweep k = 0..total_sweeps
    sweeps = np.arange(total_sweeps + 1)
    mean_col, var_col = np.empty(total_sweeps + 1), np.empty(total_sweeps + 1)
    rej_col = np.zeros(total_sweeps + 1)  # pairs rejected up to sweep k
    header, cols, l1_rows = ["y"], [hist_grid.centers], []
    mean_col[0], var_col[0] = moments(ens.opinions)  # the state after sweep 0
    rejected = 0
    edge_deficit = math.nan  # at the last sample time
    # mc_sweeps copies the sampled opinions and drops them, so with ens
    # unbound here they are freed at the first sweep
    rng, states = ens.rng, mc_sweeps(ens, ip, total_sweeps)
    del ens
    for k, x, rejected_k, scratch in states:
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
    ens = Ensemble(x, rng, attempted_pairs=total_sweeps * half, rejected_pairs=rejected)

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

    # the config makes each sample time a whole number of sweeps, at least 1
    check = Check.at_most("final_l1_mc_vs_fp", l1_rows[-1][1], 0.05)
    report = Report((
        f"lambda = {p.lam!r}",
        f"m = {p.m!r}",
        f"n_agents = {mc_cfg.n_agents}",
        f"epsilon = {mc_cfg.epsilon!r}",
        f"gamma = {mc_cfg.gamma!r}",
        f"seed = {mc_cfg.seed}",
        f"sweeps = {total_sweeps}",
        f"rejection_fraction = {_fmt(ens.rejection_fraction)}",
        # the noise can leave [-1, 1] within 6 eps sigma2 of an endpoint
        f"rejection_layer_width = {_fmt(6.0 * ip.epsilon * ip.sigma2)}",
        f"hist_bin_width = {_fmt(hist_grid.cell_width)}",
        # the share of the reference's edge-bin mass the Monte Carlo misses
        f"edge_bin_deficit = {_fmt(edge_deficit)}",
    ), (check,))
    report.write(out / "mc_summary.txt")
    return {"final_l1": check.value, "pass": report.passed, "ensemble": ens, "report": report}


def default_ls_grid(lambdas=None):
    """Admissible (lambda, m) points: per lambda, m = 0 and +-fractions of
    the admissibility margin 1 - lambda/2.  lambdas=None takes nine lambdas
    from 0.2 to 1.8; an empty sequence is an error, not the default, and a
    lambda outside (0, 2), NaN included, a RegimeError naming it."""
    if lambdas is None:
        lams = tuple(np.round(np.arange(0.2, 1.81, 0.2), 10))
    else:
        lams = tuple(lambdas)
        if not lams:
            raise ConfigError("lambdas must hold at least one value")
    points = []
    for lv in lams:
        # lambda itself, not c: c rounds to 1.0 at lambda = 1e-300, a valid point
        if not 0.0 < lv < 2.0:
            raise RegimeError(f"lambda = {lv} admits no log-Sobolev constant")
        c = 1.0 - lv / 2.0
        points.append((lv, 0.0))
        for frac in (0.5, 0.9):
            points.append((lv, frac * c))
            points.append((lv, -frac * c))
    return points


class LsVerification(Report):
    """The battery's checks, named by point, one row per (lambda, m); str() is its table."""

    def __init__(self, lines: tuple[str, ...], checks: tuple[Check, ...], rows: list):
        self.__dict__.update(lines=lines, checks=checks, rows=rows)

    def __str__(self) -> str:
        lines = [f"{'lambda':>8} {'m':>9} {'K':>10} {'rho':>10} "
                 f"{'min_slack':>12} {'uniform':>12} verdict"]
        for r in self.rows:
            uni = "-" if math.isnan(r["min_uniform_slack"]) else f"{r['min_uniform_slack']:.3e}"
            lines.append(
                f"{r['lambda']:>8.3f} {r['m']:>9.4f} {r['K']:>10.5f} {r['rho']:>10.5f} "
                f"{r['min_ls_slack']:>12.3e} {uni:>12} {'PASS' if r['pass'] else 'FAIL'}"
            )
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify_ls(lambdas=None, n: int = 400, n_samples: int = 200, seed: int = 2024,
              out_dir=None) -> LsVerification:
    """Inequality battery at the points default_ls_grid(lambdas) builds: per
    (lambda, m), the check min_ls_slack, the minimum log-Sobolev slack over
    n_samples random smooth densities; the uniform case (1, 0) adds
    min_uniform_slack, the unconstrained battery.  A row passes when its
    point's checks do.  A lambda given twice repeats its points, a
    ConfigError raised before any output.

    The inputs are checked first (lambda, then n_samples, seed and n, then a
    repeated point), and out_dir is made after them.  The set-up then takes
    each point's reference field, which must not underflow on any cell
    (FloatingPointError).  One pass over row blocks of about 1e4 values (25
    rows at n = 400) draws each block of densities once and scores it
    against every point's reference in one ls_slack call, keeping a running
    minimum per point; when (1, 0) is a point, a second pass draws and
    scores the uniform battery's functions the same way.  So every point
    sees the same n_samples densities, the generator draws all of them
    before the uniform functions, and one draw per density gives the same
    stream: no row depends on the block size or on the other points."""
    pts = default_ls_grid(lambdas)
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    grid = Grid(n)
    # a check is named by its point, so a point given twice would hide one
    repeated = [f"(lambda={lv}, m={mv})" for i, (lv, mv) in enumerate(pts) if pts[i] in pts[:i]]
    if repeated:
        raise ConfigError("repeated grid points: " + ", ".join(dict.fromkeys(repeated)))

    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    refs = []  # (reference field, params) per point, as ls_slack takes them
    for lv, mv in pts:
        p = KineticParams(lv, mv)
        ref = BetaEquilibrium.from_params(p).on_grid(grid)
        # the log ratio and the entropy divide by it: an underflowed cell (0
        # or subnormal) has no finite log or turns f/ref infinite
        tiny = ref.values < np.finfo(float).tiny
        if tiny.any():
            raise FloatingPointError(
                f"the analytic steady state underflows on {tiny.sum()} of {n} cells "
                f"at lambda={lv}, m={mv}")
        refs.append((ref, p))

    rng = np.random.default_rng(seed)
    block = rows_per_block(n)  # the solver's budget: a block stays in L2 cache
    block_rows = [min(block, n_samples - i) for i in range(0, n_samples, block)]
    min_slack = np.full(len(pts), np.inf)
    for r in block_rows:
        slack = ls_slack(random_smooth_densities(grid, rng, r), refs)
        np.minimum(min_slack, slack.min(axis=1), out=min_slack)
    uni_slack = math.nan
    if any(lv == 1.0 and mv == 0.0 for lv, mv in pts):
        uni_slack = min(
            float(uniform_ls_slack(random_grid_functions(grid, rng, r), grid).min())
            for r in block_rows)

    rows, checks = [], []
    for (lv, mv), (_, p), slack in zip(pts, refs, min_slack.tolist()):
        at = f"(lambda={float(lv)!r}, m={float(mv)!r})"
        point = [Check.at_least("min_ls_slack" + at, slack, -1e-6)]
        uniform = lv == 1.0 and mv == 0.0
        if uniform:
            point.append(Check.at_least("min_uniform_slack" + at, uni_slack, -1e-6))
        checks += point
        rows.append({
            "lambda": lv, "m": mv, "K": log_sobolev_constant(p), "rho": bakry_emery_rho(p),
            "min_ls_slack": slack,
            "min_uniform_slack": uni_slack if uniform else math.nan,
            "pass": all(c.passed for c in point),
        })
    if out is not None:
        # one column per row key; a verdict is written as 1.0 or 0.0
        write_csv(out / "ls_report.csv",
                  ["passed" if key == "pass" else key for key in rows[0]],
                  [[r[key] for r in rows] for key in rows[0]])
    return LsVerification((), tuple(checks), rows)
