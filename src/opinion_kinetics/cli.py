"""Command-line entry point.

Subcommands: equilibrium, solve, mc, sweep, verify-ls, transform-check, fit.
Each subcommand takes only the flags its handler reads (see _COMMANDS); any
other flag is a usage error.  --n, --dt, --t-end and sweep's --lambdas
override config entries and are checked by the config parser exactly as
the same value in the file would be.
Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, lambda_list, parse_config
from .equilibrium import BetaEquilibrium
from .fitting import fit_decay_rate
from .grid import Grid
from .params import RegimeError, classify_params
from .runners import (
    default_ls_grid,
    format_ls_table,
    run_mc,
    run_solve,
    run_sweep,
    verify_ls,
    write_csv,
)
from .solver import SolverError, discretize_equilibrium
from .transform import (
    angular_equilibrium,
    angular_equilibrium_explicit,
    boundary_exponents,
    pullback_density,
    pushforward_density,
)

USAGE_ERROR, NUMERICAL_ERROR, CHECK_FAILED = 1, 2, 3


# argument destination -> the config key it overrides
_OVERRIDES = {"n": "n", "dt": "dt", "t_end": "t_end", "lambdas": "sweep_lambdas"}


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        raise ConfigError("this subcommand requires --config")
    given = vars(args)
    overrides = {key: given[dest] for dest, key in _OVERRIDES.items()
                 if given.get(dest) is not None}
    return parse_config(args.config, **overrides)


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    return args.out if args.out is not None else Path(cfg.out)


def _cmd_equilibrium(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    grid = cfg.grid()
    analytic = BetaEquilibrium.from_params(p).on_grid(grid)
    discrete = discretize_equilibrium(p, grid)
    write_csv(out / "equilibrium.csv", ["y", "analytic", "discrete"],
              [grid.centers, analytic.values, discrete.values])
    print(f"wrote {out / 'equilibrium.csv'} (lambda={p.lam:g}, m={p.m:g}, "
          f"regime={classify_params(p).name})")
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    report = run_solve(cfg, out)
    print((out / "summary.txt").read_text(encoding="utf-8"), end="")
    return 0 if all(report.verdicts().values()) else CHECK_FAILED


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    reports = run_sweep(cfg, out)
    ok = True
    for lv, report in reports.items():
        verdict = all(report.verdicts().values())
        ok = ok and verdict
        print(f"lambda = {lv:g}: {'PASS' if verdict else 'FAIL'} "
              f"(outputs in {out / f'lambda_{lv:g}'})")
    return 0 if ok else CHECK_FAILED


def _cmd_mc(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    result = run_mc(cfg, out, seed=args.seed)
    print((out / "mc_summary.txt").read_text(encoding="utf-8"), end="")
    return 0 if result["pass"] else CHECK_FAILED


def _cmd_verify_ls(args) -> int:
    report = verify_ls(points=default_ls_grid(args.lambdas),
                       n=args.n if args.n is not None else 400,
                       n_samples=args.samples,
                       seed=args.seed if args.seed is not None else 2024,
                       out_dir=args.out)
    print(format_ls_table(report))
    return 0 if report.all_pass else CHECK_FAILED


def _cmd_transform_check(args) -> int:
    cfg = _load_config(args)
    p = cfg.params()
    z = np.linspace(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3, 2001)
    eq = BetaEquilibrium.from_params(p)
    direct = eq.value(np.sin(z)) * np.cos(z)
    via_identity = angular_equilibrium(p, z)
    rel_identity = float(np.max(np.abs(via_identity - direct) / direct))
    explicit = angular_equilibrium_explicit(p, z)
    rel_explicit = float(np.max(np.abs(explicit - via_identity) / via_identity))

    exp_minus, exp_plus = boundary_exponents(p)
    deltas = np.logspace(-6, -3, 16)
    zs = 0.5 * math.pi - deltas
    slope_plus = np.polyfit(np.log(deltas), np.log(angular_equilibrium(p, zs)), 1)[0]
    slope_minus = np.polyfit(np.log(deltas), np.log(angular_equilibrium(p, -zs)), 1)[0]

    grid = Grid(cfg.n)
    f = cfg.initial_density()
    if np.any(f.values <= 0.0):
        f = BetaEquilibrium.from_params(p).on_grid(grid)
    ang = pushforward_density(f)
    back = pullback_density(ang, f.grid)
    roundtrip = float(np.abs(back.values - f.values).sum() * f.grid.cell_width)

    ok = (rel_identity <= 1e-12 and rel_explicit <= 1e-10
          and abs(slope_plus - exp_plus) <= 0.02 * max(1.0, abs(exp_plus))
          and abs(slope_minus - exp_minus) <= 0.02 * max(1.0, abs(exp_minus)))
    lines = [
        f"pointwise identity max relative error = {rel_identity:.3e} (tol 1e-12)",
        f"explicit formula max relative error   = {rel_explicit:.3e} (tol 1e-10)",
        f"boundary exponent at +pi/2: fitted {slope_plus:.6f}, expected {exp_plus:.6f}",
        f"boundary exponent at -pi/2: fitted {slope_minus:.6f}, expected {exp_minus:.6f}",
        f"pushforward mass = {ang.mass():.12f}",
        f"roundtrip L1 error = {roundtrip:.3e}",
        f"verdict: {'PASS' if ok else 'FAIL'}",
    ]
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "transform_report.txt").write_text(text + "\n", encoding="utf-8")
    return 0 if ok else CHECK_FAILED


def _cmd_fit(args) -> int:
    rows = Path(args.csv).read_text(encoding="utf-8").strip().splitlines()
    if len(rows) < 2:
        raise ConfigError(f"{args.csv} holds no data rows")
    header = rows[0].split(",")
    try:
        t_idx = header.index(args.t_column)
        v_idx = header.index(args.column)
    except ValueError as exc:
        raise ConfigError(f"column not found in {args.csv}: {exc}") from exc
    data = np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])
    window = tuple(args.window) if args.window else None
    fit = fit_decay_rate(data[:, t_idx], data[:, v_idx], window)
    print(f"slope = {fit.slope:.12e}")
    print(f"intercept = {fit.intercept:.12e}")
    print(f"r_squared = {fit.r_squared:.12f}")
    print(f"points = {fit.n_points}, window = [{fit.window[0]:g}, {fit.window[1]:g}]")
    return 0


_FLAGS = {
    "--config": dict(type=Path, help="key = value config file"),
    "--out": dict(type=Path, help="output directory"),
    "--n": dict(type=int, help="number of grid cells"),
    "--dt": dict(type=float, help="time step"),
    "--t-end": dict(type=float, help="final time"),
    "--seed": dict(type=int, help="random seed override"),
    "--lambdas": dict(type=lambda_list, help="comma-separated lambda values"),
    "--samples": dict(type=int, default=200, help="random densities per point"),
}

# subcommand, handler, help, the flags the handler reads
_COMMANDS = [
    ("equilibrium", _cmd_equilibrium, "write analytic and discrete steady states",
     ("--config", "--out", "--n")),
    ("solve", _cmd_solve, "run a decay experiment",
     ("--config", "--out", "--n", "--dt", "--t-end")),
    ("mc", _cmd_mc, "run the Monte Carlo model against the solver",
     ("--config", "--out", "--n", "--dt", "--seed")),
    ("sweep", _cmd_sweep, "run a lambda sweep of decay experiments",
     ("--config", "--out", "--n", "--dt", "--t-end", "--lambdas")),
    ("transform-check", _cmd_transform_check, "verify the angular change of variables",
     ("--config", "--out", "--n")),
    ("verify-ls", _cmd_verify_ls, "run the log-Sobolev inequality battery",
     ("--out", "--n", "--seed", "--lambdas", "--samples")),
]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opkin",
        description="Opinion-formation kinetics: Fokker-Planck decay runs, "
                    "Boltzmann Monte Carlo, and inequality verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, meta, flags in _COMMANDS:
        sp = sub.add_parser(name, help=meta)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=fn)

    sp = sub.add_parser("fit", help="fit an exponential rate to a CSV column")
    sp.add_argument("--csv", required=True, type=Path)
    sp.add_argument("--column", default="entropy")
    sp.add_argument("--t-column", dest="t_column", default="t")
    sp.add_argument("--window", nargs=2, type=float, metavar=("T0", "T1"))
    sp.set_defaults(func=_cmd_fit)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, RegimeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SolverError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
