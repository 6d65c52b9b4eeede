"""Command-line entry point.

Subcommands: equilibrium, solve, mc, sweep, verify-ls, fit.
Each subcommand takes only the flags its handler reads (see _COMMANDS); any
other flag is a usage error.  --n, --dt, --t-end, sweep's --lambdas and
mc's --seed (mc.seed) override config entries and are checked by the
config exactly as the same value in the file would be.  verify-ls's
--lambdas, --n, --samples and --seed pass straight to verify_ls.
Each handler parses, dispatches to runners and returns whether every
acceptance check it ran passed.  Exit codes: 0 success, 1 usage/config
error, 2 numerical failure (overflow included), 3 acceptance-check failure,
141 standard output closed by its reader (128 + SIGPIPE, as a shell reports
a filter that SIGPIPE stopped).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, lambda_list, parse_config
from .fitting import fit_decay_rate
from .params import classify_params
from .runners import (
    run_mc,
    run_solve,
    run_sweep,
    verify_ls,
    write_equilibrium_csv,
)
from .solver import SolverError

USAGE_ERROR, NUMERICAL_ERROR, CHECK_FAILED, BROKEN_PIPE = 1, 2, 3, 141


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


def _cmd_equilibrium(args) -> bool:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    path = write_equilibrium_csv(out, p, cfg.grid())
    print(f"wrote {path} (lambda={p.lam:g}, m={p.m:g}, "
          f"regime={classify_params(p).name})")
    return True


def _cmd_solve(args) -> bool:
    cfg = _load_config(args)
    report = run_solve(cfg, _out_dir(args, cfg))
    print(report)
    return report.passed


def _cmd_sweep(args) -> bool:
    cfg = _load_config(args)
    runs = run_sweep(cfg, _out_dir(args, cfg))
    for lv, (sub, report) in runs.items():
        print(f"lambda = {lv:g}: {'PASS' if report.passed else 'FAIL'} (outputs in {sub})")
    return all(report.passed for _, report in runs.values())


def _cmd_mc(args) -> bool:
    cfg = _load_config(args)
    if args.seed is not None and cfg.mc is not None:
        cfg = replace(cfg, mc=replace(cfg.mc, seed=args.seed))
    report = run_mc(cfg, _out_dir(args, cfg))["report"]
    print(report)
    return report.passed


def _cmd_verify_ls(args) -> bool:
    # a flag the user left out takes verify_ls's default
    given = {"n": args.n, "n_samples": args.samples, "seed": args.seed}
    report = verify_ls(lambdas=args.lambdas, out_dir=args.out,
                       **{key: v for key, v in given.items() if v is not None})
    print(report)
    return report.passed


def _cmd_fit(args) -> bool:
    text = Path(args.csv).read_text(encoding="utf-8")
    rows = text.strip().splitlines()
    if len(rows) < 2:
        raise ConfigError(f"{args.csv} holds no data rows")
    header = rows[0].split(",")
    try:
        t_idx = header.index(args.t_column)
        v_idx = header.index(args.column)
    except ValueError as exc:
        raise ConfigError(f"column not found in {args.csv}: {exc}") from exc
    # a bad row is named by its line in the file, blank lines before the header counted
    first = text[:len(text) - len(text.lstrip())].count("\n") + 2
    data = []
    for lineno, line in enumerate(rows[1:], start=first):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ConfigError(f"{args.csv} line {lineno}: expected {len(header)} fields "
                              f"as in the header, got {len(fields)}")
        try:
            data.append([float(tok) for tok in fields])
        except ValueError as exc:
            raise ConfigError(f"{args.csv} line {lineno}: {exc}") from exc
    data = np.array(data)
    window = tuple(args.window) if args.window else None
    fit = fit_decay_rate(data[:, t_idx], data[:, v_idx], window)
    print(f"slope = {fit.slope:.12e}")
    print(f"intercept = {fit.intercept:.12e}")
    print(f"r_squared = {fit.r_squared:.12f}")
    print(f"points = {fit.n_points}, window = [{fit.window[0]:g}, {fit.window[1]:g}]")
    return True


def _seed(text: str) -> int:
    """--seed: an integer >= 0, as numpy's generators take it."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _lambdas(text: str) -> tuple:
    """--lambdas: one or more values; an empty list does not mean the defaults."""
    lams = lambda_list(text)
    if not lams:
        raise argparse.ArgumentTypeError(f"must hold at least one value, got {text!r}")
    return lams


_FLAGS = {
    "--config": dict(type=Path, help="key = value config file"),
    "--out": dict(type=Path, help="output directory"),
    "--n": dict(type=int, help="number of grid cells"),
    "--dt": dict(type=float, help="time step"),
    "--t-end": dict(type=float, help="final time"),
    "--seed": dict(type=_seed, help="random seed override (>= 0)"),
    "--lambdas": dict(type=_lambdas, help="comma-separated lambda values"),
    "--samples": dict(type=int, help="random densities per point"),
    "--csv": dict(type=Path, required=True, help="CSV file with a header row"),
    "--column": dict(default="entropy", help="column to fit (default entropy)"),
    "--t-column": dict(default="t", help="time column (default t)"),
    "--window": dict(nargs=2, type=float, metavar=("T0", "T1"), help="fit window in t"),
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
    ("verify-ls", _cmd_verify_ls, "run the log-Sobolev inequality battery",
     ("--out", "--n", "--seed", "--lambdas", "--samples")),
    ("fit", _cmd_fit, "fit an exponential rate to a CSV column",
     ("--csv", "--column", "--t-column", "--window")),
]


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but --help lets an error writing stdout through:
    argparse drops it, and a closed stdout must exit 141 there too."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    return ap


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error
            code = USAGE_ERROR if exc.code not in (0, None) else 0
        else:
            code = 0 if args.func(args) else CHECK_FAILED
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    # numerical first: LinAlgError is a ValueError
    except (SolverError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    # before OSError: a reader that stops reading (head, a pager) is no error
    except BrokenPipeError:
        # what is left to flush at exit goes to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
