"""Experiment configuration: line-oriented `key = value` files with defaults.

This is the one place where a run setting is checked, whether it comes from
a config line, a command-line override or code: ExperimentConfig checks
every setting when it is built, dataclasses.replace included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import BIMODAL_WIDTH, DensityField, Grid, bimodal_density, uniform_density
from .montecarlo import InteractionParams
from .params import KineticParams


class ConfigError(ValueError):
    """Unreadable, malformed, or invalid experiment configuration."""


@dataclass(frozen=True)
class McConfig:
    n_agents: int = 100_000
    epsilon: float = 0.01
    gamma: float = 0.5
    seed: int = 1234
    hist_n: int = 50
    t_end: float = 2.0

    @property
    def sample_times(self) -> tuple:
        """The times at which a run compares the Monte Carlo with the
        Fokker-Planck reference: t_end times 1/4, 1/2, 3/4 and 1."""
        return tuple(self.t_end * f for f in (0.25, 0.5, 0.75, 1.0))


@dataclass(frozen=True)
class ExperimentConfig:
    lam: float
    m: float
    n: int = 200
    dt: float = 1e-3
    t_end: float = 10.0
    sample_every: int = 10
    initial: str = "bimodal"
    bimodal_width: float = BIMODAL_WIDTH
    out: str = "."
    sweep_lambdas: tuple = ()
    mc: McConfig | None = None

    def __post_init__(self):
        _validate(self)

    def params(self) -> KineticParams:
        return KineticParams(self.lam, self.m)

    def grid(self) -> Grid:
        return Grid(self.n)

    def initial_density(self) -> DensityField:
        return build_initial_density(self.initial, self.grid(), self.bimodal_width)


def build_initial_density(spec: str, grid: Grid, width: float) -> DensityField:
    """Materialize a named initial condition on a grid, normalized to unit mass.

    Presets: "bimodal" (Gaussian mixture at +-1/2 of standard deviation
    width, truncated, renormalized), "uniform", and "file:<path>" with one
    nonnegative value per cell.
    """
    if spec == "bimodal":
        return bimodal_density(grid, width)
    if spec == "uniform":
        return uniform_density(grid)
    if spec.startswith("file:"):
        path = Path(spec[5:])
        try:
            with warnings.catch_warnings():
                # an empty file is reported below, as holding 0 values
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                raw = np.loadtxt(path, dtype=float, ndmin=1)
        except OSError as exc:
            raise ConfigError(f"cannot read initial-condition file {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"initial-condition file {path} holds a value that is "
                              f"not a number: {exc}") from exc
        if raw.ndim != 1:
            raise ConfigError(f"initial-condition file {path} holds a {raw.shape[0]} x "
                              f"{raw.shape[1]} table, not one row or one column of values")
        if raw.size != grid.n_cells:
            raise ConfigError(f"initial-condition file {path} holds {raw.size} values, "
                              f"grid has {grid.n_cells} cells")
        if np.any(raw < 0.0) or not np.all(np.isfinite(raw)):
            raise ConfigError(f"initial-condition file {path} must be nonnegative and finite")
        with np.errstate(over="ignore"):
            mass = raw.sum() * grid.cell_width
        if not 0.0 < mass < math.inf:
            raise ConfigError(f"initial-condition file {path} must have a positive finite "
                              f"mass, got {mass}")
        return DensityField(grid, raw).normalized()
    raise ConfigError(f"unknown initial condition {spec!r}")


def sweep_dir_name(lam: float) -> str:
    """The subdirectory of a sweep's output directory that holds the run at lam."""
    return f"lambda_{lam:g}"


def lambda_list(text: str) -> tuple:
    """Comma- or space-separated lambda values, as `sweep_lambdas` and --lambdas take them."""
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# key -> the parser of its value; the mc.* keys fill McConfig
_KEYS = {
    "lambda": float, "m": float, "n": int, "dt": float, "t_end": float,
    "sample_every": int, "initial": str, "bimodal_width": float, "out": str,
    "sweep_lambdas": lambda_list,
    "mc.n": int, "mc.epsilon": float, "mc.gamma": float, "mc.seed": int,
    "mc.hist_n": int, "mc.t_end": float,
}
# keys whose dataclass field has another name; other mc.* keys drop the prefix
_FIELD_NAMES = {"lambda": "lam", "mc.n": "n_agents"}


def parse_config_text(text: str, source: str = "<config>", **overrides) -> ExperimentConfig:
    """Parse `key = value` lines (# starts a comment) into a validated config.

    Overrides, named like the keys (n, dt, t_end, sweep_lambdas, ...), replace
    or add entries before validation, so a value gets the same checks and
    message whether it comes from the file or from the command line.
    """
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source}, line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{source}, line {lineno}: duplicate key {key!r}")
        try:
            entries[key] = _KEYS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for '{key}': {raw!r}") from exc
    unknown = sorted(overrides.keys() - _KEYS.keys())
    if unknown:
        raise ConfigError(f"unknown override keys {unknown}")
    entries.update(overrides)

    for key in ("lambda", "m"):
        if key not in entries:
            raise ConfigError(f"{source}: missing required key '{key}'")
    top = {_FIELD_NAMES.get(k, k): v for k, v in entries.items() if not k.startswith("mc.")}
    mc = {_FIELD_NAMES.get(k, k[3:]): v for k, v in entries.items() if k.startswith("mc.")}
    return ExperimentConfig(**top, mc=McConfig(**mc) if mc else None)


def parse_config(path, **overrides) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path), **overrides)


def _finite_positive(x: float):
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"must be finite and positive, got {x}")


def whole_steps(t_end: float, dt: float) -> int:
    """The number of dt steps that ends at t_end (to 1e-9 relative).

    Raises ValueError when dt <= 0 or t_end is not a whole number of dt
    steps, so a run never ends short of or past t_end.  It is the one rule
    from a time to a count: solver.solve applies it to a library call, and
    run_mc counts its sweeps with it, at dt = epsilon * gamma.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n_steps = round(t_end / dt)
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"must be a whole number of dt steps, "
                         f"got t_end = {t_end!r}, dt = {dt!r}")
    return n_steps


def _check(field: str, build, *args):
    """build(*args), with its ValueError reported as a ConfigError naming the field."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"field '{field}': {exc}") from exc


def _validate(cfg: ExperimentConfig):
    """Check every setting once, by the type that owns it where there is one.

    A type that checks a pair of settings is built first with a fixed valid
    partner, so that its error names the one field at fault.
    """
    _check("lambda", KineticParams, cfg.lam, 0.0)
    p = _check("m", KineticParams, cfg.lam, cfg.m)
    _check("n", Grid, cfg.n)
    dirs = {}
    for lv in cfg.sweep_lambdas:
        _check("sweep_lambdas", KineticParams, lv, cfg.m)
        name = sweep_dir_name(lv)
        if name in dirs:
            raise ConfigError(f"field 'sweep_lambdas': {dirs[name]!r} and {lv!r} "
                              f"would both write to the output directory {name}")
        dirs[name] = lv
    for name in ("dt", "t_end", "bimodal_width"):
        _check(name, _finite_positive, getattr(cfg, name))
    _check("t_end", whole_steps, cfg.t_end, cfg.dt)
    if cfg.sample_every < 1:
        raise ConfigError(f"field 'sample_every': must be >= 1, got {cfg.sample_every}")
    if cfg.initial not in ("bimodal", "uniform") and not cfg.initial.startswith("file:"):
        raise ConfigError(f"field 'initial': unknown value {cfg.initial!r}")
    mc = cfg.mc
    if mc is None:
        return
    if mc.seed < 0:
        raise ConfigError(f"field 'mc.seed': must be >= 0, got {mc.seed}")
    if mc.n_agents < 2 or mc.n_agents % 2 != 0:
        raise ConfigError(f"field 'mc.n': must be a positive even integer, got {mc.n_agents}")
    _check("mc.gamma", InteractionParams.from_kinetic, p, mc.gamma, 1.0)
    _check("mc.epsilon", InteractionParams.from_kinetic, p, mc.gamma, mc.epsilon)
    _check("mc.hist_n", Grid, mc.hist_n)
    if cfg.n % mc.hist_n != 0:
        raise ConfigError(f"field 'mc.hist_n': must divide n = {cfg.n}, got {mc.hist_n}")
    _check("mc.t_end", _finite_positive, mc.t_end)
    for t in mc.sample_times:
        for unit, name, step in (("steps", "dt", cfg.dt),
                                 ("sweeps", "mc.epsilon * mc.gamma", mc.epsilon * mc.gamma)):
            try:
                whole_steps(t, step)
            except ValueError as exc:
                raise ConfigError(
                    f"field 'mc.t_end': sample time {t!r} must be a whole number of {unit}, "
                    f"got {t / step:.6g} {unit} of {name} = {step!r}") from exc
