import dataclasses
import math

import numpy as np
import pytest

from opinion_kinetics import (
    Grid,
    KineticParams,
    ls_slack,
    random_grid_function,
    random_smooth_density,
    runners,
    uniform_ls_slack,
)
from opinion_kinetics.config import McConfig, parse_config_text
from opinion_kinetics.runners import run_sweep, verify_ls, write_csv


def test_write_csv_pins_edge_values(tmp_path):
    path = tmp_path / "edge.csv"
    write_csv(path, ["x", "y"],
              [[math.nan, math.inf, -math.inf], [-0.0, 5e-324, 1e100]])
    assert path.read_text(encoding="utf-8") == (
        "x,y\n"
        "nan,-0.0000000000000000e+00\n"
        "inf,4.9406564584124654e-324\n"
        "-inf,1.0000000000000000e+100\n"
    )


def test_write_csv_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t", "v"], [[], []])
    assert path.read_text(encoding="utf-8") == "t,v\n"


def test_run_sweep_sub_config_keeps_every_other_field(monkeypatch, tmp_path):
    cfg = parse_config_text(
        "lambda = 0.5\nm = 0.1\nn = 64\ndt = 2e-3\nt_end = 3\nsample_every = 5\n"
        "initial = uniform\nbimodal_width = 0.2\nout = somewhere\n"
        "sweep_lambdas = 0.4, 0.6\nmc.n = 2000\nmc.seed = 9\n"
    )
    assert cfg.sweep_lambdas and isinstance(cfg.mc, McConfig)
    seen = []
    monkeypatch.setattr(runners, "run_solve", lambda sub, out: seen.append(sub))
    run_sweep(cfg, tmp_path)
    assert [sub.lam for sub in seen] == list(cfg.sweep_lambdas)
    for sub in seen:
        assert dataclasses.replace(sub, lam=cfg.lam) == cfg


def _scalar_battery(points, n, n_samples, seed):
    """One random draw and one slack call per density, in battery order."""
    grid = Grid(n)
    rng = np.random.default_rng(seed)
    out = []
    for lv, mv in points:
        p = KineticParams(lv, mv)
        ls_min = min(ls_slack(random_smooth_density(grid, rng), p) for _ in range(n_samples))
        uni_min = math.nan
        if (lv, mv) == (1.0, 0.0):
            uni_min = min(uniform_ls_slack(grid, random_grid_function(grid, rng))
                          for _ in range(n_samples))
        out.append((ls_min, uni_min))
    return out


@pytest.mark.parametrize("seed", [3, 2024])
def test_verify_ls_rows_equal_scalar_loop(seed):
    # 37 samples at n = 400 make a full block of 25 rows and a partial one
    points = [(0.4, -0.72), (1.0, 0.0), (1.4, 0.27)]
    report = verify_ls(points=points, n=400, n_samples=37, seed=seed)
    got = [(r["min_ls_slack"], r["min_uniform_slack"]) for r in report.rows]
    assert np.array_equal(got, _scalar_battery(points, 400, 37, seed), equal_nan=True)
    assert math.isfinite(got[1][1])
