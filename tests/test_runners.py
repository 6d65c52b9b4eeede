import dataclasses
import math

from opinion_kinetics import runners
from opinion_kinetics.config import McConfig, parse_config_text
from opinion_kinetics.runners import run_sweep, write_csv


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
