import dataclasses
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opinion_kinetics import functionals, montecarlo, runners
from opinion_kinetics.cli import main
from opinion_kinetics.config import ConfigError, McConfig, parse_config_text
from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.functionals import ls_slack, uniform_ls_slack
from opinion_kinetics.grid import Grid, random_grid_functions, random_smooth_densities
from opinion_kinetics.params import (
    KineticParams,
    ParamRegime,
    RegimeError,
    bakry_emery_rho,
    classify_params,
    log_sobolev_constant,
)
from opinion_kinetics.runners import default_ls_grid, run_mc, run_sweep, verify_ls, write_csv


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
        "sweep_lambdas = 0.4, 0.6\nmc.n = 2000\nmc.seed = 9\nmc.hist_n = 16\n"
    )
    assert cfg.sweep_lambdas and isinstance(cfg.mc, McConfig)
    seen = []
    monkeypatch.setattr(runners, "run_solve", lambda sub, out: seen.append(sub))
    run_sweep(cfg, tmp_path)
    assert [sub.lam for sub in seen] == list(cfg.sweep_lambdas)
    for sub in seen:
        assert dataclasses.replace(sub, lam=cfg.lam) == cfg


def _scalar_battery(points, n, n_samples, seed):
    """One-row draws in stream order: every density first, then the uniform
    battery's functions when (1, 0) is a point.  Every point scores the same
    densities, one slack call per density."""
    grid = Grid(n)
    rng = np.random.default_rng(seed)
    densities = [random_smooth_densities(grid, rng, 1)[0] for _ in range(n_samples)]
    uni_min = math.nan
    if (1.0, 0.0) in points:
        uni_min = min(uniform_ls_slack(random_grid_functions(grid, rng, 1)[0], grid)
                      for _ in range(n_samples))
    out = []
    for lv, mv in points:
        p = KineticParams(lv, mv)
        ref = BetaEquilibrium.from_params(p).on_grid(grid)
        ls_min = min(ls_slack(f, [(ref, p)])[0] for f in densities)
        out.append((ls_min, uni_min if (lv, mv) == (1.0, 0.0) else math.nan))
    return out


def test_verify_ls_makes_its_output_directory_before_the_battery(monkeypatch, tmp_path):
    (tmp_path / "file").write_text("", encoding="utf-8")

    def battery(*args):
        raise AssertionError("the battery ran before the output directory was made")

    # the set-up's first call: each point's reference field
    monkeypatch.setattr(runners.BetaEquilibrium, "on_grid", battery)
    with pytest.raises(NotADirectoryError):
        verify_ls(lambdas=(0.5,), n=8, n_samples=1, out_dir=tmp_path / "file" / "o")


@pytest.mark.parametrize("seed", [3, 2024])
def test_verify_ls_rows_equal_scalar_loop(seed):
    # 37 samples at n = 400 make a full block of 25 rows and a partial one
    lambdas = (0.4, 1.0, 1.4)
    report = verify_ls(lambdas=lambdas, n=400, n_samples=37, seed=seed)
    got = [(r["min_ls_slack"], r["min_uniform_slack"]) for r in report.rows]
    assert np.array_equal(got, _scalar_battery(default_ls_grid(lambdas), 400, 37, seed),
                          equal_nan=True)
    assert math.isfinite(got[5][1])  # (1, 0), the uniform battery's point


def test_verify_ls_draws_each_block_of_densities_once(monkeypatch):
    calls, scored = [], []

    def counted(grid, rng, rows):
        calls.append(rows)
        return random_smooth_densities(grid, rng, rows)

    def scored_once(values, points):
        scored.append((len(values), len(points)))
        return ls_slack(values, points)

    monkeypatch.setattr(runners, "random_smooth_densities", counted)
    monkeypatch.setattr(runners, "ls_slack", scored_once)
    verify_ls()
    # 200 densities in blocks of 25 rows at n = 400, shared by all 45 points
    # and scored against all of them in one call per block
    assert calls == [25] * 8
    assert scored == [(25, 45)] * 8


@pytest.mark.parametrize("index, point", [(11, (0.6, 0.35)), (20, (1.0, 0.0))])
@pytest.mark.parametrize("seed", [3, 2024])
def test_verify_ls_row_does_not_depend_on_the_other_points(index, point, seed):
    grid_point = default_ls_grid()[index]
    assert np.allclose(grid_point, point, rtol=0.0, atol=1e-15)
    keys = ["K", "rho", "min_ls_slack", "min_uniform_slack", "pass"]
    battery = verify_ls(seed=seed).rows[index]
    # the run at the point's lambda alone: its five points, the point among them
    alone = verify_ls(lambdas=(grid_point[0],), seed=seed).rows[index % 5]
    assert (alone["lambda"], alone["m"]) == grid_point
    assert np.array_equal([alone[k] for k in keys], [battery[k] for k in keys], equal_nan=True)


def test_default_battery_holds_one_block_at_a_time():
    verify_ls(lambdas=(1.0,), n_samples=1)  # caches the n = 400 basis
    tracemalloc.start()
    try:
        verify_ls()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 25 x 400 block is 80 kB; all 200 densities at once peak at about 1.6 MB
    assert peak < 1e6


def test_default_battery_catches_a_log_sobolev_constant_too_small(monkeypatch):
    # the shared densities must still find the points where 0.3 K is too small
    k = functionals.log_sobolev_constant
    monkeypatch.setattr(functionals, "log_sobolev_constant", lambda p: 0.3 * k(p))
    failed = [name for name, ok in verify_ls().verdicts().items()
              if name.startswith("min_ls_slack") and not ok]
    assert len(failed) >= 20


def test_verify_ls_rejects_empty_points():
    with pytest.raises(ConfigError, match="at least one"):
        verify_ls(lambdas=(), n=16, n_samples=1)


# hypothesis imports libcst to write a failure patch, and libcst's import
# warns: without this filter a failing example ends the run as an INTERNALERROR
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, deadline=None)
@given(lam=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
@example(lam=5e-324)
@example(lam=1e-300)
@example(lam=1.9999999999999998)
def test_every_default_ls_grid_point_has_a_log_sobolev_constant(lam):
    # so the battery needs no admissibility check of its own
    for lv, mv in default_ls_grid((lam,)):
        p = KineticParams(lv, mv)
        assert classify_params(p) >= ParamRegime.L2_EQUILIBRIUM
        assert math.isfinite(log_sobolev_constant(p))


def test_verify_ls_checks_lambdas_then_sizes_then_repeats(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(RegimeError, match=r"^lambda = 2.5 admits no log-Sobolev constant$"):
        verify_ls(lambdas=(2.5,), n_samples=0, out_dir=out)
    with pytest.raises(ConfigError, match=r"^lambdas must hold at least one value$"):
        verify_ls(lambdas=(), n_samples=0, out_dir=out)
    with pytest.raises(ConfigError, match=r"^n_samples must be at least 1, got 0$"):
        verify_ls(lambdas=(0.5, 0.5), n_samples=0, out_dir=out)
    assert not out.exists()


def test_verify_ls_rejects_a_repeated_point_before_any_output(tmp_path):
    # each check is named by its point: a repeated one would hide a verdict
    repeated = ", ".join(f"(lambda=0.5, m={m})" for m in (0.0, 0.375, -0.375, 0.675, -0.675))
    with pytest.raises(ConfigError, match=f"^repeated grid points: {re.escape(repeated)}$"):
        verify_ls(lambdas=(0.5, 1.0, 0.5), n=16, n_samples=1, out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


_SMALL_MC = ("lambda = {lam}\nm = 0\nn = 100\ndt = 5e-3\ninitial = uniform\n"
             "mc.n = 2000\nmc.hist_n = {hist_n}\nmc.t_end = 0.2\n")


def test_run_mc_leaves_no_thread_when_it_returns_or_raises(monkeypatch, tmp_path):
    cfg = parse_config_text(_SMALL_MC.format(lam=0.5, hist_n=20))
    threads = threading.active_count()
    histogram, seen = montecarlo.histogram, []

    def watched_histogram(x, grid):
        seen.append(threading.active_count())  # mid-run, at each sample time
        return histogram(x, grid)

    monkeypatch.setattr(montecarlo, "histogram", watched_histogram)
    run_mc(cfg, tmp_path / "ok")
    assert seen and set(seen) == {threads}
    assert threading.active_count() == threads

    def failing_histogram(x, grid):
        assert threading.active_count() == threads
        raise RuntimeError("histogram failed")

    monkeypatch.setattr(montecarlo, "histogram", failing_histogram)
    with pytest.raises(RuntimeError, match="histogram failed"):
        run_mc(cfg, tmp_path / "raised")
    assert threading.active_count() == threads


def test_run_mc_holds_two_opinion_buffers_and_a_half(tmp_path):
    # 1e5 agents are 0.8 MB of opinions: the state, the noise the new states
    # are written over and a half-size scratch peak at about 2.2 MB; a third
    # buffer, the sampled opinions kept to the end or numpy's histogram
    # sort blocks would each add 0.4 to 0.8 MB
    cfg = parse_config_text("lambda = 0.5\nm = 0\nn = 200\ndt = 1e-3\ninitial = bimodal\n"
                            "mc.n = 100000\nmc.t_end = 0.1\n")
    tracemalloc.start()
    try:
        result = run_mc(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["pass"] and "sweeps = 20" in str(result["report"])
    assert peak < 3.0e6


def test_mc_summary_reports_the_rejection_layer_against_the_bin(tmp_path):
    # the noise leaves [-1, 1] within 6 eps lambda gamma of an endpoint:
    # 0.09 at lambda = 3, wider than a 0.04 bin of hist_n = 50
    cfg = parse_config_text(_SMALL_MC.format(lam=3, hist_n=50))
    run_mc(cfg, tmp_path)
    lines = (tmp_path / "mc_summary.txt").read_text(encoding="utf-8").splitlines()
    health = dict(line.split(" = ") for line in lines
                  if line.startswith(("rejection_layer_width", "hist_bin_width")))
    assert float(health["rejection_layer_width"]) == pytest.approx(0.09, rel=1e-15, abs=0)
    assert float(health["hist_bin_width"]) == pytest.approx(0.04, rel=1e-15, abs=0)
    assert not any("->" in value for value in health.values())  # no verdict lines


def test_mc_summary_edge_bin_deficit_recomputes_from_the_last_histogram(tmp_path):
    # 1 - (MC mass on the two edge bins) / (reference mass on them), from
    # the last hist_t* and fp_t* columns of mc_hist.csv
    cfg = parse_config_text(_SMALL_MC.format(lam=3, hist_n=50))
    run_mc(cfg, tmp_path)
    header = (tmp_path / "mc_hist.csv").read_text(encoding="utf-8").split("\n", 1)[0]
    assert header.split(",")[-2:] == ["hist_t0.2", "fp_t0.2"]
    hist = np.loadtxt(tmp_path / "mc_hist.csv", delimiter=",", skiprows=1)
    mc_edges, ref_edges = hist[[0, -1], -2].sum(), hist[[0, -1], -1].sum()
    lines = (tmp_path / "mc_summary.txt").read_text(encoding="utf-8").splitlines()
    [line] = [line for line in lines if line.startswith("edge_bin_deficit = ")]
    assert ref_edges > 0.0 and "->" not in line
    assert float(line.split(" = ")[1]) == 1.0 - mc_edges / ref_edges


def test_mc_summary_edge_bin_deficit_is_nan_without_reference_edge_mass(tmp_path):
    # a narrow central bump at lambda = 0.005 has not reached the edge bins
    # of the solver by t = 0.02: both hold exactly 0, so there is no ratio
    bump = np.zeros(200)
    bump[99:101] = 1.0
    np.savetxt(tmp_path / "bump.txt", bump)
    cfg = parse_config_text(f"lambda = 0.005\nm = 0\nn = 200\ndt = 1e-3\n"
                            f"initial = file:{tmp_path / 'bump.txt'}\n"
                            "mc.n = 1000\nmc.hist_n = 50\nmc.t_end = 0.02\n")
    run_mc(cfg, tmp_path / "mc")
    hist = np.loadtxt(tmp_path / "mc" / "mc_hist.csv", delimiter=",", skiprows=1)
    assert np.all(hist[[0, -1], -2:] == 0.0)
    summary = (tmp_path / "mc" / "mc_summary.txt").read_text(encoding="utf-8")
    assert "edge_bin_deficit = nan\n" in summary


def test_verify_ls_names_one_check_per_point_and_verdict():
    # (1, 0) adds the uniform battery's check to the one every point has
    report = verify_ls(lambdas=(1.0, 0.5), n=16, n_samples=2)
    names = [c.name for c in report.checks]
    assert names == [
        "min_ls_slack(lambda=1.0, m=0.0)", "min_uniform_slack(lambda=1.0, m=0.0)",
        "min_ls_slack(lambda=1.0, m=0.25)", "min_ls_slack(lambda=1.0, m=-0.25)",
        "min_ls_slack(lambda=1.0, m=0.45)", "min_ls_slack(lambda=1.0, m=-0.45)",
        "min_ls_slack(lambda=0.5, m=0.0)", "min_ls_slack(lambda=0.5, m=0.375)",
        "min_ls_slack(lambda=0.5, m=-0.375)", "min_ls_slack(lambda=0.5, m=0.675)",
        "min_ls_slack(lambda=0.5, m=-0.675)"]
    assert len(report.verdicts()) == 11
    assert report.passed is all(r["pass"] for r in report.rows)


def test_default_battery_has_46_uniquely_named_checks():
    report = verify_ls(n=16, n_samples=1)
    assert len(report.rows) == 45
    assert len(report.checks) == len(report.verdicts()) == 46


def test_verify_ls_fails_a_row_whose_slack_is_below_its_bound(monkeypatch, capsys, tmp_path):
    def one_point_below(values, points):
        slack = ls_slack(values, points)
        slack[0, 0] = -2e-6  # the first point, lambda = 0.5 and m = 0
        return slack

    monkeypatch.setattr(runners, "ls_slack", one_point_below)
    report = verify_ls(lambdas=(0.5,), n=16, n_samples=2)
    verdicts = report.verdicts()
    assert len(verdicts) == 5
    assert verdicts == {name: name != "min_ls_slack(lambda=0.5, m=0.0)" for name in verdicts}
    assert report.rows[0]["min_ls_slack"] == -2e-6
    assert not report.rows[0]["pass"] and not report.passed
    assert all(r["pass"] for r in report.rows[1:])
    code = main(["verify-ls", "--lambdas", "0.5", "--n", "16", "--samples", "2",
                 "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[1].endswith(" FAIL") and lines[-1] == "overall: FAIL"
