import dataclasses
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opinion_kinetics.cli import main
from opinion_kinetics.config import ConfigError, parse_config, parse_config_text
from opinion_kinetics.montecarlo import moments, sample_from_density
from opinion_kinetics.runners import Check, Report, default_ls_grid, run_mc, run_solve, verify_ls
from opinion_kinetics.solver import solve


def test_minimal_config_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("lambda = 0.5\nm = 0\n", encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.lam == 0.5 and cfg.m == 0.0
    assert cfg.n == 200 and cfg.dt == 1e-3
    assert cfg.initial == "bimodal" and cfg.mc is None


def test_config_full_block_and_comments():
    cfg = parse_config_text(
        """
        # experiment
        lambda = 0.5   # diffusion/drift ratio
        m = 0.1
        n = 128
        t_end = 4.0
        initial = uniform
        mc.n = 2000
        mc.epsilon = 0.02
        mc.hist_n = 32
        """
    )
    assert cfg.n == 128 and cfg.initial == "uniform"
    assert cfg.mc is not None
    assert cfg.mc.n_agents == 2000 and cfg.mc.epsilon == 0.02
    assert cfg.mc.gamma == 0.5  # default fills the rest of the block


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config_text("lambda = -1\nm = 0\n")
    with pytest.raises(ConfigError, match="missing required key 'm'"):
        parse_config_text("lambda = 0.5\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("lambda = 0.5\nwhat is this\nm = 0\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("lambda = 0.5\nm = 0\nbogus = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("lambda = 0.5\nm = 0\nm = 0.1\n")
    with pytest.raises(ConfigError, match="'n'"):
        parse_config_text("lambda = 0.5\nm = 0\nn = 2\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("lambda = abc\nm = 0\n")


def test_bimodal_preset_unit_mass():
    cfg = parse_config_text("lambda = 0.5\nm = 0\nbimodal_width = 0.15\n")
    assert abs(cfg.initial_density().mass() - 1.0) <= 1e-12


def test_file_initial_condition(tmp_path):
    values = np.linspace(1.0, 2.0, 64)
    ic = tmp_path / "init.txt"
    np.savetxt(ic, values)
    cfg = parse_config_text(f"lambda = 0.5\nm = 0\nn = 64\ninitial = file:{ic}\n")
    f = cfg.initial_density()
    assert abs(f.mass() - 1.0) <= 1e-12
    # shape preserved up to normalization, bit for bit
    assert np.array_equal(f.values, values / (values.sum() * cfg.grid().cell_width))
    one_row = tmp_path / "row.txt"
    np.savetxt(one_row, values[None, :])
    row_cfg = parse_config_text(f"lambda = 0.5\nm = 0\nn = 64\ninitial = file:{one_row}\n")
    assert np.array_equal(row_cfg.initial_density().values, f.values)
    bad = parse_config_text(f"lambda = 0.5\nm = 0\nn = 32\ninitial = file:{ic}\n")
    with pytest.raises(ConfigError, match="values"):
        bad.initial_density()


@pytest.mark.parametrize("content, detail", [
    pytest.param("1\nx\n2\n3\n", "not a number", id="non_numeric"),
    pytest.param("", "holds 0 values", id="empty"),
    pytest.param("0\n0\n0\n0\n", "positive finite mass", id="zero_mass"),
    pytest.param("1e308\n1e308\n1\n1\n", "positive finite mass", id="mass_overflows"),
    pytest.param("1 2\n3 4\n", "holds a 2 x 2 table", id="two_columns"),
])
def test_cli_bad_initial_file_exits_1_naming_the_file(content, detail, capsys, tmp_path):
    ic = tmp_path / "init.txt"
    ic.write_text(content, encoding="utf-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"lambda = 0.5\nm = 0\nn = 4\ndt = 1e-2\nt_end = 0.1\n"
                   f"initial = file:{ic}\n", encoding="utf-8")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert code == 1 and out == ""
    assert len(err) == 1 and err[0].startswith(f"error: initial-condition file {ic} ")
    assert detail in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change, field", [
    pytest.param({"n": 30}, "mc.hist_n", id="n_not_divided_by_hist_n"),
    pytest.param({"dt": -1.0}, "dt", id="dt_negative"),
])
def test_replaced_config_is_checked_as_a_parsed_one(change, field):
    cfg = parse_config_text("lambda = 0.5\nm = 0\nmc.n = 100\nmc.hist_n = 50\n")
    with pytest.raises(ConfigError, match=f"^field '{field}'"):
        dataclasses.replace(cfg, **change)


def test_run_solve_outputs_and_rerun_identical(tmp_path):
    cfg = parse_config_text(
        "lambda = 0.5\nm = 0\nn = 64\ndt = 2e-3\nt_end = 0.5\nsample_every = 25\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_solve(cfg, out1)
    run_solve(cfg, out2)
    for name in ("decay.csv", "equilibrium.csv", "final_state.csv", "summary.txt"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "decay.csv").read_text().splitlines()[0]
    assert header == "t,entropy,fisher,k_fisher,l1_dist,weighted_l2,mass,mean"


def test_trajectory_columns_are_decay_csv_in_readme_order(tmp_path):
    cfg = parse_config_text("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.1\n")
    run_solve(cfg, tmp_path)
    traj = solve(cfg.params(), cfg.initial_density(), cfg.dt, cfg.t_end, cfg.sample_every)
    header = (tmp_path / "decay.csv").read_text().splitlines()[0].split(",")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = re.search(r"`solve` writes `decay.csv` \(([^)]*)\)", readme).group(1)
    assert list(traj.columns) == header == re.split(r",\s+", documented)


def test_run_solve_equilibrium_start_all_zero(tmp_path):
    # start exactly at the scheme's steady state via the file: mechanism
    from opinion_kinetics.grid import Grid
    from opinion_kinetics.params import KineticParams
    from opinion_kinetics.solver import discretize_equilibrium

    eqv = discretize_equilibrium(KineticParams(1.0, 0.0), Grid(64)).values
    ic = tmp_path / "eq.txt"
    np.savetxt(ic, eqv, fmt="%.17e")
    cfg = parse_config_text(
        f"lambda = 1.0\nm = 0\nn = 64\ndt = 1e-3\nt_end = 0.2\n"
        f"sample_every = 10\ninitial = file:{ic}\n"
    )
    run_solve(cfg, tmp_path / "eq_run")
    rows = np.genfromtxt(tmp_path / "eq_run" / "decay.csv", delimiter=",", names=True)
    assert np.all(rows["entropy"] <= 1e-12)
    assert np.all(rows["l1_dist"] <= 1e-12)
    assert np.all(rows["weighted_l2"] <= 1e-12)


def test_cli_equilibrium_and_exit_codes(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 64\n", encoding="utf-8")
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "equilibrium.csv").exists()
    # usage error: missing config
    assert main(["solve"]) == 1
    # config error: bad file
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda = -1\nm = 0\n", encoding="utf-8")
    assert main(["solve", "--config", str(bad)]) == 1
    # unknown flag
    assert main(["solve", "--nope"]) == 1


def test_cli_solve_runs_and_passes(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "lambda = 0.5\nm = 0\nn = 100\ndt = 1e-3\nt_end = 6.0\nsample_every = 20\n",
        encoding="utf-8",
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 0
    summary = (tmp_path / "run" / "summary.txt").read_text()
    assert "PASS" in summary and "FAIL" not in summary


def test_cli_fit_subcommand(tmp_path, capsys):
    t = np.linspace(0.0, 2.0, 40)
    csv = tmp_path / "series.csv"
    lines = ["t,value"] + [f"{ti:.16e},{3.0 * np.exp(-2.0 * ti):.16e}" for ti in t]
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["fit", "--csv", str(csv), "--column", "value"]) == 0
    out = capsys.readouterr().out
    assert "slope = -2.0" in out
    # [0.5, 1] holds the samples t = 2i/39 with i = 10..19
    assert main(["fit", "--csv", str(csv), "--column", "value", "--window", "0.5", "1"]) == 0
    out = capsys.readouterr().out
    assert "slope = -2.0" in out and "points = 10, window = [0.5, 1]" in out


def test_cli_verify_ls_small(tmp_path):
    code = main(["verify-ls", "--lambdas", "0.5,1.0", "--n", "100",
                 "--samples", "5", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ls_report.csv").exists()
    # inadmissible grid point -> usage error, named in the message
    assert main(["verify-ls", "--lambdas", "2.5"]) == 1


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--samples", "0"], "n_samples must be at least 1", id="samples_0"),
    pytest.param(["--n", "0"], "need at least 4 cells", id="n_0"),
])
def test_cli_verify_ls_rejects_empty_battery_sizes(flags, message, capsys, tmp_path):
    code = main(["verify-ls", "--lambdas", "0.5", "--out", str(tmp_path)] + flags)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ls_report.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["verify-ls", "--lambdas", ""], "--lambdas", id="verify_ls_lambdas_empty"),
    pytest.param(["verify-ls", "--lambdas", ","], "--lambdas", id="verify_ls_lambdas_comma"),
    pytest.param(["sweep", "--lambdas", ""], "--lambdas", id="sweep_lambdas_empty"),
    pytest.param(["verify-ls", "--seed", "-1"], "--seed", id="verify_ls_seed_negative"),
    pytest.param(["mc", "--seed", "-1"], "--seed", id="mc_seed_negative"),
])
def test_cli_rejects_an_empty_lambda_list_or_a_negative_seed(argv, flag, capsys, tmp_path):
    # an empty list given on purpose is not the default battery, and numpy's
    # generators take no negative seed
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nsweep_lambdas = 0.5\nmc.n = 100\n", encoding="utf-8")
    config = [] if argv[0] == "verify-ls" else ["--config", str(cfg)]
    code = main(argv + config + ["--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert f"argument {flag}: " in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_runners_reject_a_negative_seed_before_any_output(tmp_path):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        verify_ls(lambdas=(0.5,), n=8, n_samples=1, seed=-1, out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_default_ls_grid_rejects_an_empty_lambda_list():
    with pytest.raises(ConfigError, match="lambdas"):
        default_ls_grid(())
    assert len(default_ls_grid()) == 45


def test_cli_mc_failing_budget_exits_3(tmp_path):
    # deliberately tiny ensemble: statistical error must blow the L1 budget
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "lambda = 0.5\nm = 0\nn = 200\ndt = 5e-3\nt_end = 1.0\n"
        "mc.n = 100\nmc.epsilon = 0.05\nmc.t_end = 0.1\nmc.seed = 7\n",
        encoding="utf-8",
    )
    code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "mc")])
    assert code == 3
    for name in ("mc_hist.csv", "moments.csv", "rejection_stats.csv",
                 "mc_vs_fp.csv", "mc_summary.txt"):
        assert (tmp_path / "mc" / name).exists()


def test_cli_mc_deterministic_outputs(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "lambda = 0.5\nm = 0\nn = 100\ndt = 5e-3\nt_end = 1.0\n"
        "mc.n = 2000\nmc.epsilon = 0.05\nmc.t_end = 0.5\nmc.seed = 11\nmc.hist_n = 25\n",
        encoding="utf-8",
    )
    for sub in ("m1", "m2"):
        main(["mc", "--config", str(cfg), "--out", str(tmp_path / sub)])
    for name in ("mc_hist.csv", "moments.csv", "mc_vs_fp.csv"):
        assert (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m2" / name).read_bytes()


_SMALL_MC = ("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.2\n"
             "mc.n = 100\nmc.t_end = 0.04\nmc.hist_n = 8\n")


def test_cli_mc_seed_flag_is_the_config_seed(tmp_path, capsys):
    for name, text, flags in (("flag", _SMALL_MC, ["--seed", "7"]),
                              ("file", _SMALL_MC + "mc.seed = 7\n", [])):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        main(["mc", "--config", str(cfg), "--out", str(tmp_path / name)] + flags)
        assert "\nseed = 7\n" in capsys.readouterr().out
    written = sorted(path.name for path in (tmp_path / "flag").iterdir())
    assert written == ["mc_hist.csv", "mc_summary.txt", "mc_vs_fp.csv",
                       "moments.csv", "rejection_stats.csv"]
    for name in written:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


@pytest.mark.parametrize("initial", ["bimodal", "uniform", "file"])
def test_cli_mc_draws_its_agents_from_the_solver_start(initial, tmp_path):
    # row 0 of moments.csv is the sample the Monte Carlo starts from
    if initial == "file":
        start = tmp_path / "start.txt"
        np.savetxt(start, [0, 1, 3, 2, 0, 0, 5, 1, 1, 5, 0, 0, 2, 3, 1, 0])
        initial = f"file:{start}"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_SMALL_MC + f"initial = {initial}\nmc.seed = 5\n", encoding="utf-8")
    main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")])
    config = parse_config(cfg)
    drawn = sample_from_density(config.initial_density(), config.mc.n_agents, config.mc.seed)
    rows = np.loadtxt(tmp_path / "o" / "moments.csv", delimiter=",", skiprows=1)
    assert tuple(rows[0, 1:]) == moments(drawn.opinions)


def test_cli_transform_check_is_no_subcommand(tmp_path, capsys):
    # its checks of the angular steady state are tests (tests/test_transform.py)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 16\n", encoding="utf-8")
    code = main(["transform-check", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "invalid choice: 'transform-check'" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_cli_verify_ls_defaults_are_verify_ls_defaults(tmp_path):
    assert main(["verify-ls", "--out", str(tmp_path / "cli")]) == 0
    verify_ls(out_dir=tmp_path / "lib")
    assert ((tmp_path / "cli" / "ls_report.csv").read_bytes()
            == (tmp_path / "lib" / "ls_report.csv").read_bytes())


def test_run_mc_pair_counters_match_rejection_stats_and_summary(tmp_path):
    cfg = parse_config_text(
        "lambda = 0.5\nm = 0\nn = 100\ndt = 5e-3\ninitial = uniform\n"
        "mc.n = 2000\nmc.hist_n = 20\nmc.t_end = 0.2\n")
    ens = run_mc(cfg, tmp_path)["ensemble"]
    sweeps = 40  # mc.t_end / (mc.epsilon * mc.gamma) = 0.2 / (0.01 * 0.5)
    assert ens.attempted_pairs == cfg.mc.n_agents // 2 * sweeps
    stats = np.loadtxt(tmp_path / "rejection_stats.csv", delimiter=",", skiprows=1)
    assert stats.shape == (sweeps + 1, 4)
    assert list(stats[0, 1:]) == [0.0, 0.0, 0.0]  # no pairs yet: 0/0 reads 0
    assert stats[-1, 1] == ens.attempted_pairs
    assert stats[-1, 2] == ens.rejected_pairs > 0
    summary = (tmp_path / "mc_summary.txt").read_text(encoding="utf-8")
    fraction = ens.rejected_pairs / ens.attempted_pairs
    assert f"rejection_fraction = {fraction:.16e}\n" in summary


def test_cli_sweep(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "lambda = 0.5\nm = 0\nn = 64\ndt = 2e-3\nt_end = 4.0\nsample_every = 20\n",
        encoding="utf-8",
    )
    code = main(["sweep", "--config", str(cfg), "--lambdas", "0.4,0.6",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "lambda_0.4" / "decay.csv").exists()
    assert (tmp_path / "sw" / "lambda_0.6" / "decay.csv").exists()
    # each printed path is the directory that holds that run's outputs
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["lambda = 0.4", "lambda = 0.6"]
    printed = [Path(line.split("(outputs in ", 1)[1].rstrip(")")) for line in lines]
    assert printed == [tmp_path / "sw" / "lambda_0.4", tmp_path / "sw" / "lambda_0.6"]
    assert all((p / "decay.csv").is_file() for p in printed)


def test_cli_fit_header_only_csv_exits_1(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("t,entropy\n", encoding="utf-8")
    assert main(["fit", "--csv", str(csv)]) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    pytest.param("t,entropy\n0,1\n1\n2,0.25\n",
                 "line 3: expected 2 fields as in the header, got 1", id="short_row"),
    pytest.param("t,entropy\n0,1\n1,0.5,2\n",
                 "line 3: expected 2 fields as in the header, got 3", id="long_row"),
    pytest.param("t,entropy\n0,1\n1,x\n", "line 3: could not convert string to float: 'x'",
                 id="not_a_number"),
    # the blank lines before the header count
    pytest.param("\n\nt,entropy\n0,1\n1,x\n",
                 "line 5: could not convert string to float: 'x'", id="leading_blank_lines"),
])
def test_cli_fit_names_the_line_of_a_bad_row(text, message, tmp_path, capsys):
    csv = tmp_path / "decay.csv"
    csv.write_text(text, encoding="utf-8")
    assert main(["fit", "--csv", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {csv} {message}\n"


@pytest.mark.parametrize("column, message", [
    pytest.param("nope", "column not found", id="missing_column"),
    # k_fisher is nan outside the L2 regime (here lambda = 3)
    pytest.param("k_fisher", "values must be finite and strictly positive", id="nan_column"),
])
def test_cli_fit_bad_column_exits_1(column, message, tmp_path, capsys):
    csv = tmp_path / "decay.csv"
    rows = [f"{0.1 * i!r},{math.exp(-0.1 * i)!r},nan" for i in range(20)]
    csv.write_text("\n".join(["t,entropy,k_fisher"] + rows) + "\n", encoding="utf-8")
    assert main(["fit", "--csv", str(csv), "--column", column]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err and message in captured.err


@pytest.mark.parametrize("command, message, flags", [
    pytest.param("sweep", "sweep requires sweep_lambdas", [], id="sweep_no_lambdas"),
    pytest.param("mc", "mc run requires an mc block", [], id="mc_no_block"),
    # --seed replaces mc.seed, and makes no mc block where there is none
    pytest.param("mc", "mc run requires an mc block", ["--seed", "7"], id="mc_seed_no_block"),
])
def test_cli_missing_setting_exits_1_before_any_output(command, message, flags,
                                                       capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 16\n", encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve", "sweep", "mc"])
@pytest.mark.parametrize("n, width, hist_n", [
    # no cell center is near enough to +-1/2 for the mixture to stay above 0
    pytest.param(200, 1e-4, 50, id="n200_width_1e-4"),
    pytest.param(7, 1e-3, 7, id="n7_width_1e-3"),
])
def test_cli_too_narrow_bimodal_width_names_its_field(command, n, width, hist_n,
                                                      capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"lambda = 0.5\nm = 0\nn = {n}\nbimodal_width = {width!r}\n"
                   f"sweep_lambdas = 0.4, 0.6\nmc.n = 1000\nmc.hist_n = {hist_n}\n",
                   encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: field 'bimodal_width': ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["fit", "--csv", "{tmp}"], id="fit_csv_is_a_directory"),
    pytest.param(["solve", "--config", "{tmp}/exp.cfg", "--out", "{tmp}/file/o"],
                 id="solve_out_below_a_file"),
    pytest.param(["verify-ls", "--lambdas", "1.0", "--n", "8", "--samples", "1",
                  "--out", "{tmp}/file/o"], id="verify_ls_out_below_a_file"),
])
def test_cli_os_error_exits_1_with_one_error_line(argv, capsys, tmp_path):
    (tmp_path / "exp.cfg").write_text("lambda = 0.5\nm = 0\nn = 16\n", encoding="utf-8")
    (tmp_path / "file").write_text("", encoding="utf-8")
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("lambdas", ["0.5,0.5", "0.5,5e-1"])
def test_cli_verify_ls_repeated_lambda_exits_1_before_any_output(lambdas, capsys, tmp_path):
    code = main(["verify-ls", "--lambdas", lambdas, "--n", "16", "--samples", "1",
                 "--out", str(tmp_path / "d")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: repeated grid points: (lambda=0.5, m=0.0), ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--lambdas", "2.5", "--samples", "0"],
                 "lambda = 2.5 admits no log-Sobolev constant", id="lambda_before_samples"),
    pytest.param(["--lambdas", "0.5,0.5", "--samples", "0"],
                 "n_samples must be at least 1, got 0", id="samples_before_repeat"),
    pytest.param(["--lambdas", "0.5,0.5,2.5"],
                 "lambda = 2.5 admits no log-Sobolev constant", id="lambda_before_repeat"),
    pytest.param(["--lambdas", "0.5,0.5", "--n", "3"],
                 "need at least 4 cells, got 3", id="n_before_repeat"),
])
def test_cli_verify_ls_names_the_first_bad_input(flags, message, capsys, tmp_path):
    # lambda first, then the battery sizes and seed, then a repeated point
    code = main(["verify-ls", *flags, "--out", str(tmp_path / "d")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("lam, shown", [
    ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0"), ("1e-400", "0.0"), ("inf", "inf"),
    ("0.5,nan", "nan"),
])
def test_cli_verify_ls_names_a_lambda_kinetic_params_rejects(lam, shown, capsys, tmp_path):
    # a lambda outside (0, 2) is named once, as one at or above 2 is, before any output
    code = main(["verify-ls", "--lambdas", lam, "--n", "16", "--samples", "1",
                 "--out", str(tmp_path / "d")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: lambda = {shown} admits no log-Sobolev constant\n"
    assert not (tmp_path / "d").exists()


class _ClosedPipe(io.TextIOBase):
    """A standard output whose reader has gone: every write raises."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_cli_closed_stdout_exits_141_without_an_error_line(monkeypatch, capsys, tmp_path):
    with open(tmp_path / "stdout", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main(["verify-ls", "--lambdas", "0.5", "--n", "16", "--samples", "1"])
        # what is flushed at exit now goes to devnull
        os.write(sink.fileno(), b"flushed at exit")
    assert code == 141
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


_VERIFY_LS = ["verify-ls", "--lambdas", "0.5", "--n", "16", "--samples", "1"]


@pytest.mark.parametrize("args, unbuffered", [
    pytest.param(_VERIFY_LS, "", id="buffered"),
    pytest.param(_VERIFY_LS, "1", id="unbuffered"),
    # argparse prints --help itself, and drops an error writing it
    pytest.param(["--help"], "", id="help_buffered"),
    pytest.param(["--help"], "1", id="help_unbuffered"),
    pytest.param(["solve", "--help"], "", id="solve_help_buffered"),
    pytest.param(["solve", "--help"], "1", id="solve_help_unbuffered"),
])
def test_cli_stdout_closed_by_its_reader_exits_141(args, unbuffered):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "opinion_kinetics", *args]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # before the child writes anything
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_module_help_lists_every_subcommand():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "opinion_kinetics", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    assert "{equilibrium,solve,mc,sweep,verify-ls,fit}" in out.stdout


@pytest.mark.parametrize("command, lines, flags, field", [
    pytest.param("solve", "t_end = inf\n", [], "t_end", id="file_t_end_inf"),
    pytest.param("solve", "dt = nan\n", [], "dt", id="file_dt_nan"),
    pytest.param("solve", "bimodal_width = nan\n", [], "bimodal_width",
                 id="file_bimodal_width_nan"),
    pytest.param("mc", "mc.n = 100\nmc.t_end = inf\n", [], "mc.t_end", id="file_mc_t_end_inf"),
    pytest.param("sweep", "sweep_lambdas = nan\n", [], "sweep_lambdas",
                 id="file_sweep_lambdas_nan"),
    pytest.param("solve", "", ["--t-end", "inf"], "t_end", id="flag_t_end_inf"),
    pytest.param("solve", "", ["--dt", "nan"], "dt", id="flag_dt_nan"),
    pytest.param("solve", "", ["--n", "2"], "n", id="flag_n_2"),
    pytest.param("sweep", "", ["--lambdas", "nan"], "sweep_lambdas", id="flag_lambdas_nan"),
    pytest.param("sweep", "sweep_lambdas = 0.1, 0.10000001\n", [], "sweep_lambdas",
                 id="file_sweep_lambdas_same_directory"),
    pytest.param("sweep", "", ["--lambdas", "0.4,0.4"], "sweep_lambdas",
                 id="flag_lambdas_repeated"),
    pytest.param("sweep", "", ["--lambdas", "0.5,5e-1"], "sweep_lambdas",
                 id="flag_lambdas_same_value_spelled_twice"),
    pytest.param("mc", "n = 100\nmc.n = 100\nmc.hist_n = 30\n", [], "mc.hist_n",
                 id="file_hist_n_not_dividing_n"),
    pytest.param("mc", "mc.n = 100\nmc.hist_n = 40\n", ["--n", "100"], "mc.hist_n",
                 id="flag_n_not_divided_by_hist_n"),
    pytest.param("solve", "dt = 0.5\nt_end = 0.1\n", [], "t_end",
                 id="file_t_end_not_whole_dt_steps"),
    pytest.param("solve", "t_end = 0.1\n", ["--dt", "0.03"], "t_end",
                 id="flag_dt_not_dividing_t_end"),
    pytest.param("mc", "dt = 0.3\nt_end = 0.3\nmc.n = 100\n", [], "mc.t_end",
                 id="file_mc_sample_time_not_whole_dt_steps"),
    pytest.param("mc", "t_end = 0.3\nmc.n = 100\n", ["--dt", "0.3"], "mc.t_end",
                 id="flag_dt_not_dividing_mc_sample_time"),
    pytest.param("mc", "mc.n = 100\nmc.epsilon = 0.03\n", [], "mc.t_end",
                 id="file_mc_sample_time_not_whole_sweeps"),
    pytest.param("mc", "mc.n = 100\nmc.seed = -1\n", [], "mc.seed", id="file_mc_seed_negative"),
])
def test_cli_bad_setting_exits_1_naming_the_field(command, lines, flags, field,
                                                   capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\n" + lines, encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: field '{field}'" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_lambdas_sharing_a_directory_error_names_both():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("lambda = 0.5\nm = 0\nsweep_lambdas = 0.1, 0.2, 0.10000001\n")
    assert str(exc.value) == ("field 'sweep_lambdas': 0.1 and 0.10000001 would both "
                              "write to the output directory lambda_0.1")


@pytest.mark.parametrize("lines, message", [
    pytest.param("dt = 0.3\nt_end = 0.3\n", "sample time 0.5 must be a whole number of "
                 "steps, got 1.66667 steps of dt = 0.3", id="dt"),
    pytest.param("mc.epsilon = 0.03\n", "sample time 0.5 must be a whole number of "
                 "sweeps, got 33.3333 sweeps of mc.epsilon * mc.gamma = 0.015", id="sweeps"),
])
def test_mc_sample_time_error_names_the_time_and_the_step(lines, message):
    # the fp_t* columns would otherwise come from other times than their labels
    with pytest.raises(ConfigError) as exc:
        parse_config_text("lambda = 0.5\nm = 0\nmc.n = 100\nmc.t_end = 2\n" + lines)
    assert str(exc.value) == "field 'mc.t_end': " + message


@pytest.mark.parametrize("initial", ["bimodal", "uniform"])
def test_cli_mc_rejects_an_initial_mean_other_than_m(initial, capsys, tmp_path):
    # the pair rule conserves the ensemble mean, so from a mean-zero start
    # the histograms could never approach the Fokker-Planck densities at m
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"lambda = 0.5\nm = 0.3\nn = 100\ninitial = {initial}\n"
                   "mc.n = 2000\nmc.t_end = 0.5\nmc.seed = 1\nmc.hist_n = 25\n",
                   encoding="utf-8")
    code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: field 'm'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, raw, value", [
    pytest.param("t_end", "inf", float("inf"), id="t_end"),
    pytest.param("dt", "nan", float("nan"), id="dt"),
    pytest.param("n", "2", 2, id="n"),
    pytest.param("sweep_lambdas", "0.5, -1", (0.5, -1.0), id="sweep_lambdas"),
])
def test_override_gets_the_checks_and_message_of_the_file_value(key, raw, value):
    base = "lambda = 0.5\nm = 0\n"
    with pytest.raises(ConfigError) as from_file:
        parse_config_text(base + f"{key} = {raw}\n")
    with pytest.raises(ConfigError) as from_override:
        parse_config_text(base, **{key: value})
    assert str(from_override.value) == str(from_file.value)
    assert str(from_file.value).startswith(f"field '{key}'")


@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--seed", "9"], id="solve_seed"),
    pytest.param(["equilibrium", "--dt", "-5"], id="equilibrium_dt"),
    pytest.param(["mc", "--t-end", "9"], id="mc_t_end"),
    pytest.param(["verify-ls", "--lambdas", "0.5", "--samples", "2", "--n", "16"],
                 id="verify_ls_config"),
])
def test_cli_rejects_a_flag_the_subcommand_does_not_read(argv, capsys, tmp_path):
    # every case also gets --config and --out; verify-ls reads no --config
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.1\n"
                   "mc.n = 100\nmc.t_end = 0.05\nmc.hist_n = 8\n", encoding="utf-8")
    code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_cli_unfitted_decay_rate_fails(command, tmp_path):
    # ten steps sampled only at t = 0 and t_end: neither rate can be fitted
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.1\n"
                   "sample_every = 100\nsweep_lambdas = 0.5\n", encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    summary = next((tmp_path / "o").rglob("summary.txt")).read_text()
    assert "entropy_slope = not fitted" in summary
    assert "weighted_l2_slope = not fitted" in summary
    assert "entropy_rate = " in summary and "weighted_l2_rate = " in summary
    for line in summary.splitlines():
        if line.startswith(("entropy_rate = ", "weighted_l2_rate = ")):
            assert line.endswith("-> FAIL")


def test_unfitted_rate_verdicts_are_false(tmp_path):
    cfg = parse_config_text("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.1\n"
                            "sample_every = 100\n")
    report = run_solve(cfg, tmp_path)
    verdicts = report.verdicts()
    assert verdicts["entropy_rate"] is False
    assert verdicts["weighted_l2_rate"] is False
    # outside the L2 regime there is no entropy bound, hence no entropy verdict
    general = run_solve(parse_config_text("lambda = 3\nm = 0\nn = 16\ndt = 1e-2\n"
                                          "t_end = 0.1\nsample_every = 100\n"), tmp_path)
    assert "entropy_rate" not in general.verdicts()
    assert general.verdicts()["weighted_l2_rate"] is False


# uniform start on six cells: K*I - H dips to -0.27 on a row, a check that
# once decided the exit code without a line in summary.txt
_LS_ROWS_FAIL = ("lambda = 0.1\nm = 0\nn = 6\ndt = 1e-2\nt_end = 10\n"
                 "sample_every = 1\ninitial = uniform\n")
_README = ("lambda = 0.5\nm = 0.0\nn = 200\ndt = 1e-3\nt_end = 10\n"
           "sample_every = 10\nbimodal_width = 0.15\n")


def test_cli_solve_prints_the_check_that_fails(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_LS_ROWS_FAIL, encoding="utf-8")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    summary = (tmp_path / "o" / "summary.txt").read_text(encoding="utf-8")
    assert re.search(r"^ls_rows = \S+ \(bound \S+\) -> FAIL$", summary, re.MULTILINE)
    assert capsys.readouterr().out == summary


@pytest.mark.parametrize("text", [_LS_ROWS_FAIL, _README], ids=["ls_rows_fail", "readme"])
def test_every_verdict_has_one_summary_line(text, tmp_path):
    report = run_solve(parse_config_text(text), tmp_path)
    verdicts = report.verdicts()
    lines = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    for name, passed in verdicts.items():
        mine = [line for line in lines if line.startswith(f"{name} = ")]
        assert len(mine) == 1, name
        assert mine[0].endswith("-> PASS") == passed, mine[0]
    verdict_lines = [line for line in lines if line.endswith(("-> PASS", "-> FAIL"))]
    assert len(verdict_lines) == len(verdicts)


@pytest.mark.parametrize("value, want", [
    (0.5, "x = 5.0000000000000000e-01 (bound 1.0000000000000000e+00) -> PASS"),
    (2.0, "x = 2.0000000000000000e+00 (bound 1.0000000000000000e+00) -> FAIL"),
    (math.inf, "x = inf (bound 1.0000000000000000e+00) -> FAIL"),
    (None, "x = not measured (bound 1.0000000000000000e+00) -> FAIL"),
])
def test_check_renders_value_bound_and_verdict(value, want):
    check = Check.at_most("x", value, 1.0)
    assert str(check) == want
    assert check.passed is want.endswith("PASS")


@pytest.mark.parametrize("values", [(), (0.5,), (0.5, 0.25), (2.0,), (0.5, 2.0), (None, 0.5)])
def test_report_renders_lines_then_checks(values, tmp_path):
    checks = tuple(Check.at_most(f"c{i}", v, 1.0) for i, v in enumerate(values))
    report = Report(("x = 1", "y = 2"), checks)
    assert str(report) == "\n".join(["x = 1", "y = 2", *map(str, checks)])
    assert report.passed is all(v is not None and v <= 1.0 for v in values)
    assert report.verdicts() == {c.name: c.passed for c in checks}
    path = tmp_path / "new" / "summary.txt"
    report.write(path)
    assert path.read_text(encoding="utf-8") == str(report) + "\n"


@pytest.mark.parametrize("command, written", [
    ("solve", "summary.txt"),
    ("mc", "mc_summary.txt"),
])
def test_cli_prints_the_report_it_writes(command, written, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.2\n"
                   "mc.n = 100\nmc.t_end = 0.04\nmc.hist_n = 8\n", encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code in (0, 3)
    out = capsys.readouterr().out
    assert out == (tmp_path / "o" / written).read_text(encoding="utf-8")
    assert out.endswith(("-> PASS\n", "-> FAIL\n"))


@pytest.mark.parametrize("value, passed", [
    (1.0, True), (1.5, True), (math.inf, True),
    (0.999, False), (-math.inf, False), (None, False), (math.nan, False),
])
def test_check_at_least_passes_a_measured_value_at_or_above_the_bound(value, passed):
    check = Check.at_least("x", value, 1.0)
    assert check.passed is passed
    assert str(check).endswith("-> PASS" if passed else "-> FAIL")


def test_cli_mc_prints_the_report_it_returns_without_reading_it_back(
        monkeypatch, tmp_path, capsys):
    # with nothing written, the printed summary can only come from run_mc's return
    monkeypatch.setattr(Report, "write", lambda self, path: None)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0\nn = 16\ndt = 1e-2\nt_end = 0.2\n"
                   "mc.n = 100\nmc.t_end = 0.04\nmc.hist_n = 8\n", encoding="utf-8")
    code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert not (tmp_path / "o" / "mc_summary.txt").exists()
    assert out.startswith("lambda = 0.5\nm = 0.0\n")
    [verdict] = [line for line in out.splitlines() if "->" in line]
    assert verdict.startswith("final_l1_mc_vs_fp = ") and out.endswith(verdict + "\n")
    assert code == (0 if verdict.endswith("-> PASS") else 3)
