import numpy as np
import pytest

from opinion_kinetics import ConfigError, parse_config
from opinion_kinetics.cli import main
from opinion_kinetics.config import parse_config_text
from opinion_kinetics.runners import run_solve


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
    # shape preserved up to normalization
    ratio = f.values / values
    assert np.allclose(ratio, ratio[0])
    bad = parse_config_text(f"lambda = 0.5\nm = 0\nn = 32\ninitial = file:{ic}\n")
    with pytest.raises(ConfigError, match="values"):
        bad.initial_density()


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


def test_run_solve_equilibrium_start_all_zero(tmp_path):
    # start exactly at the scheme's steady state via the file: mechanism
    from opinion_kinetics import KineticParams, build_grid, discretize_equilibrium

    eqv = discretize_equilibrium(KineticParams(1.0, 0.0), build_grid(64)).values
    ic = tmp_path / "eq.txt"
    np.savetxt(ic, eqv, fmt="%.17e")
    cfg = parse_config_text(
        f"lambda = 1.0\nm = 0\nn = 64\ndt = 1e-3\nt_end = 0.2\n"
        f"sample_every = 10\ninitial = file:{ic}\n"
    )
    report = run_solve(cfg, tmp_path / "eq_run")
    traj = report.trajectory
    assert np.all(traj.entropy <= 1e-12)
    assert np.all(traj.l1_dist <= 1e-12)
    assert np.all(traj.wl2_dist <= 1e-12)


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


def test_cli_mc_failing_budget_exits_3(tmp_path):
    # deliberately tiny ensemble: statistical error must blow the L1 budget
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "lambda = 0.5\nm = 0\nn = 200\ndt = 1e-2\nt_end = 1.0\n"
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


def test_cli_transform_check(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lambda = 0.5\nm = 0.2\nn = 200\n", encoding="utf-8")
    assert main(["transform-check", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    assert (tmp_path / "t" / "transform_report.txt").exists()


def test_cli_sweep(tmp_path):
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
