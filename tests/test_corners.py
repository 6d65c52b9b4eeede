"""Regime corners: configs the parser accepts at the edges of the parameter
ranges.  Each must end in exit 0, 2 or 3 with a stated reason: never exit 1,
a traceback, a warning (pytest turns warnings into errors, and main does
not catch them) or a `nan` on stdout."""

import itertools
import math
import re

import numpy as np
import pytest

from opinion_kinetics.cli import main
from opinion_kinetics.config import parse_config
from opinion_kinetics.equilibrium import BetaEquilibrium

_RATES = "the Chang-Cooper rates are not positive finite floats"
_UNDERFLOW = "the discrete steady state underflows on"
_ANALYTIC_UNDERFLOW = "the analytic steady state underflows"
# sample times that are whole dt steps, and a histogram grid that divides n
_MC = "mc.n = 2000\nmc.t_end = 0.2\nmc.hist_n = 50\n"


def _write_config(command, lam, m, n, t_end, tmp_path, initial="bimodal"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"lambda = {lam!r}\nm = {m!r}\nn = {n}\ndt = 1e-2\nt_end = {t_end}\n"
                   f"initial = {initial}\n" + (_MC if command == "mc" else ""),
                   encoding="utf-8")
    return cfg


def _run(command, lam, m, n, t_end, tmp_path, capsys, initial="bimodal"):
    cfg = _write_config(command, lam, m, n, t_end, tmp_path, initial)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr()


@pytest.mark.parametrize("command, lam, m, n, reason", [
    # the log of the kernel spans more than the float range (894 and 1108),
    # so it underflows on edge cells where the bimodal start is positive
    pytest.param("solve", 0.005, 0.0, 200, _UNDERFLOW, id="solve-0.005-0-200"),
    pytest.param("solve", 0.01, 0.5, 2000, _UNDERFLOW, id="solve-0.01-0.5-2000"),
    # the exponents a = b = 1/lam overflow, and the Beta normalization with them
    pytest.param("equilibrium", 1e-320, 0.0, 200, "normalization constant overflowed",
                 id="equilibrium-1e-320-0-200"),
    # the peak of the Beta state falls between the cell centres, and every
    # centre underflows to 0
    pytest.param("equilibrium", 1e-10, 0.0, 200, _ANALYTIC_UNDERFLOW,
                 id="equilibrium-1e-10-0-200"),
    pytest.param("equilibrium", 1e-300, 0.5, 200, _ANALYTIC_UNDERFLOW,
                 id="equilibrium-1e-300-0.5-200"),
    pytest.param("equilibrium", 1e-308, 0.0, 200, _ANALYTIC_UNDERFLOW,
                 id="equilibrium-1e-308-0-200"),
    # the centre cell at n = 7 keeps the Beta peak, about e^344 (log C has
    # all its digits there), and the discrete steady state's rates fail
    pytest.param("equilibrium", 1e-300, 0.0, 7, _RATES, id="equilibrium-1e-300-0-7"),
    # the rate lower underflows to 0 (and w to infinity at 1e-320)
    pytest.param("solve", 1e-308, 0.0, 200, _RATES, id="solve-1e-308-0-200"),
    pytest.param("mc", 1e-308, 0.0, 200, _RATES, id="mc-1e-308-0-200"),
    pytest.param("solve", 1e-320, 0.0, 200, _RATES, id="solve-1e-320-0-200"),
    pytest.param("mc", 1e-320, 0.0, 200, _RATES, id="mc-1e-320-0-200"),
])
def test_corner_is_a_numerical_failure(command, lam, m, n, reason, capsys, tmp_path):
    code, captured = _run(command, lam, m, n, 0.1, tmp_path, capsys)
    assert code == 2
    assert captured.err.startswith(f"numerical failure: {reason}")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_solve_entropy_overflow_is_a_numerical_failure(capsys, tmp_path):
    # min g = 9.7e-307 is a normal float, but r log r overflows on the
    # uniform start's first row, so its entropy is infinite
    code, captured = _run("solve", 0.007283560353045026, 0.0, 400, 0.5, tmp_path, capsys,
                          initial="uniform")
    assert code == 2
    assert captured.err.startswith(
        "numerical failure: the relative entropy at step 0 is not finite")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, lam, m, n, want", [
    # the closed-form rates stay positive where lower = D/dy - B delta
    # cancelled below zero, so the kernel is a density
    pytest.param("equilibrium", 0.005, 0.0, 200, 0, id="equilibrium-0.005-0-200"),
    pytest.param("equilibrium", 0.02, 0.0, 200, 0, id="equilibrium-0.02-0-200"),
    pytest.param("equilibrium", 0.01, 0.5, 2000, 0, id="equilibrium-0.01-0.5-2000"),
    # the run completes; ten steps are too few to fit the decay rates
    pytest.param("solve", 0.02, 0.0, 200, 3, id="solve-0.02-0-200"),
])
def test_corner_runs_to_a_verdict(command, lam, m, n, want, capsys, tmp_path):
    code, captured = _run(command, lam, m, n, 0.1, tmp_path, capsys)
    assert code == want
    assert captured.err == ""
    assert list(tmp_path.rglob("*.csv"))


_LAMBDAS = (1e-300, 1e-100, 1e-10, 1e-4,
            0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 1.5, 2, 5, 20, 50)
_MATRIX = [
    *itertools.product(("equilibrium", "transform-check", "solve"), _LAMBDAS,
                       (0.0, 0.5, -0.9, 0.99), (4, 7, 200)),
    *itertools.product(("equilibrium", "transform-check", "solve", "mc"), (1e-308, 1e-320),
                       (0.0,), (200,)),
]
# the angles the retired transform-check sampled: 2001 across the interval,
# and delta = pi/2 - z from 1e-6 to 1e-3 for the boundary fits
_ANGLES = np.linspace(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3, 2001)
_DELTAS = np.logspace(-6, -3, 16)


def _angular_corner(lam, m, n, tmp_path):
    """The transform-check rows.  The subcommand is gone, and its checks run
    on the 60-digit oracle in test_transform.py; what the package still
    computes on its path runs here on the corner's config: the Beta steady
    state, v(sin z) cos z at the 2001 angles, and log v(sin(+-z)) + log cos z
    at the boundary angles with its fitted slope.  The one numerical failure
    is the normalization overflow at 1e-320, which main reports as exit 2;
    elsewhere nothing is nan, negative or +inf."""
    p = parse_config(_write_config("transform-check", lam, m, n, 0.5, tmp_path)).params()
    try:
        eq = BetaEquilibrium.from_params(p)
    except ArithmeticError as exc:
        assert lam == 1e-320
        assert str(exc).startswith("normalization constant overflowed")
        assert "\n" not in str(exc)
        return
    g = eq.value(np.sin(_ANGLES)) * np.cos(_ANGLES)
    assert np.all(np.isfinite(g)) and np.all(g >= 0.0)
    zs = 0.5 * math.pi - _DELTAS
    for sign in (1.0, -1.0):
        log_g = eq.log_value(np.sin(sign * zs)) + np.log(np.cos(zs))
        if np.all(np.isfinite(log_g)):
            assert math.isfinite(np.polyfit(np.log(_DELTAS), log_g, 1)[0])
        else:
            # lam = 1e-308: 2/lam overflows, and log v with it, to -inf
            assert lam == 1e-308
            assert np.all(log_g == -math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, lam, m, n", _MATRIX,
                         ids=["-".join(map(str, row)) for row in _MATRIX])
def test_corner_matrix_ends_in_a_verdict(command, lam, m, n, capsys, tmp_path):
    if command == "transform-check":
        _angular_corner(lam, m, n, tmp_path)
        return
    code, captured = _run(command, lam, m, n, 0.5, tmp_path, capsys)
    assert code in (0, 2, 3), captured.err
    assert not re.search(r"\bnan\b", captured.out, re.IGNORECASE)
    # every check that can cause exit 3 prints its own verdict line
    assert (code == 3) == bool(re.search(r"-> FAIL$", captured.out, re.MULTILINE))
    if code == 2:
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1


_LS_LAMBDAS = (1e-300, 1e-10, 1e-4, 1e-3, 0.005, 0.01, 0.02, 0.05, 1, 1.8)
# where the analytic steady state underflows on some cell centre, at some
# (lambda, m) point of the battery
_LS_UNDERFLOW = {(1e-300, 4), (1e-300, 400), (1e-10, 4), (1e-10, 400), (1e-4, 4), (1e-4, 400),
                 (1e-3, 4), (1e-3, 400), (0.005, 400), (0.01, 400)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", _LS_LAMBDAS)
@pytest.mark.parametrize("n", [4, 400])
def test_verify_ls_corner_ends_in_a_verdict(lam, n, capsys, tmp_path):
    code = main(["verify-ls", "--lambdas", repr(lam), "--samples", "2", "--n", str(n),
                 "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    if (lam, n) in _LS_UNDERFLOW:
        assert code == 2
        assert captured.err.startswith(f"numerical failure: {_ANALYTIC_UNDERFLOW}")
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))
    else:
        assert code in (0, 3), captured.err
        assert captured.err == ""
        assert not re.search(r"\bnan\b", captured.out, re.IGNORECASE)
        assert list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("lam", [2.0, 5.0])
def test_verify_ls_outside_the_l2_regime_stays_a_usage_error(lam, capsys, tmp_path):
    code = main(["verify-ls", "--lambdas", repr(lam), "--samples", "2", "--n", "4",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: lambda = {lam} admits no")


# ROADMAP item 12's verdict map: `solve` at n = 200, dt = 1e-3, t_end = 5
# from the bimodal start, over every (lambda, m) cell
_MAP_LAMBDAS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 1.5, 2, 5, 20, 50)
_MAP_MS = (0.0, 0.5, -0.9, 0.99)
# cells that do not exit 0 -> (exit code, sorted FAIL check names); a fix
# that flips a cell edits its entry here
_MAP_NOT_PASSING = {
    # the kernel's log spans more than the float range (item 6)
    **{(0.005, m): (2, []) for m in _MAP_MS},
    **{(0.01, m): (2, []) for m in (0.5, -0.9, 0.99)},
    # mass drift above 1e-12 from the LU solve (item 1)
    **{cell: (3, ["mass_conserved"]) for cell in ((5, 0.0), (5, -0.9), (20, -0.9),
                                                  (20, 0.99))},
    # ... and the weighted L2 fit reaches its roundoff floor (item 9)
    **{cell: (3, ["mass_conserved", "weighted_l2_rate"])
       for cell in ((20, 0.0), *((50, m) for m in _MAP_MS))},
}


@pytest.mark.filterwarnings("error")
def test_solve_verdict_map(capsys, tmp_path):
    got, reasons = {}, {}
    for lam, m in itertools.product(_MAP_LAMBDAS, _MAP_MS):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"lambda = {lam!r}\nm = {m!r}\nn = 200\ndt = 1e-3\nt_end = 5\n"
                       "initial = bimodal\n", encoding="utf-8")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        fails = sorted(re.findall(r"^(\w+) = .* -> FAIL$", captured.out, re.MULTILINE))
        got[lam, m] = (code, fails)
        if code == 2:
            reasons[lam, m] = captured.err
        else:
            assert captured.err == "", (lam, m, captured.err)
    want = {cell: _MAP_NOT_PASSING.get(cell, (0, [])) for cell in got}
    assert got == want
    assert len(reasons) == 7
    for cell, err in reasons.items():
        assert err.startswith(f"numerical failure: {_UNDERFLOW}"), (cell, err)
        assert err.count("\n") == 1
