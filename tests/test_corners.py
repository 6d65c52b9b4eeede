"""Regime corners: configs the parser accepts at the edges of the parameter
ranges.  Each must end in exit 0, 2 or 3 with a stated reason: never exit 1,
a traceback or a warning (pytest turns warnings into errors, and main does
not catch them)."""

import pytest

from opinion_kinetics.cli import main

_UNREPRESENTABLE = "the discrete steady state is not representable in floating point"


@pytest.mark.parametrize("command, lam, m, n, reason", [
    # at small lambda the rate lower cancels to about -1e-15, so the kernel
    # recurrence turns negative (or overflows)
    pytest.param("equilibrium", 0.005, 0.0, 200, _UNREPRESENTABLE, id="equilibrium-0.005-0-200"),
    pytest.param("solve", 0.005, 0.0, 200, _UNREPRESENTABLE, id="solve-0.005-0-200"),
    pytest.param("equilibrium", 0.02, 0.0, 200, _UNREPRESENTABLE, id="equilibrium-0.02-0-200"),
    pytest.param("solve", 0.02, 0.0, 200, _UNREPRESENTABLE, id="solve-0.02-0-200"),
    pytest.param("equilibrium", 0.01, 0.5, 2000, _UNREPRESENTABLE,
                 id="equilibrium-0.01-0.5-2000"),
    pytest.param("solve", 0.01, 0.5, 2000, _UNREPRESENTABLE, id="solve-0.01-0.5-2000"),
    # the Beta normalization overflows: in lgamma, or to an infinite exponent
    pytest.param("equilibrium", 1e-308, 0.0, 200, "math range error",
                 id="equilibrium-1e-308-0-200"),
    pytest.param("transform-check", 1e-308, 0.0, 200, "math range error",
                 id="transform_check-1e-308-0-200"),
    pytest.param("equilibrium", 1e-320, 0.0, 200, "normalization constant overflowed",
                 id="equilibrium-1e-320-0-200"),
    pytest.param("transform-check", 1e-320, 0.0, 200, "normalization constant overflowed",
                 id="transform_check-1e-320-0-200"),
])
def test_corner_is_a_numerical_failure(command, lam, m, n, reason, capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"lambda = {lam!r}\nm = {m!r}\nn = {n}\ndt = 1e-2\nt_end = 0.1\n",
                   encoding="utf-8")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"numerical failure: {reason}")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))
