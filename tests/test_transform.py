import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.params import KineticParams, RegimeError, bakry_emery_rho
from opinion_kinetics.runners import default_ls_grid
from opinion_kinetics.transform import (
    _second,
    angular_equilibrium,
    angular_equilibrium_explicit,
    boundary_exponents,
    minimize_potential_second,
)

from oracles import centered_difference


def _prime(p, z):
    """P'(z) = ((1 - lam/2) sin z - m) / cos z, written out independently."""
    return ((1.0 - 0.5 * p.lam) * np.sin(z) - p.m) / np.cos(z)


def _second_at(p, z):
    return _second(p, np.sin(z), np.cos(z))


def test_potential_prime_examples():
    assert _prime(KineticParams(0.5, 0.3), 0.0) == pytest.approx(-0.3, abs=1e-15)
    assert _prime(KineticParams(1.0, 0.0), math.pi / 4) == pytest.approx(0.5, abs=1e-15)
    p = KineticParams(0.7, 0.0)
    z = np.linspace(-1.5, 1.5, 101)
    assert np.allclose(_prime(p, -z), -_prime(p, z), atol=1e-15, rtol=0.0)
    # g = C exp(-(2/lam) P), so P' = -(lam/2) (log g)' for both forms of g
    for lam, m in [(0.5, 0.3), (1.0, 0.0), (0.7, 0.0), (1.2, -0.2)]:
        q = KineticParams(lam, m)
        for g in (angular_equilibrium, angular_equilibrium_explicit):
            for s in np.linspace(-1.2, 1.2, 13):
                fd = -0.5 * lam * centered_difference(lambda t: math.log(g(q, t)), s)
                assert _prime(q, s) == pytest.approx(fd, abs=1e-8)
    with pytest.raises(ValueError):
        angular_equilibrium(p, math.pi / 2)


def test_potential_second_examples():
    for lam in (0.4, 1.0, 1.6):
        assert _second_at(KineticParams(lam, 0.0), 0.0) == pytest.approx(
            1.0 - lam / 2.0, abs=1e-15)
    assert _second_at(KineticParams(0.5, 0.3), 0.0) == pytest.approx(0.75, abs=1e-15)
    assert _second_at(KineticParams(1.0, 0.0), math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    # even in z at m = 0; z -> -z is m -> -m otherwise
    z = np.linspace(-1.5, 1.5, 101)
    p = KineticParams(0.7, 0.0)
    assert np.allclose(_second_at(p, -z), _second_at(p, z), atol=1e-15, rtol=0.0)
    assert np.allclose(_second_at(KineticParams(0.7, 0.2), -z),
                       _second_at(KineticParams(0.7, -0.2), z), atol=1e-15, rtol=0.0)
    with pytest.raises(ValueError):
        angular_equilibrium_explicit(KineticParams(1.0, 0.0), -2.0)


@pytest.mark.parametrize("lam,m", [(0.5, 0.25), (1.0, 0.0), (1.5, -0.2), (0.3, 0.6)])
def test_potential_second_is_derivative_of_prime(lam, m):
    p = KineticParams(lam, m)
    for z in np.linspace(-1.2, 1.2, 25):
        fd = centered_difference(lambda s: _prime(p, s), z, h=1e-5)
        assert _second_at(p, z) == pytest.approx(fd, abs=1e-8)
    # close to the boundary both sides blow up; agreement stays relative
    for z in (-1.45, 1.45):
        fd = centered_difference(lambda s: _prime(p, s), z, h=1e-5)
        assert _second_at(p, z) == pytest.approx(fd, rel=1e-7, abs=0)


def test_minimize_examples():
    # symmetric case: minimum at the origin with value 1 - lam/2.  The
    # minimizer location is only sqrt(eps)-determined (flat basin), the
    # minimum value is machine-exact.
    z_bar, val = minimize_potential_second(KineticParams(0.8, 0.0))
    assert abs(z_bar) <= 1e-7
    assert val == pytest.approx(0.6, abs=1e-12)
    # asymmetric case agrees with the closed form
    p = KineticParams(0.5, 0.25)
    _, val = minimize_potential_second(p)
    assert val == pytest.approx(bakry_emery_rho(p), abs=1e-10)
    assert val == pytest.approx(0.728553, abs=1e-6)
    with pytest.raises(RegimeError):
        minimize_potential_second(KineticParams(1.9, 0.5))


def test_minimizer_stationarity_quadratic():
    # sin(z_bar) must solve m s^2 + (lam - 2) s + m = 0; the residual scale
    # is set by the sqrt(eps)-wide flat basin around the minimizer
    for lam, m in [(0.5, 0.25), (1.0, 0.3), (0.8, -0.4)]:
        z_bar, _ = minimize_potential_second(KineticParams(lam, m))
        s = math.sin(z_bar)
        assert abs(m * s * s + (lam - 2.0) * s + m) <= 5e-8


def test_potential_scalar_and_array_calls_agree():
    p = KineticParams(0.6, 0.1)
    zs = np.array([-0.4, 0.2])
    assert isinstance(_second(p, math.sin(0.2), math.cos(0.2)), float)
    assert _second_at(p, 0.2) == _second_at(p, zs)[1]
    assert minimize_potential_second(p)[1] == pytest.approx(bakry_emery_rho(p), abs=1e-10)


_POINTWISE = {
    "angular_equilibrium": lambda z: angular_equilibrium(KineticParams(0.6, 0.1), z),
    "angular_equilibrium_explicit":
        lambda z: angular_equilibrium_explicit(KineticParams(0.6, 0.1), z),
    "log_value": BetaEquilibrium.from_params(KineticParams(0.6, 0.1)).log_value,
    "value": BetaEquilibrium.from_params(KineticParams(0.6, 0.1)).value,
}


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_pointwise_0d_input_gives_float_else_array(name):
    fn = _POINTWISE[name]
    for z in (0.1, np.float64(0.1), np.array(0.1)):
        assert type(fn(z)) is float
        assert fn(z) == fn(0.1)
    for z, want in (([0.1, 0.2], [fn(0.1), fn(0.2)]), ([0.1], [fn(0.1)]),
                    (np.array([[0.1], [0.2]]), [[fn(0.1)], [fn(0.2)]])):
        got = fn(z)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want)


def _golden_section_on_numpy_second(p, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -math.pi / 2 + 1e-6, math.pi / 2 - 1e-6
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _second_at(p, c), _second_at(p, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _second_at(p, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _second_at(p, d)
    z_bar = 0.5 * (a + b)
    return z_bar, _second_at(p, z_bar)


def test_minimize_equals_golden_section_on_numpy_second():
    # minimize evaluates P'' on math.sin and math.cos of plain floats
    for lam, m in default_ls_grid():
        p = KineticParams(lam, m)
        assert minimize_potential_second(p) == _golden_section_on_numpy_second(p)


def test_convexity_on_admissible_grid():
    zs = np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 10_000)
    cases = [(0.5, 0.0), (1.0, 0.3), (1.8, 0.1), (1.5, 0.25)]  # last: equality case
    for lam, m in cases:
        assert np.all(_second_at(KineticParams(lam, m), zs) > 0.0)


def test_closed_form_matches_minimization_on_grid():
    worst = 0.0
    count = 0
    for lam in np.linspace(0.1, 1.8, 18):
        c = 1.0 - lam / 2.0
        for frac in (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95):
            p = KineticParams(float(lam), float(frac * c))
            _, val = minimize_potential_second(p)
            worst = max(worst, abs(val - bakry_emery_rho(p)))
            count += 1
    assert count >= 100
    assert worst <= 1e-10


def test_angular_equilibrium_examples():
    assert angular_equilibrium(KineticParams(1.0, 0.0), 0.0) == pytest.approx(0.5, abs=1e-15)
    p = KineticParams(0.5, 0.2)
    z = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 1001)
    eq = BetaEquilibrium.from_params(p)
    direct = eq.value(np.sin(z)) * np.cos(z)
    assert np.max(np.abs(angular_equilibrium(p, z) - direct) / direct) <= 1e-12


def test_angular_equilibrium_unit_mass():
    # midpoint sum over the angular grid; g vanishes at the ends for these
    # parameters, so the quadrature is clean
    for lam, m in [(0.5, 0.0), (0.5, 0.2), (0.4, -0.1)]:
        p = KineticParams(lam, m)
        n = 400
        dz = math.pi / n
        z = -math.pi / 2 + (np.arange(n) + 0.5) * dz
        assert angular_equilibrium(p, z).sum() * dz == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam,m", [(0.5, 0.0), (0.5, 0.2), (1.0, 0.0), (0.2, 0.0), (0.8, -0.1)])
def test_explicit_formula_agreement(lam, m):
    p = KineticParams(lam, m)
    z = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 2001)
    g1 = angular_equilibrium(p, z)
    g2 = angular_equilibrium_explicit(p, z)
    assert np.max(np.abs(g2 - g1) / g1) <= 1e-10


def test_boundary_asymptotics():
    for lam, m in [(0.5, 0.0), (0.5, 0.2), (1.0, 0.0)]:
        p = KineticParams(lam, m)
        exp_minus, exp_plus = boundary_exponents(p)
        deltas = np.logspace(-6, -3, 16)
        zs = math.pi / 2 - deltas
        slope_plus = np.polyfit(np.log(deltas), np.log(angular_equilibrium(p, zs)), 1)[0]
        slope_minus = np.polyfit(np.log(deltas), np.log(angular_equilibrium(p, -zs)), 1)[0]
        assert abs(slope_plus - exp_plus) <= 0.02 * abs(exp_plus)
        assert abs(slope_minus - exp_minus) <= 0.02 * abs(exp_minus)


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.special", "scipy.linalg",
                                    "scipy._lib._array_api", "concurrent.futures",
                                    "scipy.linalg._flapack"])
def test_import_leaves_slow_scipy_modules_unloaded(module):
    # nothing in the package imports scipy.interpolate, and xlogy and the
    # LAPACK routines load from their extension files, LAPACK's only at the
    # solver's first factorization (see the test below); the Monte Carlo
    # sweeps import concurrent.futures, which loads logging, only to draw
    # ahead.  So a fresh import of the module opkin loads, which loads every
    # other module, loads none of these; it does load scipy itself, whose
    # version the benchmark records
    code = (f"import sys, opinion_kinetics.cli; "
            f"print({module!r} in sys.modules, 'scipy' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "True"]


def test_runs_leave_slow_scipy_modules_unloaded(tmp_path):
    # the guard above covers the import; this one covers a solve, a Monte
    # Carlo run, the log-Sobolev battery and the transform check at tiny sizes
    code = f"""
import sys
from opinion_kinetics.config import parse_config_text
from opinion_kinetics.runners import run_mc, run_solve, run_transform_check, verify_ls
cfg = parse_config_text("lambda = 0.5\\nm = 0\\nn = 16\\ndt = 1e-2\\nt_end = 0.2\\n"
                        "mc.n = 100\\nmc.t_end = 0.04\\nmc.hist_n = 8\\n")
run_solve(cfg, {str(tmp_path / "solve")!r})
run_mc(cfg, {str(tmp_path / "mc")!r})
verify_ls(points=[(0.5, 0.0), (1.0, 0.0)], n=16, n_samples=2, out_dir={str(tmp_path / "ls")!r})
run_transform_check(cfg, {str(tmp_path / "tc")!r})
slow = ("scipy.interpolate", "scipy.special", "scipy.linalg", "scipy._lib._array_api")
print([m for m in slow if m in sys.modules])
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split("\n") == ["[]", ""]
    assert (tmp_path / "ls" / "ls_report.csv").exists()
    assert (tmp_path / "tc" / "transform_report.txt").exists()


def test_lapack_loads_at_the_first_march_only(tmp_path):
    # the runs that never step the solver, and a march that rejects its dt
    # or its start, leave scipy's LAPACK (and its OpenBLAS) unloaded; the
    # first march that factors I - dt A loads it, as the very objects
    # scipy.linalg.lapack binds
    code = f"""
import sys
from pathlib import Path
from opinion_kinetics.cli import main
from opinion_kinetics.config import parse_config_text
from opinion_kinetics.grid import DensityField, bimodal_density
from opinion_kinetics.runners import run_transform_check, verify_ls, write_equilibrium_csv
from opinion_kinetics.solver import march
out = Path({str(tmp_path)!r})
cfg = parse_config_text("lambda = 0.5\\nm = 0\\nn = 16\\n")
p, grid = cfg.params(), cfg.grid()
write_equilibrium_csv(out, p, grid)
verify_ls(points=[(0.5, 0.0)], n=16, n_samples=1, out_dir=out / "ls")
run_transform_check(cfg, out / "tc")
(out / "decay.csv").write_text("t,entropy\\n" + "".join(f"{{k}},{{2.0 ** -k}}\\n" for k in range(12)))
assert main(["fit", "--csv", str(out / "decay.csv")]) == 0
v0 = bimodal_density(grid)
for dt, start in [(0.0, v0), (1e-2, DensityField(grid, 2.0 * v0.values))]:
    try:
        next(march(p, start, dt, 1))
    except ValueError:
        pass
unloaded = "scipy.linalg._flapack" not in sys.modules
next(march(p, v0, 1e-2, 1))
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg.lapack as lapack
print(unloaded, flapack.dgttrf is lapack.dgttrf, flapack.dgttrs is lapack.dgttrs)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split()[-3:] == ["True"] * 3
    assert (tmp_path / "equilibrium.csv").exists()
