import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.params import KineticParams, bakry_emery_rho

import oracles
from oracles import ANGLES, SPARSE_ANGLES, centered_difference
from test_corners import _LAMBDAS

# the (lam, m) pairs of the corner matrix whose Beta normalization is
# finite: at lam = 1e-320 it overflows, which the corner tests cover
_MATRIX_PAIRS = [*itertools.product(map(float, _LAMBDAS), (0.0, 0.5, -0.9, 0.99)),
                 (1e-308, 0.0)]
# checked at all 2001 angles, the rest at the sparse ones: the explicit
# formula's first five pairs, and four where v(sin z) cos z in floats is off
# by more than 1e-10 (the explicit formula is the accurate side there)
_FULL_PAIRS = [(0.5, 0.0), (0.5, 0.2), (1.0, 0.0), (0.2, 0.0), (0.8, -0.1),
               (0.1, 0.0), (0.05, 0.9), (0.02, 0.5), (0.2, -0.7)]
_PAIRS = list(dict.fromkeys(_MATRIX_PAIRS + _FULL_PAIRS))


def _angles(lam, m):
    return ANGLES if (lam, m) in _FULL_PAIRS else SPARSE_ANGLES


def _prime(p, z):
    """P'(z) = ((1 - lam/2) sin z - m) / cos z, written out independently."""
    return ((1.0 - 0.5 * p.lam) * np.sin(z) - p.m) / np.cos(z)


def _second_at(p, z):
    """P''(z) from the 60-digit oracle, rounded once: a float for a float z,
    else an array shaped like z."""
    values = np.array([float(v) for v in oracles.potential_second(p.lam, p.m, np.ravel(z))])
    return values.reshape(np.shape(z)) if np.ndim(z) else float(values[0])


def test_potential_prime_examples():
    assert _prime(KineticParams(0.5, 0.3), 0.0) == pytest.approx(-0.3, abs=1e-15)
    assert _prime(KineticParams(1.0, 0.0), math.pi / 4) == pytest.approx(0.5, abs=1e-15)
    p = KineticParams(0.7, 0.0)
    z = np.linspace(-1.5, 1.5, 101)
    assert np.allclose(_prime(p, -z), -_prime(p, z), atol=1e-15, rtol=0.0)
    # g = C exp(-(2/lam) P), so P' = -(lam/2) (log g)' for both forms of g
    for lam, m in [(0.5, 0.3), (1.0, 0.0), (0.7, 0.0), (1.2, -0.2)]:
        q = KineticParams(lam, m)
        for log_g in (oracles.angular_log_density, oracles.angular_log_density_explicit):
            for s in np.linspace(-1.2, 1.2, 13):
                fd = -0.5 * lam * centered_difference(lambda t: float(log_g(lam, m, [t])[0]), s)
                assert _prime(q, s) == pytest.approx(fd, abs=1e-8)


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


def test_potential_scalar_and_array_calls_agree():
    p = KineticParams(0.6, 0.1)
    zs = np.array([-0.4, 0.2])
    assert isinstance(_second_at(p, 0.2), float)
    assert _second_at(p, 0.2) == _second_at(p, zs)[1]


_POINTWISE = {
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


def test_convexity_on_admissible_grid():
    zs = np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 10_000)
    cases = [(0.5, 0.0), (1.0, 0.3), (1.8, 0.1), (1.5, 0.25)]  # last: equality case
    for lam, m in cases:
        assert np.all(_second_at(KineticParams(lam, m), zs) > 0.0)


def test_closed_form_matches_minimization_on_grid():
    # the oracle's minimum, from the stationary point of P'' in sin z, lies
    # at or below P'' on 51 angles across the interval and within 1% of
    # their least value, and the closed form matches it
    worst = 0.0
    count = 0
    for lam in np.linspace(0.1, 1.8, 18):
        c = 1.0 - lam / 2.0
        for frac in (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95):
            p = KineticParams(float(lam), float(frac * c))
            val = oracles.potential_second_min(p.lam, p.m)
            assert val <= min(oracles.potential_second(p.lam, p.m, ANGLES[::40])) <= 1.01 * val
            worst = max(worst, abs(float(val) - bakry_emery_rho(p)))
            count += 1
    assert count >= 100
    assert worst <= 1e-10


def test_angular_equilibrium_examples():
    # (1, 0): v = 1/2, so g = cos(z)/2; (0.5, 0): v = (3/4)(1 - y^2), g = (3/4) cos^3 z
    z = np.linspace(-1.5, 1.5, 7)
    for lam, want in [(1.0, 0.5 * np.cos(z)), (0.5, 0.75 * np.cos(z) ** 3)]:
        for log_g in (oracles.angular_log_density, oracles.angular_log_density_explicit):
            got = [float(mpmath.exp(v)) for v in log_g(lam, 0.0, z)]
            assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_angular_equilibrium_unit_mass():
    # midpoint sum over the angular grid; g vanishes at the ends for these
    # parameters, so the quadrature is clean
    for lam, m in [(0.5, 0.0), (0.5, 0.2), (0.4, -0.1)]:
        n = 400
        dz = math.pi / n
        z = -math.pi / 2 + (np.arange(n) + 0.5) * dz
        g = oracles.angular_log_density_explicit(lam, m, z)
        assert float(mpmath.fsum(map(mpmath.exp, g))) * dz == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam,m", [pair for pair in _PAIRS if pair[0] >= 0.005])
def test_value_at_sin_z_matches_the_oracle(lam, m):
    # BetaEquilibrium.value at the float y = sin z against v(y) at 60 digits,
    # wherever that is a normal float.  Below lam = 0.005 the error grows
    # with the exponents 1/lam (2e-11 at 1e-4); the boundary test covers those
    y = np.sin(_angles(lam, m))
    want = np.array([float(mpmath.exp(v)) for v in oracles.beta_log_density(lam, m, y)])
    got = BetaEquilibrium.from_params(KineticParams(lam, m)).value(y)
    normal = want >= sys.float_info.min
    assert normal.any()
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-12


@pytest.mark.parametrize("lam,m", _PAIRS)
def test_explicit_formula_agreement(lam, m):
    # the paper's C cos^(2/lam - 1) z ((1 + tan(z/2)) / (1 - tan(z/2)))^(2m/lam)
    # against v(sin z) cos z, both at 60 digits (400 at tiny lam) and compared
    # in logs, as g underflows near the ends and at tiny lam everywhere: the
    # relative error |e^(log ratio) - 1| is at most e^|log ratio| - 1
    defined = oracles.angular_log_density(lam, m, _angles(lam, m))
    explicit = oracles.angular_log_density_explicit(lam, m, _angles(lam, m))
    assert math.expm1(max(abs(float(e - d)) for d, e in zip(defined, explicit))) <= 1e-10


def test_boundary_asymptotics():
    # log v(sin(+-z)) + log cos z against log delta, delta = pi/2 - z, has
    # slope 2/lam - 1 -+ 2m/lam, fitted from the package's log_value
    deltas = np.logspace(-6, -3, 16)
    zs = math.pi / 2 - deltas
    for lam, m in _MATRIX_PAIRS:
        eq = BetaEquilibrium.from_params(KineticParams(lam, m))
        for sign in (1.0, -1.0):
            expected = 2.0 / lam - 1.0 - sign * 2.0 * m / lam
            log_g = eq.log_value(np.sin(sign * zs)) + np.log(np.cos(zs))
            if math.isinf(expected):
                # lam = 1e-308: 2/lam overflows, and log v(sin z) with it,
                # to -inf: v is far below the least float there
                assert np.all(log_g == -math.inf)
                continue
            slope = np.polyfit(np.log(deltas), log_g, 1)[0]
            assert abs(slope - expected) <= 0.02 * max(1.0, abs(expected)), (lam, m, sign)


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.special", "scipy.linalg",
                                    "scipy._lib._array_api", "concurrent.futures",
                                    "scipy.linalg._flapack", "scipy.special._special_ufuncs"])
def test_import_leaves_slow_scipy_modules_unloaded(module):
    # nothing in the package imports scipy.interpolate or any part of
    # scipy.special (the solver's exprel and the functionals' logs take the
    # C library's expm1 and numpy's log), and the LAPACK routines load from
    # their extension file at the solver's first factorization only (see the
    # test below); nothing imports concurrent.futures, which loads logging,
    # as the Monte Carlo starts no thread.  So a fresh import of the module
    # opkin loads, which loads every other module, loads none of these; it
    # does load scipy itself, whose version the benchmark records
    code = (f"import sys, opinion_kinetics.cli; "
            f"print({module!r} in sys.modules, 'scipy' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "True"]


def test_runs_leave_slow_scipy_modules_unloaded(tmp_path):
    # the guard above covers the import; this one covers a solve, a Monte
    # Carlo run of 8 sweeps and the log-Sobolev battery at tiny sizes
    code = f"""
import sys
from opinion_kinetics.config import parse_config_text
from opinion_kinetics.runners import run_mc, run_solve, verify_ls
cfg = parse_config_text("lambda = 0.5\\nm = 0\\nn = 16\\ndt = 1e-2\\nt_end = 0.2\\n"
                        "mc.n = 100\\nmc.t_end = 0.04\\nmc.hist_n = 8\\n")
run_solve(cfg, {str(tmp_path / "solve")!r})
run_mc(cfg, {str(tmp_path / "mc")!r})
verify_ls(lambdas=(0.5, 1.0), n=16, n_samples=2, out_dir={str(tmp_path / "ls")!r})
slow = ("scipy.interpolate", "scipy.special", "scipy.linalg", "scipy._lib._array_api",
        "concurrent.futures", "scipy.special._special_ufuncs")
print([m for m in slow if m in sys.modules])
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split("\n") == ["[]", ""]
    assert (tmp_path / "ls" / "ls_report.csv").exists()


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
from opinion_kinetics.runners import verify_ls, write_equilibrium_csv
from opinion_kinetics.solver import march
out = Path({str(tmp_path)!r})
cfg = parse_config_text("lambda = 0.5\\nm = 0\\nn = 16\\n")
p, grid = cfg.params(), cfg.grid()
write_equilibrium_csv(out, p, grid)
verify_ls(lambdas=(0.5,), n=16, n_samples=1, out_dir=out / "ls")
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
