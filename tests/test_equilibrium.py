import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from opinion_kinetics.equilibrium import BetaEquilibrium, STIRLING_MIN, log_normalization
from opinion_kinetics.grid import Grid
from opinion_kinetics.params import KineticParams

import oracles
from oracles import QUAD_OPTS, quad_mass


def test_log_normalization_uniform():
    # lam = 1, m = 0 is the uniform density 1/2
    assert log_normalization(KineticParams(1.0, 0.0)) == pytest.approx(math.log(0.5), abs=1e-15)


def test_log_normalization_arcsine():
    # lam = 2, m = 0: integrand (1 - y^2)^(-1/2) integrates to pi
    p = KineticParams(2.0, 0.0)
    assert log_normalization(p) == pytest.approx(-math.log(math.pi), abs=1e-13)
    val, _ = quad(lambda y: (1.0 - y * y) ** -0.5, -1.0, 1.0, **QUAD_OPTS)
    assert val == pytest.approx(math.pi, rel=1e-9, abs=0)


@pytest.mark.parametrize("lam,m", [(0.5, 0.5), (0.5, 0.2), (1.0, 0.3), (1.7, 0.1), (0.25, -0.6)])
def test_log_normalization_quadrature_oracle(lam, m):
    p = KineticParams(lam, m)
    a = (1.0 - m) / lam
    b = (1.0 + m) / lam
    z, _ = quad(lambda y: (1.0 - y) ** (a - 1.0) * (1.0 + y) ** (b - 1.0),
                -1.0, 1.0, **QUAD_OPTS)
    assert log_normalization(p) == pytest.approx(-math.log(z), rel=1e-10, abs=0)


def _assert_rel(got, want, rel):
    # no absolute floor: pytest.approx would add 1e-12
    assert abs(got - want) <= rel * abs(want), (got, want)


@pytest.mark.parametrize("m", [0.0, 0.5, -0.9, 1e-10])
@pytest.mark.parametrize("lam", [1e-300, 1e-100, 1e-8, 1e-4])
def test_log_normalization_at_tiny_lambda_matches_a_400_digit_oracle(lam, m):
    # lgamma(a) + lgamma(b) - lgamma(a + b) cancels against (a + b - 1) log 2:
    # at lam = 1e-300, m = 0 it gave 2.41e287 for about 344.8, and at 1e-4
    # it kept 11 digits; Stirling's series with the log 2 term merged keeps
    # all but the last bit or two (at m = 1e-10 only through the small-m
    # form of its leading bracket)
    want = oracles.log_normalization(lam, m)
    _assert_rel(log_normalization(KineticParams(lam, m)), want, 2e-15)


@pytest.mark.parametrize("m", [0.0, 0.5, -0.9])
def test_log_normalization_paths_meet_at_the_threshold(m):
    # two lambdas a relative 2e-12 apart, with min(a, b) just below
    # STIRLING_MIN (log-gamma) and at or above it (Stirling); log C moves
    # between them as the oracle does, up to the rounding of the log-gamma
    # path's terms, whose magnitudes sum to about 6e4 (m = 0) to 8e5 (m = -0.9)
    lam0 = (1.0 - abs(m)) / STIRLING_MIN
    below, above = KineticParams(lam0 * (1.0 + 1e-12), m), KineticParams(lam0 * (1.0 - 1e-12), m)
    exponents = [((1.0 - p.m) / p.lam, (1.0 + p.m) / p.lam) for p in (below, above)]
    assert min(exponents[0]) < STIRLING_MIN <= min(exponents[1])
    a, b = exponents[0]
    lgamma_scale = abs(math.lgamma(a)) + abs(math.lgamma(b)) + abs(math.lgamma(a + b))
    jump = log_normalization(above) - log_normalization(below)
    want = oracles.log_normalization(above.lam, m) - oracles.log_normalization(below.lam, m)
    assert abs(jump - want) <= 4.0 * sys.float_info.epsilon * lgamma_scale
    _assert_rel(log_normalization(above), oracles.log_normalization(above.lam, m), 2e-15)


def test_equilibrium_value_examples():
    eq = BetaEquilibrium.from_params(KineticParams(1.0, 0.0))
    assert eq.value(0.3) == pytest.approx(0.5, abs=1e-15)
    eq2 = BetaEquilibrium.from_params(KineticParams(2.0, 0.0))
    assert eq2.value(0.0) == pytest.approx(1.0 / math.pi, rel=1e-13, abs=0)
    with pytest.raises(ValueError):
        eq.value(1.0)
    with pytest.raises(ValueError):
        eq.log_value(-1.0)


@pytest.mark.parametrize("lam,m", [(0.2, 0.0), (0.5, 0.2), (1.0, 0.0), (1.5, 0.3), (1.9, -0.7)])
def test_unit_mass_by_quadrature(lam, m):
    eq = BetaEquilibrium.from_params(KineticParams(lam, m))
    assert quad_mass(eq.value) == pytest.approx(1.0, abs=1e-8)


def test_mirror_symmetry_exact_in_log_space():
    y = np.linspace(-0.999, 0.999, 401)
    eq_plus = BetaEquilibrium.from_params(KineticParams(0.7, 0.35))
    eq_minus = BetaEquilibrium.from_params(KineticParams(0.7, -0.35))
    assert np.array_equal(eq_plus.log_value(y), eq_minus.log_value(-y))


def test_on_grid_normalization_flag():
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.2))
    g = Grid(200)
    assert eq.on_grid(g).is_normalized(tol=1e-12)
    raw_mass = eq.value(g.centers).sum() * g.cell_width  # the samples before rescaling
    assert abs(raw_mass - 1.0) < 1e-3  # close, but not flagged exact
