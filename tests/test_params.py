import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opinion_kinetics.params import (
    KineticParams,
    ParamRegime,
    RegimeError,
    bakry_emery_rho,
    classify_params,
    log_sobolev_constant,
)

import oracles


def test_param_validation():
    with pytest.raises(ValueError):
        KineticParams(0.0, 0.0)
    with pytest.raises(ValueError):
        KineticParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        KineticParams(1.0, 1.0)
    with pytest.raises(ValueError):
        KineticParams(1.0, -1.5)
    with pytest.raises(ValueError):
        KineticParams(math.nan, 0.0)
    KineticParams(1e-6, 0.999999)  # extreme but valid


def test_classify_examples():
    assert classify_params(KineticParams(1.0, 0.0)) == ParamRegime.L2_EQUILIBRIUM
    assert classify_params(KineticParams(0.5, 0.2)) == ParamRegime.VANISHING_BOUNDARY
    assert classify_params(KineticParams(1.9, 0.5)) == ParamRegime.GENERAL


def test_classify_edge_cases():
    # equality 1 - lam/2 = |m| is admitted for m != 0 ...
    assert classify_params(KineticParams(1.5, 0.25)) == ParamRegime.L2_EQUILIBRIUM
    # ... but m = 0 requires strict positivity
    assert classify_params(KineticParams(2.0, 0.0)) == ParamRegime.GENERAL
    assert classify_params(KineticParams(2.5, 0.0)) == ParamRegime.GENERAL


@pytest.mark.parametrize("m", [0.9, -0.9])
def test_classify_rejects_a_point_where_1_minus_lam_over_2_rounds_up_to_m(m):
    # 1 - 0.2/2 rounds to 0.9, but for the floats taken exactly it is
    # 0.89999999999999999445 < 0.9: the steady state is not square-integrable
    p = KineticParams(0.2, m)
    assert 1.0 - p.lam / 2.0 == abs(m)
    assert classify_params(p) == ParamRegime.GENERAL
    with pytest.raises(RegimeError):
        bakry_emery_rho(p)


@st.composite
def _points_near_an_edge(draw):
    """(lam, m) with m = frac * (1 - lam/2) or frac * (1 - lam) in floats,
    |frac| <= 1: on, or a rounding off, either regime's edge."""
    lam = draw(st.floats(0.0, 4.0, exclude_min=True))
    edge = draw(st.sampled_from((1.0 - lam / 2.0, 1.0 - lam)))
    m = draw(st.floats(-1.0, 1.0)) * edge
    assume(abs(m) < 1.0)
    return lam, m


@settings(derandomize=True, database=None, deadline=None)
@given(point=_points_near_an_edge())
@example(point=(0.2, 0.9))
@example(point=(0.1, 0.9))
@example(point=(1.5, 0.25))
@example(point=(2.0, 0.0))
@example(point=(5e-324, 0.5))
def test_classify_matches_the_floats_taken_exactly(point):
    lam, m = point
    lam_x, m_x = Fraction(lam), abs(Fraction(m))
    gap = 1 - lam_x / 2 - m_x
    if 1 - lam_x - m_x > 0:
        want = ParamRegime.VANISHING_BOUNDARY
    elif gap > 0 or (gap == 0 and m_x != 0):
        want = ParamRegime.L2_EQUILIBRIUM
    else:
        want = ParamRegime.GENERAL
    assert classify_params(KineticParams(lam, m)) == want


def test_vanishing_implies_l2():
    rng = np.random.default_rng(1)
    for _ in range(500):
        lam = float(rng.uniform(0.01, 2.5))
        m = float(rng.uniform(-0.99, 0.99))
        p = KineticParams(lam, m)
        if classify_params(p) == ParamRegime.VANISHING_BOUNDARY:
            assert 1.0 - lam / 2.0 >= abs(m)


def test_log_sobolev_constant_examples():
    assert log_sobolev_constant(KineticParams(1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert log_sobolev_constant(KineticParams(0.5, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(RegimeError):
        log_sobolev_constant(KineticParams(1.9, 0.5))


def test_log_sobolev_constant_equality_case():
    # square root term vanishes when 1 - lam/2 = |m|
    assert log_sobolev_constant(KineticParams(1.5, 0.25)) == pytest.approx(4.0, rel=1e-14, abs=0)


def test_bakry_emery_rho_examples():
    assert bakry_emery_rho(KineticParams(1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)
    expected = 0.5 * (0.75 + math.sqrt(0.5625 - 0.0625))
    assert bakry_emery_rho(KineticParams(0.5, 0.25)) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.728553, abs=1e-6)
    with pytest.raises(RegimeError):
        bakry_emery_rho(KineticParams(1.9, 0.5))


def _admissible_grid():
    pts = []
    for lam in np.linspace(0.1, 1.8, 18):
        c = 1.0 - lam / 2.0
        for frac in (0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95):
            pts.append(KineticParams(float(lam), float(frac * c)))
    return pts


def test_constant_identity_2_k_rho():
    for p in _admissible_grid():
        prod = 2.0 * bakry_emery_rho(p) * log_sobolev_constant(p)
        assert abs(prod - 1.0) <= 1e-14


def test_rho_at_most_one():
    for p in _admissible_grid():
        assert bakry_emery_rho(p) <= 1.0 + 1e-15


def test_rho_decreasing_in_lambda():
    for m in (0.0, 0.1, 0.3):
        lams = np.linspace(0.05, 2.0 * (1.0 - abs(m)) - 0.05, 40)
        rhos = [bakry_emery_rho(KineticParams(float(lv), m)) for lv in lams]
        assert all(r1 > r2 for r1, r2 in zip(rhos, rhos[1:]))


def test_constants_even_in_m():
    for lam in (0.4, 1.0, 1.5):
        for m in (0.1, 0.25):
            if 1.0 - lam / 2.0 < m:
                continue
            kp = log_sobolev_constant(KineticParams(lam, m))
            km = log_sobolev_constant(KineticParams(lam, -m))
            assert kp == km


@st.composite
def _admissible_points(draw):
    """(lam, m) with lam in (0, 2) and m = frac * (1 - lam/2) in floats,
    |frac| <= 1, kept where |m| <= 1 - lam/2 holds for the floats taken
    exactly: where 1 - lam/2 rounds up, frac = +-1 lies just outside."""
    lam = draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
    m = draw(st.floats(-1.0, 1.0)) * (1.0 - lam / 2.0)
    assume(abs(Fraction(m)) <= 1 - Fraction(lam) / 2)
    return lam, m


# the examples: the edge |m| = 1 - lam/2, where the square root in rho falls
# to 0; points one float inside it, where rounding 1 - lam/2 or c^2 - m^2
# moves rho by up to 1e-8 (c*c - m*m in floats is 3.4e-9 off at (0.3, 0.85)
# and 1.2e-9 at (0.5, 0.75 - ulp)); and tiny lam, where 1 - lam/2 rounds to 1.
# hypothesis imports libcst to write a failure patch, and libcst's import
# warns: without this filter a failing example ends the run as an INTERNALERROR
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, deadline=None)
@given(point=_admissible_points())
@example(point=(0.5, 0.75))
@example(point=(0.5, -0.75))
@example(point=(1.5, 0.25))
@example(point=(1.9999999999999998, 1.1102230246251565e-16))
@example(point=(0.5, 0.7499999999999999))
@example(point=(0.3, 0.85))
@example(point=(2.0 ** -52, 1.0 - 2.0 ** -53))
@example(point=(1e-300, 0.0))
@example(point=(1e-300, 0.9))
@example(point=(1e-300, -(1.0 - 2.0 ** -53)))
@example(point=(5e-324, 0.5))
def test_bakry_emery_rho_is_the_60_digit_minimum_of_the_curvature(point):
    lam, m = point
    p = KineticParams(lam, m)
    assert abs(bakry_emery_rho(p) - float(oracles.potential_second_min(lam, m))) <= 1e-10
