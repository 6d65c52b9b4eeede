import math

import numpy as np
import pytest

from opinion_kinetics.params import (
    KineticParams,
    ParamRegime,
    RegimeError,
    bakry_emery_rho,
    classify_params,
    log_sobolev_constant,
)


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
