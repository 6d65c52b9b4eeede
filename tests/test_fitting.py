import math

import numpy as np
import pytest

from opinion_kinetics.fitting import fit_decay_rate


def test_exact_exponential():
    t = np.linspace(0.0, 5.0, 100)
    fit = fit_decay_rate(t, 3.0 * np.exp(-2.0 * t))
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_constant_series():
    t = np.linspace(0.0, 1.0, 50)
    fit = fit_decay_rate(t, np.full(50, 7.5))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


def test_noisy_exponential_within_five_percent():
    rng = np.random.default_rng(99)
    t = np.linspace(0.0, 4.0, 400)
    values = 5.0 * np.exp(-1.3 * t) * np.exp(rng.normal(0.0, 0.05, t.size))
    fit = fit_decay_rate(t, values)
    assert fit.slope == pytest.approx(-1.3, rel=0.05, abs=0)


def test_window_selection():
    t = np.linspace(0.0, 10.0, 200)
    # rate changes at t = 5; fitting the tail isolates the late rate
    v = np.where(t < 5.0, np.exp(-0.5 * t), np.exp(-2.5 - 2.0 * (t - 5.0)))
    fit = fit_decay_rate(t, v, window=(5.0, 10.0))
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.window == (5.0, 10.0)


def test_errors():
    t = np.linspace(0.0, 1.0, 30)
    v = np.exp(-t)
    with pytest.raises(ValueError):
        fit_decay_rate(t, v, window=(1.0, 1.0))
    with pytest.raises(ValueError):
        fit_decay_rate(t[:5], v[:5])  # too few samples
    for value in (-1.0, math.nan, math.inf):
        bad = v.copy()
        bad[10] = value
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_decay_rate(t, bad)
    with pytest.raises(ValueError):
        fit_decay_rate(t, v[:-1])
