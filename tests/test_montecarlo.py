import math

import numpy as np
import pytest

from opinion_kinetics import (
    BetaEquilibrium,
    Ensemble,
    InteractionParams,
    KineticParams,
    binary_interact,
    build_grid,
    histogram,
    initial_ensemble,
    l1_distance,
    mc_step,
    moments,
    sample_noise,
)
from opinion_kinetics.montecarlo import sample_from_density, sweeps_for_time


def test_interaction_params_validation():
    with pytest.raises(ValueError):
        InteractionParams(gamma=1.0, sigma2=0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        InteractionParams(gamma=0.5, sigma2=-0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        InteractionParams(gamma=0.5, sigma2=0.1, epsilon=1.5)
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    assert ip.lam == pytest.approx(0.5)


def test_sample_noise_degenerate():
    rng = np.random.default_rng(0)
    assert sample_noise(rng, 0.0) == 0.0
    assert np.all(sample_noise(rng, 0.0, size=10) == 0.0)
    with pytest.raises(ValueError):
        sample_noise(rng, -1.0)


def test_sample_noise_moments_and_support():
    rng = np.random.default_rng(42)
    s2 = 0.03
    draws = sample_noise(rng, s2, size=1_000_000)
    assert np.all(np.abs(draws) <= math.sqrt(3 * s2) + 1e-15)
    # mean within 3 sigma/sqrt(N), variance within 1%
    assert abs(draws.mean()) <= 3.0 * math.sqrt(s2 / 1e6)
    assert draws.var() == pytest.approx(s2, rel=0.01)


def test_binary_interact_examples():
    # fixed point: identical opinions, no noise
    assert binary_interact(0.4, 0.4, 0.3, 0.0, 0.0) == (0.4, 0.4)
    # extremes attract each other; D kills the noise there
    assert binary_interact(1.0, -1.0, 0.1, 0.7, -0.7) == pytest.approx((0.8, -0.8))
    # zero-noise interactions conserve the pair sum exactly
    x, xs = binary_interact(0.3, -0.8, 0.25, 0.0, 0.0)
    assert x + xs == pytest.approx(0.3 - 0.8, abs=1e-15)


def test_binary_interact_rejection():
    # strong positive noise at an opinion near the boundary leaves the range
    assert binary_interact(0.999, 0.0, 0.01, 0.9, 0.0) is None


def test_binary_interact_mean_conserved_in_expectation():
    rng = np.random.default_rng(7)
    s2 = 0.02
    sums = []
    for _ in range(20000):
        eta, eta_s = sample_noise(rng, s2), sample_noise(rng, s2)
        out = binary_interact(0.2, -0.5, 0.05, eta, eta_s)
        if out is not None:
            sums.append(out[0] + out[1])
    sums = np.array(sums)
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(sums.mean() - (0.2 - 0.5)) <= 3.0 * se


def test_mc_step_pure_compromise_midpoint():
    # eps*gamma = 1/2 with no noise sends both agents to the midpoint
    ip = InteractionParams(gamma=0.5, sigma2=0.0, epsilon=1.0)
    e = Ensemble(opinions=np.array([0.9, -0.3]), rng=np.random.default_rng(0), rng_seed=0)
    e2 = mc_step(e, ip)
    assert np.allclose(np.sort(e2.opinions), [0.3, 0.3], atol=1e-15)
    assert e2.time == 1.0


def test_mc_step_odd_size_error():
    ip = InteractionParams(gamma=0.5, sigma2=0.1, epsilon=0.1)
    e = Ensemble(opinions=np.zeros(3), rng=np.random.default_rng(0), rng_seed=0)
    with pytest.raises(ValueError):
        mc_step(e, ip)


def test_mc_step_range_invariant_and_rejections():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = initial_ensemble(20_000, seed=5, kind="bimodal")
    for _ in range(50):
        e = mc_step(e, ip)
        assert np.all(np.abs(e.opinions) <= 1.0)
    assert e.rejection_fraction < 1e-3


def test_mc_step_mean_within_standard_errors():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = initial_ensemble(50_000, seed=9, kind="bimodal")
    m0 = moments(e)[0]
    n_sweeps = 200
    for _ in range(n_sweeps):
        e = mc_step(e, ip)
    # per-sweep noise variance of the ensemble mean is at most eps*sigma2/N
    se = math.sqrt(n_sweeps * ip.epsilon * ip.sigma2 / e.size)
    assert abs(moments(e)[0] - m0) <= 3.0 * se


def test_determinism_bitwise():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    runs = []
    for _ in range(2):
        e = initial_ensemble(1000, seed=1234, kind="bimodal")
        for _ in range(10):
            e = mc_step(e, ip)
        runs.append(e.opinions)
    assert np.array_equal(runs[0], runs[1])


def test_histogram_point_mass_and_mass():
    g = build_grid(4)
    e = Ensemble(opinions=np.zeros(100), rng=np.random.default_rng(0), rng_seed=0)
    h = histogram(e, g)
    assert h.mass() == pytest.approx(1.0, abs=1e-15)
    # all mass in the cell containing 0 (0 falls in the third cell [0, 0.5))
    assert h.values[2] == pytest.approx(1.0 / g.cell_width)
    assert np.all(h.values[[0, 1, 3]] == 0.0)
    # endpoints land in the outermost cells
    e2 = Ensemble(opinions=np.array([-1.0, 1.0]), rng=np.random.default_rng(0), rng_seed=0)
    assert histogram(e2, g).mass() == pytest.approx(1.0, abs=1e-15)


def test_histogram_uniform_multinomial():
    e = initial_ensemble(1_000_000, seed=3, kind="uniform")
    g = build_grid(50)
    h = histogram(e, g)
    p_cell = g.cell_width / 2.0
    sd = math.sqrt(p_cell * (1 - p_cell) / e.size) / g.cell_width
    assert np.max(np.abs(h.values - 0.5)) <= 5.0 * sd


def test_moments_examples():
    e = Ensemble(opinions=np.array([0.3]), rng=np.random.default_rng(0), rng_seed=0)
    mean, var = moments(e)
    assert mean == 0.3 and math.isnan(var)
    e2 = Ensemble(opinions=np.array([-1.0, 1.0]), rng=np.random.default_rng(0), rng_seed=0)
    assert moments(e2) == (0.0, 2.0)


def test_quasi_invariant_time_mapping():
    ip = InteractionParams(gamma=0.5, sigma2=0.25, epsilon=0.01)
    assert sweeps_for_time(ip, 2.0) == 400
    assert sweeps_for_time(ip, 0.0) == 0


def test_pure_compromise_variance_contracts():
    ip = InteractionParams(gamma=0.5, sigma2=0.0, epsilon=0.05)
    e = initial_ensemble(10_000, seed=13, kind="uniform")
    variances = [moments(e)[1]]
    for _ in range(30):
        e = mc_step(e, ip)
        variances.append(moments(e)[1])
    assert all(v2 < v1 for v1, v2 in zip(variances, variances[1:]))


def test_long_run_reaches_beta_equilibrium():
    # t_fp = 20 is deep in the stationary regime; the histogram must sit on
    # the Beta state within the statistical budget
    p = KineticParams(0.5, 0.0)
    ip = InteractionParams.from_kinetic(p, gamma=0.5, epsilon=0.02)
    e = initial_ensemble(50_000, seed=31, kind="bimodal")
    g = build_grid(25)
    for _ in range(sweeps_for_time(ip, 20.0)):
        e = mc_step(e, ip)
    h = histogram(e, g)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert l1_distance(h, eq) <= 0.05
    # matching moments: variance lam (1-m^2)/(lam+2)
    mean, var = moments(e)
    assert abs(mean) <= 0.02
    assert var == pytest.approx(p.lam / (p.lam + 2.0), rel=0.05)


def test_sample_from_density_matches_shape():
    g = build_grid(40)
    target = BetaEquilibrium.from_params(KineticParams(0.5, 0.2)).on_grid(g)
    e = sample_from_density(target, 200_000, seed=8)
    h = histogram(e, g)
    assert l1_distance(h, target) <= 0.03
