import numpy as np
import pytest

from opinion_kinetics import (
    DensityField,
    GridMismatchError,
    bimodal_density,
    build_grid,
    l1_distance,
    random_smooth_density,
    uniform_density,
)
from opinion_kinetics.grid import (
    TRIG_DEGREE,
    _trig_basis,
    random_grid_functions,
    random_smooth_densities,
)


def test_build_grid_examples():
    g = build_grid(4)
    assert g.cell_width == 0.5
    assert np.allclose(g.centers, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
    g200 = build_grid(200)
    assert g200.cell_width == pytest.approx(0.01)
    assert g200.centers[0] == pytest.approx(-0.995, abs=1e-15)
    with pytest.raises(ValueError):
        build_grid(3)


def test_grid_symmetry_and_interior():
    for n in (4, 7, 200):
        g = build_grid(n)
        assert np.array_equal(g.centers, -g.centers[::-1])
        assert np.all(np.abs(g.centers) < 1.0)
        d = np.diff(g.centers)
        assert np.allclose(d, g.cell_width, atol=1e-15)
        assert g.interior_interfaces.size == n - 1
        assert g.edges[0] == -1.0 and g.edges[-1] == 1.0


def test_density_field_validation():
    g = build_grid(8)
    with pytest.raises(ValueError):
        DensityField(g, np.full(7, 0.125))
    with pytest.raises(ValueError):
        DensityField(g, np.array([0.5] * 7 + [-0.1]))
    with pytest.raises(ValueError):
        DensityField(g, np.array([np.inf] * 8))
    f = DensityField(g, np.full(8, 0.5))
    assert f.is_normalized()
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # stored values are frozen


def test_normalization_and_mean():
    g = build_grid(100)
    f = DensityField(g, 1.0 + g.centers**2).normalized()
    assert f.mass() == pytest.approx(1.0, abs=1e-14)
    u = uniform_density(g)
    assert u.mean() == pytest.approx(0.0, abs=1e-15)


def test_bimodal_density_mass_and_symmetry():
    g = build_grid(200)
    f = bimodal_density(g, width=0.15)
    assert abs(f.mass() - 1.0) <= 1e-12
    assert np.array_equal(f.values, f.values[::-1])
    # modes near +-1/2
    i_max = np.argmax(f.values[g.centers > 0])
    assert abs(g.centers[g.centers > 0][i_max] - 0.5) < 0.02


def test_random_density_positive_normalized():
    g = build_grid(128)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_smooth_density(g, rng)
        assert np.all(f.values > 0.0)
        assert abs(f.mass() - 1.0) <= 1e-12


def _trig_series_loop(out, y, coef):
    """The trig series with cos and sin evaluated afresh for every k."""
    for k in range(1, coef.shape[1] + 1):
        arg = 0.5 * np.pi * k * y
        out += coef[:, k - 1, 0:1] * np.cos(arg) + coef[:, k - 1, 1:2] * np.sin(arg)
    return out


@pytest.mark.parametrize("n", [4, 400])
@pytest.mark.parametrize("degree", [4])  # the generators' TRIG_DEGREE, pinned
def test_random_stacks_equal_per_k_trig_loop(n, degree):
    assert TRIG_DEGREE == degree
    g = build_grid(n)
    rows, ks = 25, np.arange(1, degree + 1)[:, None]

    rng = np.random.default_rng(7)
    coef = rng.normal(size=(rows, degree, 2)) * 0.6 / ks
    want = np.exp(_trig_series_loop(np.zeros((rows, n)), g.centers, coef))
    want /= want.sum(axis=-1, keepdims=True) * g.cell_width
    got = random_smooth_densities(g, np.random.default_rng(7), rows)
    assert np.array_equal(got, want)

    draws = np.random.default_rng(8).normal(size=(rows, 1 + 2 * degree))
    coef = draws[:, 1:].reshape(rows, degree, 2) / ks
    want = _trig_series_loop(np.repeat(draws[:, :1], n, axis=1), g.centers, coef)
    got = random_grid_functions(g, np.random.default_rng(8), rows)
    assert np.array_equal(got, want)


def test_trig_basis_is_read_only():
    cos, sin = _trig_basis(build_grid(400))
    assert cos.shape == sin.shape == (4, 400)
    for a in (cos, sin):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_grid_mismatch_raises():
    f = uniform_density(build_grid(8))
    h = uniform_density(build_grid(16))
    with pytest.raises(GridMismatchError):
        l1_distance(f, h)
