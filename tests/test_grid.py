import numpy as np
import pytest

from opinion_kinetics.functionals import l1_distance
from opinion_kinetics.grid import (
    DensityField,
    Grid,
    GridMismatchError,
    TRIG_DEGREE,
    _trig_basis,
    _trig_series,
    bimodal_density,
    random_grid_functions,
    random_smooth_densities,
    uniform_density,
)


def test_grid_examples():
    g = Grid(4)
    assert g.cell_width == 0.5
    assert np.allclose(g.centers, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
    g200 = Grid(200)
    assert g200.cell_width == pytest.approx(0.01)
    assert g200.centers[0] == pytest.approx(-0.995, abs=1e-15)
    with pytest.raises(ValueError):
        Grid(3)


def test_grid_symmetry_and_interior():
    for n in (4, 7, 200):
        g = Grid(n)
        assert np.array_equal(g.centers, -g.centers[::-1])
        assert np.all(np.abs(g.centers) < 1.0)
        d = np.diff(g.centers)
        assert np.allclose(d, g.cell_width, atol=1e-15)
        assert g.interior_interfaces.size == n - 1
        assert g.edges[0] == -1.0 and g.edges[-1] == 1.0


def test_density_field_validation():
    g = Grid(8)
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
    g = Grid(100)
    f = DensityField(g, 1.0 + g.centers**2).normalized()
    assert f.mass() == pytest.approx(1.0, abs=1e-14)
    u = uniform_density(g)
    assert u.mean() == pytest.approx(0.0, abs=1e-15)


def test_bimodal_density_mass_and_symmetry():
    g = Grid(200)
    f = bimodal_density(g, width=0.15)
    assert abs(f.mass() - 1.0) <= 1e-12
    assert np.array_equal(f.values, f.values[::-1])
    # modes near +-1/2
    i_max = np.argmax(f.values[g.centers > 0])
    assert abs(g.centers[g.centers > 0][i_max] - 0.5) < 0.02


def test_random_density_positive_normalized():
    g = Grid(128)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = DensityField(g, random_smooth_densities(g, rng, 1)[0])
        assert np.all(f.values > 0.0)
        assert abs(f.mass() - 1.0) <= 1e-12


def _trig_series_rows(y, coef):
    """The trig series one row at a time: cos and sin evaluated afresh,
    interleaved by k, then one einsum per row."""
    basis = []
    for k in range(1, coef.shape[1] + 1):
        arg = 0.5 * np.pi * k * y
        basis += [np.cos(arg), np.sin(arg)]
    return np.concatenate([np.einsum("rk,kn->rn", c.reshape(1, -1), np.array(basis))
                           for c in coef])


def _trig_series_loop(out, y, coef):
    """The per-k loop the einsum replaced, and the sum of |terms| per cell."""
    size = np.abs(out)
    for k in range(1, coef.shape[1] + 1):
        arg = 0.5 * np.pi * k * y
        a, b = coef[:, k - 1, 0:1] * np.cos(arg), coef[:, k - 1, 1:2] * np.sin(arg)
        out += a + b
        size += np.abs(a) + np.abs(b)
    return out, size


@pytest.mark.parametrize("n", [4, 400])
@pytest.mark.parametrize("degree", [4])  # the generators' TRIG_DEGREE, pinned
def test_random_stacks_equal_per_k_trig_loop(n, degree):
    # bit for bit against a fresh basis and one row at a time; within 4 ulp
    # of sum |terms| of the old per-k loop, which added the terms in another order
    assert TRIG_DEGREE == degree
    g = Grid(n)
    rows, ks = 25, np.arange(1, degree + 1)[:, None]

    rng = np.random.default_rng(7)
    coef = rng.normal(size=(rows, degree, 2)) * 0.6 / ks
    series = _trig_series_rows(g.centers, coef)
    want = np.exp(series)
    want /= want.sum(axis=-1, keepdims=True) * g.cell_width
    got = random_smooth_densities(g, np.random.default_rng(7), rows)
    assert np.array_equal(got, want)
    old, size = _trig_series_loop(np.zeros((rows, n)), g.centers, coef)
    assert np.array_equal(_trig_series(g, coef), series)
    assert np.all(np.abs(series - old) <= 4 * np.spacing(size))

    draws = np.random.default_rng(8).normal(size=(rows, 1 + 2 * degree))
    coef = draws[:, 1:].reshape(rows, degree, 2) / ks
    want = draws[:, :1] + _trig_series_rows(g.centers, coef)
    got = random_grid_functions(g, np.random.default_rng(8), rows)
    assert np.array_equal(got, want)
    old, size = _trig_series_loop(np.repeat(draws[:, :1], n, axis=1), g.centers, coef)
    assert np.all(np.abs(got - old) <= 4 * np.spacing(size))


def test_trig_basis_is_read_only():
    basis = _trig_basis(Grid(400))
    assert basis.shape == (2 * TRIG_DEGREE, 400)
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0


def test_grid_mismatch_raises():
    f = uniform_density(Grid(8))
    h = uniform_density(Grid(16))
    with pytest.raises(GridMismatchError):
        l1_distance(f.values, h)
