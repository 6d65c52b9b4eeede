import math
import warnings

import numpy as np
import pytest

from opinion_kinetics import (
    AbsoluteContinuityError,
    BetaEquilibrium,
    DensityField,
    KineticParams,
    PositivityError,
    RegimeError,
    bimodal_density,
    build_grid,
    ckp_slack,
    discretize_equilibrium,
    l1_distance,
    ls_slack,
    random_grid_function,
    random_smooth_density,
    relative_entropy,
    uniform_density,
    uniform_ls_slack,
    weighted_fisher,
    weighted_l2,
)

from opinion_kinetics.functionals import (
    _entropy_core,
    entropy_gap,
    ls_slack_rows,
)

from oracles import SmoothRatioCase, entropy_kernel


def _field_from(fn, grid):
    return DensityField(grid, fn(grid.centers)).normalized()


def test_relative_entropy_identity():
    g = build_grid(100)
    f = bimodal_density(g)
    assert relative_entropy(f, f) == 0.0


def test_relative_entropy_boundary_singular_reference():
    # Uniform data against the lam=0.5 Beta state: H = 2 - log 6 in the
    # continuum.  The reference's log has endpoint singularities, so the
    # midpoint sum converges only at first order: about 1.7e-3 off at
    # n = 400, halving with each refinement.
    exact = 2.0 - math.log(6.0)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0))
    gaps = []
    for n in (200, 400, 800):
        g = build_grid(n)
        h = relative_entropy(uniform_density(g), eq.on_grid(g))
        assert h > 0.0
        gaps.append(abs(h - exact))
    assert gaps[1] <= 2.5e-3
    order = -np.polyfit(np.log([200, 400, 800]), np.log(gaps), 1)[0]
    assert order > 0.9


def test_relative_entropy_smooth_ratio_oracle():
    case = SmoothRatioCase(0.5, 0.0)
    g = build_grid(400)
    f = _field_from(case.f, g)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert relative_entropy(f, eq) == pytest.approx(case.entropy(), abs=1e-4)


def test_relative_entropy_absolute_continuity():
    g = build_grid(10)
    f = uniform_density(g)
    gv = np.full(10, 1.0 / 1.8)
    gv[0] = 0.0
    with pytest.raises(AbsoluteContinuityError):
        relative_entropy(f, DensityField(g, gv))
    # but f may vanish where g does
    fv = np.where(np.arange(10) == 0, 0.0, 0.5)
    relative_entropy(DensityField(g, fv).normalized(), DensityField(g, gv).normalized())


def test_relative_entropy_nonnegative_on_random_pairs():
    rng = np.random.default_rng(5)
    g = build_grid(100)
    for _ in range(200):
        f = random_smooth_density(g, rng)
        h = random_smooth_density(g, rng)
        assert relative_entropy(f, h) >= -1e-12


@pytest.mark.parametrize("kind", ["far", "near", "special"])
def test_entropy_kernel_matches_a_50_digit_oracle(kind):
    # the cells the direct formula takes (|r - 1| >= 0.01) cancel r log r
    # against r - 1 near the switch; the series cells keep a few ulp
    rng = np.random.default_rng(0)
    r = {
        "far": np.concatenate([rng.uniform(0.0, 3.0, 1000),
                               np.exp(rng.uniform(-30.0, 30.0, 1000))]),
        "near": np.concatenate([1.0 + rng.uniform(-0.011, 0.011, 1000),
                                1.0 + rng.uniform(-1e-8, 1e-8, 1000)]),
        "special": np.array([0.0, 1e-300, 1e300]),
    }[kind]
    want = entropy_kernel(r)
    rel = np.abs(_entropy_core(r) - want) / want
    series = np.abs(r - 1.0) < 0.01
    assert np.all(rel[~series] <= 6e-14)
    assert np.all(rel[series] <= 6e-16)


def test_entropy_kernel_edge_cells():
    r = np.array([0.0, -0.5, -1.0, np.nan, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = _entropy_core(r)
    assert h[0] == 1.0
    assert np.isnan(h[1:4]).all()
    assert h[4] == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)


def test_weighted_fisher_zero_at_equilibrium():
    p = KineticParams(0.5, 0.2)
    g = build_grid(300)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert weighted_fisher(eq, eq, p.lam) <= 1e-20


def test_weighted_fisher_smooth_ratio_oracle():
    case = SmoothRatioCase(0.5, 0.0)
    g = build_grid(400)
    f = _field_from(case.f, g)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert weighted_fisher(f, eq, 0.5) == pytest.approx(case.fisher(), rel=1e-3)


def test_weighted_fisher_linear_in_prefactor():
    g = build_grid(200)
    rng = np.random.default_rng(3)
    f = random_smooth_density(g, rng)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert weighted_fisher(f, eq, 1.0) == pytest.approx(
        2.0 * weighted_fisher(f, eq, 0.5), rel=1e-15)


def test_weighted_fisher_positivity_error():
    g = build_grid(10)
    f = DensityField(g, np.where(np.arange(10) == 4, 0.0, 1.0)).normalized()
    eq = BetaEquilibrium.from_params(KineticParams(1.0, 0.0)).on_grid(g)
    with pytest.raises(PositivityError):
        weighted_fisher(f, eq, 1.0)


def test_divergent_continuum_cases_grow_under_refinement():
    # Uniform data against a boundary-vanishing state has infinite continuum
    # Fisher information and weighted L2; the discrete values must be finite
    # at every n but increase without bound as the grid resolves the boundary.
    p = KineticParams(0.5, 0.0)
    eq = BetaEquilibrium.from_params(p)
    fishers, wl2s = [], []
    for n in (100, 400, 1600):
        g = build_grid(n)
        u = uniform_density(g)
        fishers.append(weighted_fisher(u, eq.on_grid(g), p.lam))
        wl2s.append(weighted_l2(u, eq.on_grid(g)))
    assert all(math.isfinite(x) for x in fishers + wl2s)
    assert fishers[0] < fishers[1] < fishers[2]
    assert wl2s[0] < wl2s[1] < wl2s[2]


def test_weighted_l2_zero_at_equilibrium():
    p = KineticParams(0.7, 0.1)
    g = build_grid(128)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert weighted_l2(eq, eq) == 0.0


def test_weighted_l2_polynomial_case():
    # f = Beta(0.5, 0) against the uniform state: integrand is a polynomial
    # with exact integral 1/5.
    g = build_grid(400)
    f = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    uni = BetaEquilibrium.from_params(KineticParams(1.0, 0.0)).on_grid(g)
    assert weighted_l2(f, uni) == pytest.approx(0.2, abs=1e-4)


def test_weighted_l2_smooth_ratio_oracle():
    case = SmoothRatioCase(0.5, 0.0)
    g = build_grid(400)
    f = _field_from(case.f, g)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert weighted_l2(f, eq) == pytest.approx(case.weighted_l2(), abs=1e-4)


def test_cauchy_schwarz_chain():
    rng = np.random.default_rng(11)
    p = KineticParams(0.5, 0.0)
    g = build_grid(200)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    for _ in range(100):
        f = random_smooth_density(g, rng)
        assert l1_distance(f, eq) ** 2 <= weighted_l2(f, eq) * (1.0 + 1e-12)


def test_l1_examples():
    g = build_grid(100)
    f = bimodal_density(g)
    assert l1_distance(f, f) == 0.0
    left = np.where(g.centers < 0.0, 1.0, 0.0)
    right = np.where(g.centers > 0.0, 1.0, 0.0)
    fl = DensityField(g, left).normalized()
    fr = DensityField(g, right).normalized()
    assert l1_distance(fl, fr) == pytest.approx(2.0, abs=1e-12)


def test_l1_brute_force_oracle():
    rng = np.random.default_rng(2)
    g = build_grid(64)
    f = random_smooth_density(g, rng)
    h = random_smooth_density(g, rng)
    brute = math.fsum(abs(a - b) for a, b in zip(f.values, h.values)) * g.cell_width
    # summation order differs (pairwise vs exact), so agreement is ulp-scale
    assert l1_distance(f, h) == pytest.approx(brute, rel=5e-16)


def test_ckp_slack():
    g = build_grid(100)
    f = bimodal_density(g)
    assert ckp_slack(f, f) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = random_smooth_density(g, rng)
        b = random_smooth_density(g, rng)
        assert ckp_slack(a, b) >= -1e-10
    left = DensityField(g, np.where(g.centers < 0.0, 1.0, 0.0)).normalized()
    right = DensityField(g, np.where(g.centers > 0.0, 1.0, 0.0)).normalized()
    assert ckp_slack(left, right) == math.inf


def test_ls_slack_zero_at_equilibrium():
    p = KineticParams(0.5, 0.0)
    g = build_grid(400)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert ls_slack(eq, p) == 0.0


def test_ls_slack_bimodal_positive():
    p = KineticParams(0.5, 0.0)
    phi = bimodal_density(build_grid(400))
    assert ls_slack(phi, p) > 0.0


def test_ls_slack_regime_error():
    phi = bimodal_density(build_grid(100))
    with pytest.raises(RegimeError):
        ls_slack(phi, KineticParams(1.9, 0.5))


def test_uniform_ls_slack_equality_case():
    g = build_grid(256)
    w = np.full(g.n_cells, 1.0 / math.sqrt(2.0))
    assert uniform_ls_slack(g, w) == pytest.approx(0.0, abs=1e-15)


def test_uniform_ls_slack_linear_case():
    # w = (1+x)/sqrt(8/3) has unit norm; slack is 5/3 - log 3 exactly.
    g = build_grid(400)
    w = (1.0 + g.centers) / math.sqrt(8.0 / 3.0)
    assert uniform_ls_slack(g, w) == pytest.approx(5.0 / 3.0 - math.log(3.0), abs=1e-4)


def test_uniform_ls_slack_quadratic_scaling():
    g = build_grid(200)
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_grid_function(g, rng)
        assert uniform_ls_slack(g, 2.0 * w) == pytest.approx(
            4.0 * uniform_ls_slack(g, w), rel=1e-11, abs=1e-11)


def test_uniform_ls_slack_zero_function_error():
    g = build_grid(64)
    with pytest.raises(ValueError):
        uniform_ls_slack(g, np.zeros(64))


def test_refinement_convergence_order():
    # each functional approaches its continuum value at order >= 0.9
    case = SmoothRatioCase(0.5, 0.0)
    p = KineticParams(0.5, 0.0)
    eq = BetaEquilibrium.from_params(p)
    exact = {
        "H": case.entropy(),
        "I": case.fisher(),
        "W": case.weighted_l2(),
        "L1": case.l1(),
    }
    ns = (100, 200, 400, 800)
    errs = {k: [] for k in exact}
    for n in ns:
        g = build_grid(n)
        f = _field_from(case.f, g)
        ref = eq.on_grid(g)
        errs["H"].append(abs(relative_entropy(f, ref) - exact["H"]))
        errs["I"].append(abs(weighted_fisher(f, ref, p.lam) - exact["I"]))
        errs["W"].append(abs(weighted_l2(f, ref) - exact["W"]))
        errs["L1"].append(abs(l1_distance(f, ref) - exact["L1"]))
    for name, e in errs.items():
        order = -np.polyfit(np.log(ns), np.log(e), 1)[0]
        assert order >= 0.9, f"{name}: errors {e} give order {order:.2f}"


def _raised_type(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return info.type


def _stack_near_and_far(g, ref, rng, rows):
    # rows far from the reference, plus the reference itself and a small
    # perturbation of it, so the entropy series branch runs on whole rows
    # and on part of a stack
    far = [random_smooth_density(g, rng).values for _ in range(rows)]
    near = ref.values * (1.0 + 1e-3 * np.sin(np.pi * g.centers))
    return np.stack(far + [ref.values, near / (near.sum() * g.cell_width)])


@pytest.mark.parametrize("n", [64, 400])
def test_row_functionals_equal_one_row_calls_bitwise(n):
    g = build_grid(n)
    rng = np.random.default_rng(n)
    p = KineticParams(0.6, 0.2)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    stack = _stack_near_and_far(g, ref, rng, 9)
    fields = [DensityField(g, row) for row in stack]
    assert np.array_equal(entropy_gap(stack, ref.values, g.cell_width),
                          [entropy_gap(row, ref.values, g.cell_width) for row in stack])
    assert np.array_equal(ls_slack_rows(stack, p, ref), [ls_slack(f, p) for f in fields])
    # an explicit reference other than the analytic one
    disc = discretize_equilibrium(p, g)
    assert np.array_equal(ls_slack_rows(stack, p, disc),
                          [ls_slack(f, p, disc) for f in fields])
    ws = np.stack([random_grid_function(g, rng) for _ in range(9)])
    assert np.array_equal(uniform_ls_slack(g, ws), [uniform_ls_slack(g, w) for w in ws])


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (math.inf, ValueError), (-1e-3, ValueError),
    (0.0, PositivityError),
])
def test_row_functionals_reject_a_bad_row_as_the_one_row_path(bad, error):
    g = build_grid(64)
    p = KineticParams(0.6, 0.2)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    stack = _stack_near_and_far(g, ref, np.random.default_rng(1), 4)
    stack[2, 5] = bad

    def one_row(fn):
        return lambda: fn(DensityField(g, stack[2]))

    assert _raised_type(one_row(lambda f: ls_slack(f, p, ref))) is error
    assert _raised_type(lambda: ls_slack_rows(stack, p, ref)) is error
    if error is ValueError:
        assert _raised_type(one_row(lambda f: relative_entropy(f, ref))) is error
    ws = np.stack([random_grid_function(g, np.random.default_rng(2)) for _ in range(3)])
    ws[1] = 0.0
    assert _raised_type(lambda: uniform_ls_slack(g, ws[1])) is ValueError
    assert _raised_type(lambda: uniform_ls_slack(g, ws)) is ValueError
