import math
import tracemalloc
import warnings

import numpy as np
import pytest

from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.functionals import (
    PositivityError,
    _entropy_core,
    entropy_gap,
    l1_distance,
    ls_slack,
    relative_entropy,
    uniform_ls_slack,
    weighted_fisher,
    weighted_l2,
)
from opinion_kinetics.grid import (
    DensityField,
    Grid,
    GridMismatchError,
    bimodal_density,
    random_grid_functions,
    random_smooth_densities,
    uniform_density,
)
from opinion_kinetics.params import KineticParams, RegimeError, log_sobolev_constant
from opinion_kinetics.runners import default_ls_grid
from opinion_kinetics.solver import discretize_equilibrium

from oracles import (
    SmoothRatioCase,
    discrete_ls_slack,
    discrete_relative_entropy,
    discrete_weighted_fisher,
    entropy_kernel,
)


def _field_from(fn, grid):
    return DensityField(grid, fn(grid.centers)).normalized()


def test_relative_entropy_identity():
    g = Grid(100)
    f = bimodal_density(g)
    assert relative_entropy(f.values, f) == 0.0


def test_relative_entropy_boundary_singular_reference():
    # Uniform data against the lam=0.5 Beta state: H = 2 - log 6 in the
    # continuum.  The reference's log has endpoint singularities, so the
    # midpoint sum converges only at first order: about 1.7e-3 off at
    # n = 400, halving with each refinement.
    exact = 2.0 - math.log(6.0)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0))
    gaps = []
    for n in (200, 400, 800):
        g = Grid(n)
        h = relative_entropy(uniform_density(g).values, eq.on_grid(g))
        assert h > 0.0
        gaps.append(abs(h - exact))
    assert gaps[1] <= 2.5e-3
    order = -np.polyfit(np.log([200, 400, 800]), np.log(gaps), 1)[0]
    assert order > 0.9


def test_relative_entropy_smooth_ratio_oracle():
    case = SmoothRatioCase(0.5, 0.0)
    g = Grid(400)
    f = _field_from(case.f, g)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert relative_entropy(f.values, eq) == pytest.approx(case.entropy(), abs=1e-4)


def test_relative_entropy_absolute_continuity():
    g = Grid(10)
    f = uniform_density(g)
    gv = np.full(10, 1.0 / 1.8)
    gv[0] = 0.0
    with pytest.raises(PositivityError):
        relative_entropy(f.values, DensityField(g, gv))


@pytest.mark.parametrize("fn", [entropy_gap, relative_entropy])
def test_entropy_functionals_need_a_strictly_positive_reference(fn):
    # a zero cell of the reference raises, for a row and for a stack, even
    # where f vanishes with it
    g = Grid(10)
    gv = np.full(10, 1.0 / 1.8)
    gv[0] = 0.0
    ref = DensityField(g, gv)
    same_support = gv.copy()
    for values in (uniform_density(g).values, same_support,
                   np.stack([uniform_density(g).values, same_support])):
        with pytest.raises(PositivityError):
            fn(values, ref)


def test_relative_entropy_nonnegative_on_random_pairs():
    rng = np.random.default_rng(5)
    g = Grid(100)
    for _ in range(200):
        f, h = (DensityField(g, v) for v in random_smooth_densities(g, rng, 2))
        assert relative_entropy(f.values, h) >= -1e-12


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
    assert h[4] == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15, abs=0)


def test_entropy_gap_temporaries_on_a_block():
    # a 50-row block at n = 200 as the solver scores it late in a decay:
    # 98% of the cells within 1% of the steady state, where the series
    # takes over.  Besides the ratio, the kernel keeps u = r - 1, the
    # result and a copy of u on the series cells (about 4.1 blocks of
    # 80 kB); r log r - r + 1 with a temporary per operation took 5.1.
    g = Grid(200)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    rng = np.random.default_rng(3)
    ratio = 1.0 + rng.uniform(-0.009, 0.009, (50, g.n_cells))
    ratio[rng.random(ratio.shape) < 0.02] = 1.5
    block = eq.values * ratio
    entropy_gap(block, eq)
    tracemalloc.start()
    try:
        gap = entropy_gap(block, eq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap.shape == (50,) and np.all(gap > 0.0)
    assert peak < 4.5 * block.nbytes


def test_weighted_fisher_zero_at_equilibrium():
    p = KineticParams(0.5, 0.2)
    g = Grid(300)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert weighted_fisher(eq.values, eq, p.lam) <= 1e-20


def test_weighted_fisher_smooth_ratio_oracle():
    case = SmoothRatioCase(0.5, 0.0)
    g = Grid(400)
    f = _field_from(case.f, g)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert weighted_fisher(f.values, eq, 0.5) == pytest.approx(case.fisher(), rel=1e-3, abs=0)


def test_weighted_fisher_linear_in_prefactor():
    g = Grid(200)
    rng = np.random.default_rng(3)
    f = DensityField(g, random_smooth_densities(g, rng, 1)[0])
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert weighted_fisher(f.values, eq, 1.0) == pytest.approx(
        2.0 * weighted_fisher(f.values, eq, 0.5), rel=1e-15, abs=0)


def test_weighted_fisher_positivity_error():
    g = Grid(10)
    f = DensityField(g, np.where(np.arange(10) == 4, 0.0, 1.0)).normalized()
    eq = BetaEquilibrium.from_params(KineticParams(1.0, 0.0)).on_grid(g)
    with pytest.raises(PositivityError):
        weighted_fisher(f.values, eq, 1.0)


def _near_row(ref):
    v = ref.values * (1.0 + 1e-6 * np.sin(3.0 * ref.grid.centers))
    return v / (v.sum() * ref.grid.cell_width)


def _oracle_cases(kind):
    """(params, reference, far rows, near rows) at n = 400."""
    g = Grid(400)
    if kind == "near":
        for lam, m in ((0.6, 0.2), (1.0, 0.0), (0.3, -0.4), (1.5, 0.1)):
            ref = BetaEquilibrium.from_params(KineticParams(lam, m)).on_grid(g)
            yield KineticParams(lam, m), ref, np.empty((0, 400)), _near_row(ref)[None, :]
        return
    p = KineticParams(0.6, 0.2) if kind == "far" else KineticParams(0.02, -0.5)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    rng = np.random.default_rng(21 if kind == "far" else 22)
    near = _near_row(ref)[None, :] if kind == "small_lambda" else np.empty((0, 400))
    yield p, ref, random_smooth_densities(g, rng, 6), near


@pytest.mark.parametrize("kind", ["far", "near", "small_lambda"])
def test_weighted_fisher_and_ls_slack_match_a_50_digit_oracle(kind):
    # Far rows keep about 1e-15 relative in I and in the slack.  Near the
    # steady state (f = g (1 + 1e-6 sin 3y)) the log ratio's interface
    # differences are ~1e-8, so its last-bit rounding gives 1e-12 to
    # 1.2e-10 relative in I (the larger at lam = 0.02), whether it is
    # log(f/g) or log f - log g; there the slack, ~1e-13 for H ~ 1e-13,
    # is held to one ulp of the unit mass (the entropy's own bound is in
    # test_relative_entropy_matches_a_50_digit_oracle).
    for p, ref, far, near in _oracle_cases(kind):
        g, k = ref.grid, log_sobolev_constant(p)
        for rows, fisher_rel, slack_bound in ((far, 4e-15, None), (near, 2.5e-10, 2.2e-16)):
            if not len(rows):
                continue
            fisher, slack = weighted_fisher(rows, ref, p.lam), ls_slack(rows, [(ref, p)])[0]
            for f, got_i, got_s in zip(rows, fisher, slack):
                want_i = discrete_weighted_fisher(f, ref.values, g.interior_interfaces,
                                                  g.cell_width, p.lam)
                want_s = discrete_ls_slack(f, ref.values, g.interior_interfaces,
                                           g.cell_width, p.lam, k)
                assert abs(got_i - want_i) <= fisher_rel * want_i
                bound = 4e-15 * abs(want_s) if slack_bound is None else slack_bound
                assert abs(got_s - want_s) <= bound


@pytest.mark.parametrize("lam, m", [(1.0, 0.0), (0.5, 0.3), (1.6, 0.0)])
def test_relative_entropy_matches_a_50_digit_oracle(lam, m):
    # Near the steady state (f = g (1 + 1e-6 sin 3y), H ~ 2e-13) the direct
    # sum f log(f/g) dy is off by 2e-24 to 7.5e-18; the Bregman sum plus
    # the mass term (sum f - sum g) dy was off by 2.2e-18, 3.4e-17 and
    # 1.4e-16, the mass term's rounding.  K * weighted_fisher - ls_slack
    # recovers the same H.  Far rows keep 4e-15 relative in both (3.4e-15
    # for K I - slack at lam = 1.6, where K I is 3 H).
    g = Grid(400)
    p = KineticParams(lam, m)
    k = log_sobolev_constant(p)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    far = random_smooth_densities(g, np.random.default_rng(21), 6)
    rows = np.vstack([_near_row(ref), far])
    h = relative_entropy(rows, ref)
    h_from_slack = k * weighted_fisher(rows, ref, lam) - ls_slack(rows, [(ref, p)])[0]
    for i, f in enumerate(rows):
        want = discrete_relative_entropy(f, ref.values, g.cell_width)
        bound = 2e-17 if i == 0 else 4e-15 * want
        assert abs(h[i] - want) <= bound
        assert abs(h_from_slack[i] - want) <= bound


def test_relative_entropy_contract_on_rows_and_stacks():
    g = Grid(64)
    ref = BetaEquilibrium.from_params(KineticParams(0.6, 0.2)).on_grid(g)
    far = random_smooth_densities(g, np.random.default_rng(4), 3)
    zeros, negative = far[0].copy(), far[1].copy()
    zeros[[0, 7, 63]] = 0.0
    negative[5] = -1e-3
    stack = np.vstack([ref.values, zeros, negative, far[2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = relative_entropy(stack, ref)
        rows = [relative_entropy(row, ref) for row in stack]
    assert all(type(x) is float for x in rows)
    assert np.array_equal(h, rows, equal_nan=True)
    # f == ref is exactly 0; a zero cell adds 0 log 0 = 0; a negative value is NaN
    assert rows[0] == 0.0
    assert relative_entropy(np.vstack([ref.values] * 2), ref).tolist() == [0.0, 0.0]
    want = discrete_relative_entropy(zeros, ref.values, g.cell_width)
    assert abs(rows[1] - want) <= 2e-15 * want
    assert math.isnan(rows[2]) and math.isfinite(rows[3])
    # a reference that vanishes on a cell raises, for a row and a stack
    gv = ref.values.copy()
    gv[[0, 7]] = 0.0
    vanishing = DensityField(g, gv)
    with pytest.raises(PositivityError):
        relative_entropy(far[2], vanishing)
    with pytest.raises(PositivityError):
        relative_entropy(stack[[1, 3]], vanishing)


@pytest.mark.parametrize("n", [64, 400])
def test_ls_slack_is_k_fisher_minus_relative_entropy_bitwise(n):
    g = Grid(n)
    p = KineticParams(0.6, 0.2)
    k = log_sobolev_constant(p)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    stack = _stack_near_and_far(g, ref, np.random.default_rng(n + 1), 9)
    for r in (ref, discretize_equilibrium(p, g)):
        for f in [*stack, stack]:
            assert np.array_equal(ls_slack(f, [(r, p)])[0],
                                  k * weighted_fisher(f, r, p.lam) - relative_entropy(f, r))


def test_divergent_continuum_cases_grow_under_refinement():
    # Uniform data against a boundary-vanishing state has infinite continuum
    # Fisher information and weighted L2; the discrete values must be finite
    # at every n but increase without bound as the grid resolves the boundary.
    p = KineticParams(0.5, 0.0)
    eq = BetaEquilibrium.from_params(p)
    fishers, wl2s = [], []
    for n in (100, 400, 1600):
        g = Grid(n)
        u = uniform_density(g)
        fishers.append(weighted_fisher(u.values, eq.on_grid(g), p.lam))
        wl2s.append(weighted_l2(u.values, eq.on_grid(g)))
    assert all(math.isfinite(x) for x in fishers + wl2s)
    assert fishers[0] < fishers[1] < fishers[2]
    assert wl2s[0] < wl2s[1] < wl2s[2]


def test_weighted_l2_zero_at_equilibrium():
    p = KineticParams(0.7, 0.1)
    g = Grid(128)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert weighted_l2(eq.values, eq) == 0.0


def test_weighted_l2_polynomial_case():
    # f = Beta(0.5, 0) against the uniform state: integrand is a polynomial
    # with exact integral 1/5.
    g = Grid(400)
    f = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    uni = BetaEquilibrium.from_params(KineticParams(1.0, 0.0)).on_grid(g)
    assert weighted_l2(f.values, uni) == pytest.approx(0.2, abs=1e-4)


def test_weighted_l2_smooth_ratio_oracle():
    case = SmoothRatioCase(0.5, 0.0)
    g = Grid(400)
    f = _field_from(case.f, g)
    eq = BetaEquilibrium.from_params(KineticParams(0.5, 0.0)).on_grid(g)
    assert weighted_l2(f.values, eq) == pytest.approx(case.weighted_l2(), abs=1e-4)


def test_cauchy_schwarz_chain():
    rng = np.random.default_rng(11)
    p = KineticParams(0.5, 0.0)
    g = Grid(200)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    for _ in range(100):
        f = DensityField(g, random_smooth_densities(g, rng, 1)[0])
        assert l1_distance(f.values, eq) ** 2 <= weighted_l2(f.values, eq) * (1.0 + 1e-12)


def test_l1_examples():
    g = Grid(100)
    f = bimodal_density(g)
    assert l1_distance(f.values, f) == 0.0
    left = np.where(g.centers < 0.0, 1.0, 0.0)
    right = np.where(g.centers > 0.0, 1.0, 0.0)
    fl = DensityField(g, left).normalized()
    fr = DensityField(g, right).normalized()
    assert l1_distance(fl.values, fr) == pytest.approx(2.0, abs=1e-12)


def test_l1_brute_force_oracle():
    rng = np.random.default_rng(2)
    g = Grid(64)
    f, h = (DensityField(g, v) for v in random_smooth_densities(g, rng, 2))
    brute = math.fsum(abs(a - b) for a, b in zip(f.values, h.values)) * g.cell_width
    # summation order differs (pairwise vs exact), so agreement is ulp-scale
    assert l1_distance(f.values, h) == pytest.approx(brute, rel=5e-16, abs=0)


def _ckp_slack(values, ref):
    """The Csiszar-Kullback-Pinsker slack 2 H(f, g) - ||f - g||_1^2."""
    return 2.0 * relative_entropy(values, ref) - l1_distance(values, ref) ** 2


def test_ckp_slack():
    # Pinsker: nonnegative for every pair of unit-mass fields
    g = Grid(100)
    f = bimodal_density(g)
    assert _ckp_slack(f.values, f) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(300):
        a, b = (DensityField(g, v) for v in random_smooth_densities(g, rng, 2))
        assert _ckp_slack(a.values, b) >= -1e-10
    # against a reference that vanishes on some cells the entropy side
    # raises, for a row and for a stack
    left = DensityField(g, np.where(g.centers < 0.0, 1.0, 0.0)).normalized()
    right = DensityField(g, np.where(g.centers > 0.0, 1.0, 0.0)).normalized()
    with pytest.raises(PositivityError):
        _ckp_slack(left.values, right)
    with pytest.raises(PositivityError):
        _ckp_slack(np.stack([right.values, left.values]), right)
    assert np.all(_ckp_slack(np.stack([right.values, left.values]), f) >= -1e-10)


def test_ls_slack_zero_at_equilibrium():
    p = KineticParams(0.5, 0.0)
    g = Grid(400)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert ls_slack(eq.values, [(eq, p)])[0] == 0.0


def test_ls_slack_bimodal_positive():
    p = KineticParams(0.5, 0.0)
    phi = bimodal_density(Grid(400))
    assert ls_slack(phi.values, [(BetaEquilibrium.from_params(p).on_grid(phi.grid), p)])[0] > 0.0


def test_ls_slack_regime_error():
    phi = bimodal_density(Grid(100))
    with pytest.raises(RegimeError):
        ls_slack(phi.values, [(uniform_density(phi.grid), KineticParams(1.9, 0.5))])


def test_uniform_ls_slack_equality_case():
    g = Grid(256)
    w = np.full(g.n_cells, 1.0 / math.sqrt(2.0))
    assert uniform_ls_slack(w, g) == pytest.approx(0.0, abs=1e-15)


def test_uniform_ls_slack_linear_case():
    # w = (1+x)/sqrt(8/3) has unit norm; slack is 5/3 - log 3 exactly.
    g = Grid(400)
    w = (1.0 + g.centers) / math.sqrt(8.0 / 3.0)
    assert uniform_ls_slack(w, g) == pytest.approx(5.0 / 3.0 - math.log(3.0), abs=1e-4)


def test_uniform_ls_slack_quadratic_scaling():
    g = Grid(200)
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_grid_functions(g, rng, 1)[0]
        assert uniform_ls_slack(2.0 * w, g) == pytest.approx(
            4.0 * uniform_ls_slack(w, g), rel=1e-11, abs=1e-11)


def test_uniform_ls_slack_zero_function_error():
    g = Grid(64)
    with pytest.raises(ValueError):
        uniform_ls_slack(np.zeros(64), g)


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
        g = Grid(n)
        f = _field_from(case.f, g)
        ref = eq.on_grid(g)
        errs["H"].append(abs(relative_entropy(f.values, ref) - exact["H"]))
        errs["I"].append(abs(weighted_fisher(f.values, ref, p.lam) - exact["I"]))
        errs["W"].append(abs(weighted_l2(f.values, ref) - exact["W"]))
        errs["L1"].append(abs(l1_distance(f.values, ref) - exact["L1"]))
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
    far = list(random_smooth_densities(g, rng, rows))
    near = ref.values * (1.0 + 1e-3 * np.sin(np.pi * g.centers))
    return np.stack(far + [ref.values, near / (near.sum() * g.cell_width)])


def _battery_points(g):
    # the (reference, params) pairs of the default log-Sobolev battery
    params = [KineticParams(lv, mv) for lv, mv in default_ls_grid()]
    return [(BetaEquilibrium.from_params(p).on_grid(g), p) for p in params]


@pytest.mark.parametrize("n", [64, 400])
def test_row_functionals_equal_one_row_calls_bitwise(n):
    g = Grid(n)
    rng = np.random.default_rng(n)
    p = KineticParams(0.6, 0.2)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    stack = _stack_near_and_far(g, ref, rng, 9)
    # the analytic reference and the discrete one
    for r in (ref, discretize_equilibrium(p, g)):
        for fn in (entropy_gap, relative_entropy, weighted_l2, l1_distance, _ckp_slack,
                   lambda v, r: weighted_fisher(v, r, p.lam)):
            got = fn(stack, r)
            assert got.shape == (len(stack),)
            rows = [fn(row, r) for row in stack]
            assert all(type(x) is float for x in rows)
            assert np.array_equal(got, rows)
        # ls_slack gives one array per point: a row's is shaped (points,)
        got = ls_slack(stack, [(r, p)])
        assert got.shape == (1, len(stack))
        rows = [ls_slack(row, [(r, p)]) for row in stack]
        assert all(x.shape == (1,) for x in rows)
        assert np.array_equal(got, np.stack(rows, axis=1))
    ws = random_grid_functions(g, rng, 9)
    assert np.array_equal(uniform_ls_slack(ws, g), [uniform_ls_slack(w, g) for w in ws])


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (math.inf, ValueError), (-1e-3, ValueError),
    (0.0, PositivityError),
])
def test_row_functionals_reject_a_bad_row_as_the_one_row_path(bad, error):
    g = Grid(64)
    p = KineticParams(0.6, 0.2)
    ref = BetaEquilibrium.from_params(p).on_grid(g)
    stack = _stack_near_and_far(g, ref, np.random.default_rng(1), 4)
    stack[2, 5] = bad

    def one_row(fn):
        return lambda: fn(DensityField(g, stack[2]))

    assert _raised_type(one_row(lambda f: ls_slack(f.values, [(ref, p)]))) is error
    assert _raised_type(lambda: ls_slack(stack, [(ref, p)])) is error
    assert _raised_type(lambda: ls_slack(stack, _battery_points(g))) is error
    assert _raised_type(one_row(lambda f: weighted_fisher(f.values, ref, p.lam))) is error
    assert _raised_type(lambda: weighted_fisher(stack, ref, p.lam)) is error
    if error is ValueError:
        assert _raised_type(one_row(lambda f: relative_entropy(f.values, ref))) is error
    ws = random_grid_functions(g, np.random.default_rng(2), 3)
    ws[1] = 0.0
    assert _raised_type(lambda: uniform_ls_slack(ws[1], g)) is ValueError
    assert _raised_type(lambda: uniform_ls_slack(ws, g)) is ValueError


@pytest.mark.parametrize("n", [4, 400])
@pytest.mark.parametrize("rows", [1, 7, 25])
def test_ls_slack_at_many_points_equals_one_point_calls_bitwise(n, rows):
    g = Grid(n)
    points = _battery_points(g)
    stack = random_smooth_densities(g, np.random.default_rng(n + rows), rows)
    got = ls_slack(stack, points)
    assert got.shape == (45, rows)
    assert np.array_equal(got, [ls_slack(stack, [(ref, p)])[0] for ref, p in points])
    row = ls_slack(stack[0], points)
    assert row.shape == (45,)
    assert np.array_equal(row, [ls_slack(stack[0], [(ref, p)])[0] for ref, p in points])


def test_ls_slack_at_many_points_checks_a_nan_before_a_negative_value():
    g = Grid(64)
    points = _battery_points(g)
    stack = random_smooth_densities(g, np.random.default_rng(6), 4)
    stack[1, 3], stack[2, 5] = -1e-3, math.nan
    for fn in (lambda: ls_slack(stack, points), lambda: ls_slack(stack, points[:1])):
        with pytest.raises(ValueError, match="must be finite"):
            fn()


def test_ls_slack_at_many_points_rejects_an_inadmissible_point():
    g = Grid(64)
    bad = KineticParams(1.9, 0.5)
    points = [*_battery_points(g)[:3], (uniform_density(g), bad)]
    stack = random_smooth_densities(g, np.random.default_rng(7), 4)
    with pytest.raises(RegimeError):
        ls_slack(stack, points)
    # the constant is taken before the values are checked, as at one point
    stack[2, 5] = math.nan
    assert _raised_type(lambda: ls_slack(stack, points)) is RegimeError
    assert _raised_type(lambda: ls_slack(stack, [(uniform_density(g), bad)])) is RegimeError


def test_each_functional_takes_an_empty_stack():
    p = KineticParams(0.6, 0.2)
    ref = BetaEquilibrium.from_params(p).on_grid(Grid(64))
    empty = np.empty((0, 64))
    for fn in (entropy_gap, relative_entropy, weighted_l2, l1_distance,
               lambda v, r: weighted_fisher(v, r, p.lam), lambda v, r: ls_slack(v, [(r, p)])[0],
               lambda v, r: uniform_ls_slack(v, r.grid)):
        got = fn(empty, ref)
        assert isinstance(got, np.ndarray) and got.shape == (0,)


@pytest.mark.parametrize("fn", [
    entropy_gap, relative_entropy, weighted_l2, l1_distance, _ckp_slack,
    lambda v, ref: weighted_fisher(v, ref, 0.6),
    lambda v, ref: ls_slack(v, [(ref, KineticParams(0.6, 0.2))])[0],
    lambda v, ref: uniform_ls_slack(v, ref.grid),
], ids=["entropy_gap", "relative_entropy", "weighted_l2", "l1_distance", "ckp_slack",
        "weighted_fisher", "ls_slack", "uniform_ls_slack"])
@pytest.mark.parametrize("shape", [(63,), (65,), (3, 63)])
def test_each_functional_rejects_values_of_another_width(fn, shape):
    ref = BetaEquilibrium.from_params(KineticParams(0.6, 0.2)).on_grid(Grid(64))
    with pytest.raises(GridMismatchError):
        fn(np.full(shape, 0.5), ref)
