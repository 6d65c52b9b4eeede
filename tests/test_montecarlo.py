import math
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from opinion_kinetics import montecarlo
from opinion_kinetics.config import whole_steps
from opinion_kinetics.equilibrium import BetaEquilibrium
from opinion_kinetics.functionals import l1_distance
from opinion_kinetics.grid import DensityField, Grid, bimodal_density, uniform_density
from opinion_kinetics.montecarlo import (
    Ensemble,
    InteractionParams,
    _interact,
    histogram,
    mc_sweeps,
    moments,
    sample_from_density,
    sample_noise,
)
from opinion_kinetics.params import KineticParams

# the two preset starts on the README grid: run_mc draws its agents from these
BIMODAL, UNIFORM = bimodal_density(Grid(200)), uniform_density(Grid(200))


def _swept(e, ip, n_sweeps):
    """The ensemble after n_sweeps sweeps from e."""
    for _, x, _, _ in mc_sweeps(e, ip, n_sweeps):
        pass
    return Ensemble(opinions=x, rng=e.rng)


def test_interaction_params_validation():
    with pytest.raises(ValueError):
        InteractionParams(gamma=1.0, sigma2=0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        InteractionParams(gamma=0.5, sigma2=-0.1, epsilon=0.01)
    with pytest.raises(ValueError):
        InteractionParams(gamma=0.5, sigma2=0.1, epsilon=1.5)
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    assert ip.sigma2 / ip.gamma == pytest.approx(0.5)


def test_sample_noise_degenerate():
    rng = np.random.default_rng(0)
    out = np.ones(10)
    assert sample_noise(rng, 0.0, out) is out
    assert np.all(out == 0.0)
    with pytest.raises(ValueError):
        sample_noise(rng, -1.0, out)


def test_sample_noise_moments_and_support():
    rng = np.random.default_rng(42)
    s2 = 0.03
    draws = sample_noise(rng, s2, np.empty(1_000_000))
    assert np.all(np.abs(draws) <= math.sqrt(3 * s2) + 1e-15)
    # mean within 3 sigma/sqrt(N), variance within 1%
    assert abs(draws.mean()) <= 3.0 * math.sqrt(s2 / 1e6)
    assert draws.var() == pytest.approx(s2, rel=0.01, abs=0)


def _interact_pairs(x, xs, g_s, eta, eta_s):
    """_interact on copies of the given pairs, the new opinions written over
    copies of the noise: (x_new, xs_new, ok)."""
    x, xs, eta, eta_s = (np.array(a, dtype=float, ndmin=1) for a in (x, xs, eta, eta_s))
    ok = np.empty(x.shape, dtype=bool)
    _interact(x, xs, g_s, eta, eta_s, np.empty_like(x), ok, np.empty(x.shape, dtype=bool))
    return eta, eta_s, ok


def test_interact_examples():
    # fixed point: identical opinions, no noise
    x, xs, ok = _interact_pairs(0.4, 0.4, 0.3, 0.0, 0.0)
    assert ok[0] and (x[0], xs[0]) == (0.4, 0.4)
    # extremes attract each other; D kills the noise there
    x, xs, ok = _interact_pairs(1.0, -1.0, 0.1, 0.7, -0.7)
    assert ok[0] and (x[0], xs[0]) == pytest.approx((0.8, -0.8))
    # zero-noise interactions conserve the pair sum exactly
    x, xs, ok = _interact_pairs(0.3, -0.8, 0.25, 0.0, 0.0)
    assert ok[0] and x[0] + xs[0] == pytest.approx(0.3 - 0.8, abs=1e-15)


def test_interact_rejection():
    # strong positive noise at an opinion near the boundary leaves the range
    _, _, ok = _interact_pairs(0.999, 0.0, 0.01, 0.9, 0.0)
    assert not ok[0]


def test_interact_mean_conserved_in_expectation():
    # rng.random fills in stream order: row i holds the i-th pair's (eta, eta_s)
    rng = np.random.default_rng(7)
    eta, eta_s = sample_noise(rng, 0.02, np.empty((20000, 2))).T
    x, xs, ok = _interact_pairs(np.full(20000, 0.2), np.full(20000, -0.5), 0.05, eta, eta_s)
    sums = (x + xs)[ok]
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(sums.mean() - (0.2 - 0.5)) <= 3.0 * se


def test_mc_step_pure_compromise_midpoint():
    # eps*gamma = 1/2 with no noise sends both agents to the midpoint
    ip = InteractionParams(gamma=0.5, sigma2=0.0, epsilon=1.0)
    e = Ensemble(opinions=np.array([0.9, -0.3]), rng=np.random.default_rng(0))
    [(k, x, rejected, _)] = mc_sweeps(e, ip, 1)
    assert np.allclose(np.sort(x), [0.3, 0.3], atol=1e-15)
    assert k == 1 and rejected == 0


def test_mc_step_odd_size_error():
    ip = InteractionParams(gamma=0.5, sigma2=0.1, epsilon=0.1)
    e = Ensemble(opinions=np.zeros(3), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        next(mc_sweeps(e, ip, 1))


def test_mc_step_range_invariant_and_rejections():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = sample_from_density(BIMODAL, 20_000, seed=5)
    rejected = 0
    for _, x, rejected_k, _ in mc_sweeps(e, ip, 50):
        assert np.all(np.abs(x) <= 1.0)
        rejected += rejected_k
    assert rejected / (50 * e.size // 2) < 1e-3


def test_mc_step_mean_within_standard_errors():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = sample_from_density(BIMODAL, 50_000, seed=9)
    m0 = moments(e.opinions)[0]
    n_sweeps = 200
    e = _swept(e, ip, n_sweeps)
    # per-sweep noise variance of the ensemble mean is at most eps*sigma2/N
    se = math.sqrt(n_sweeps * ip.epsilon * ip.sigma2 / e.size)
    assert abs(moments(e.opinions)[0] - m0) <= 3.0 * se


def test_determinism_bitwise():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    runs = []
    for _ in range(2):
        e = sample_from_density(BIMODAL, 1000, seed=1234)
        runs.append(_swept(e, ip, 10).opinions)
    assert np.array_equal(runs[0], runs[1])


def test_mc_sweeps_matches_a_plain_reference_loop():
    # the reference writes the pair rule out as one expression: shuffle,
    # pair the contiguous halves, keep both states of a rejected pair
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = sample_from_density(BIMODAL, 1000, seed=21)
    x0 = e.opinions.copy()
    swept = [(k, x.copy(), rejected) for k, x, rejected, _ in mc_sweeps(e, ip, 25)]
    assert np.array_equal(e.opinions, x0)  # the caller's ensemble is unchanged

    rng = sample_from_density(BIMODAL, 1000, seed=21).rng
    g_s, half = ip.epsilon * ip.gamma, x0.size // 2
    x = x0.copy()
    assert [k for k, _, _ in swept] == list(range(1, 26))
    for _, got, rejected in swept:
        rng.shuffle(x)
        eta = sample_noise(rng, ip.epsilon * ip.sigma2, np.empty(x.size))
        a, b = x[:half], x[half:]
        a_new = a + g_s * (b - a) + np.sqrt(1.0 - a * a) * eta[:half]
        b_new = b + g_s * (a - b) + np.sqrt(1.0 - b * b) * eta[half:]
        ok = (np.abs(a_new) <= 1.0) & (np.abs(b_new) <= 1.0)
        x = np.concatenate([np.where(ok, a_new, a), np.where(ok, b_new, b)])
        assert np.array_equal(got, x)
        assert rejected == int((~ok).sum())


@pytest.mark.parametrize("bad", [math.nan, 1.5, math.inf, -math.inf, -1.5],
                         ids=["nan", "above_one", "inf", "minus_inf", "below_minus_one"])
def test_mc_sweeps_rejects_a_buffer_written_out_of_range(bad):
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    sweeps = mc_sweeps(sample_from_density(BIMODAL, 100, seed=3), ip, 3)
    _, x, _, _ = next(sweeps)
    x[17] = bad
    with pytest.raises(ValueError, match=r"opinions must lie in \[-1, 1\]"):
        next(sweeps)


def test_mc_sweeps_pairs_by_a_uniform_perfect_matching():
    # eps*gamma = 1/2 without noise sends each pair to its midpoint, so the
    # smallest opinion after one sweep names the matching of four agents
    ip = InteractionParams(gamma=0.5, sigma2=0.0, epsilon=1.0)
    e = Ensemble(opinions=np.array([-0.8, -0.2, 0.3, 0.9]),
                 rng=np.random.default_rng(17))
    matching = {-0.5: "01|23", -0.25: "02|13", 0.05: "03|12"}
    counts = dict.fromkeys(matching.values(), 0)
    n_runs = 3000
    for _ in range(n_runs):
        [(_, x, _, _)] = mc_sweeps(e, ip, 1)
        counts[matching[round(float(x.min()), 9)]] += 1
    se = math.sqrt(n_runs * (1 / 3) * (2 / 3))
    for count in counts.values():
        assert abs(count - n_runs / 3) <= 5.0 * se


def test_mc_sweeps_allocates_nothing_per_sweep():
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    sweeps = mc_sweeps(sample_from_density(BIMODAL, 100_000, seed=5), ip, 50)
    tracemalloc.start()
    try:
        next(sweeps)
        after_first, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in sweeps:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - after_first < 0.1e6


def test_mc_sweeps_frees_the_sampled_opinions_once_copied():
    # the sweeps keep their copy and the generator: the caller's opinions
    # are never written, and once the caller drops them they are freed
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = sample_from_density(BIMODAL, 1000, seed=5)
    x0, sampled = e.opinions.copy(), weakref.ref(e.opinions)
    sweeps = mc_sweeps(e, ip, 3)
    next(sweeps)
    assert np.array_equal(e.opinions, x0)
    del e
    assert sampled() is None
    assert [k for k, _, _, _ in sweeps] == [2, 3]


def _reference_sweeps(x, rng, ip, n_sweeps):
    """The states and rejection counts of n_sweeps sweeps from x, by the
    plain reference loop of test_mc_sweeps_matches_a_plain_reference_loop."""
    g_s, half = ip.epsilon * ip.gamma, x.size // 2
    for _ in range(n_sweeps):
        rng.shuffle(x)
        eta = sample_noise(rng, ip.epsilon * ip.sigma2, np.empty(x.size))
        a, b = x[:half], x[half:]
        a_new = a + g_s * (b - a) + np.sqrt(1.0 - a * a) * eta[:half]
        b_new = b + g_s * (a - b) + np.sqrt(1.0 - b * b) * eta[half:]
        ok = (np.abs(a_new) <= 1.0) & (np.abs(b_new) <= 1.0)
        x = np.concatenate([np.where(ok, a_new, a), np.where(ok, b_new, b)])
        yield x, int((~ok).sum())


def _host_with_cpus(monkeypatch, cpus):
    """Make the process see `cpus` usable CPUs, however it asks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if hasattr(os, "process_cpu_count"):
        monkeypatch.setattr(os, "process_cpu_count", lambda: cpus)


# A host with one CPU, and one with a CPU to spare, on which the sweeps were
# once drawn ahead on a worker thread: mc_sweeps runs in place on the
# caller's thread on both, with the same stream.
CPUS = pytest.mark.parametrize("cpus", [1, 2], ids=["in_place", "drawn_ahead"])


@CPUS
@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_both_schedules_match_the_reference_loop(monkeypatch, cpus, lam):
    # at lambda = 3 about 7% of the pairs are rejected
    _host_with_cpus(monkeypatch, cpus)
    ip = InteractionParams.from_kinetic(KineticParams(lam, 0.0), gamma=0.5, epsilon=0.01)
    e = sample_from_density(BIMODAL, 1000, seed=21)
    ref = sample_from_density(BIMODAL, 1000, seed=21)
    threads = threading.active_count()
    rejected_total = 0
    sweeps = zip(mc_sweeps(e, ip, 25), _reference_sweeps(ref.opinions, ref.rng, ip, 25),
                 strict=True)
    for (k, got, rejected, scratch), (want, want_rejected) in sweeps:
        assert threading.active_count() == threads
        assert np.array_equal(got, want)
        assert rejected == want_rejected
        assert scratch.shape == got.shape and not np.shares_memory(scratch, got)
        rejected_total += rejected
    assert threading.active_count() == threads
    if lam == 3.0:
        assert rejected_total > 0.01 * 25 * 500
    # the stream ends where the serial draws leave it
    assert e.rng.random() == ref.rng.random()


def test_interleaved_runs_under_fast_thread_switching():
    # four runs at once on another thread, with the interpreter switching
    # threads every microsecond: a run that shared state with another would
    # change a state or hang, so the consumer gets a deadline
    ip = InteractionParams.from_kinetic(KineticParams(3.0, 0.0), gamma=0.5, epsilon=0.01)
    finals, errors = [], []

    def consume():
        try:
            runs = [mc_sweeps(sample_from_density(BIMODAL, 1000, seed=s), ip, 20)
                    for s in range(4)]
            for states in zip(*runs):
                last = [x.copy() for _, x, _, _ in states]
            finals.extend(last)
        except BaseException as exc:  # reported by the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not consumer.is_alive() and errors == []
    for seed, got in enumerate(finals):
        ref = sample_from_density(BIMODAL, 1000, seed=seed)
        *_, (want, _) = _reference_sweeps(ref.opinions, ref.rng, ip, 20)
        assert np.array_equal(got, want)


@CPUS
def test_a_noise_error_comes_out_of_next(monkeypatch, cpus):
    _host_with_cpus(monkeypatch, cpus)
    calls = []

    def failing_noise(rng, s2, out):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("noise source failed")
        return sample_noise(rng, s2, out)

    monkeypatch.setattr(montecarlo, "sample_noise", failing_noise)
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    threads = threading.active_count()
    sweeps = mc_sweeps(sample_from_density(BIMODAL, 1000, seed=4), ip, 10)
    assert [next(sweeps)[0] for _ in range(2)] == [1, 2]
    with pytest.raises(RuntimeError, match="noise source failed"):
        next(sweeps)
    assert len(calls) == 3
    assert threading.active_count() == threads


def test_closing_mc_sweeps_early_joins_the_worker(monkeypatch):
    # there is no worker to join, even with a CPU to spare: no thread runs
    # while the sweeps are suspended, and none is left after close
    _host_with_cpus(monkeypatch, 2)
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    threads = threading.active_count()
    sweeps = mc_sweeps(sample_from_density(BIMODAL, 1000, seed=4), ip, 50)
    next(sweeps)
    assert threading.active_count() == threads
    sweeps.close()
    assert threading.active_count() == threads


@CPUS
def test_closing_mc_sweeps_early_leaves_a_whole_number_of_sweeps_drawn(monkeypatch, cpus):
    # nothing is drawn ahead: closed after sweep 3, the stream is 3 sweeps on
    _host_with_cpus(monkeypatch, cpus)
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    e = sample_from_density(BIMODAL, 100_000, seed=8)
    ref = sample_from_density(BIMODAL, 100_000, seed=8)
    threads = threading.active_count()
    sweeps = mc_sweeps(e, ip, 10)
    for _ in range(3):
        next(sweeps)
    assert threading.active_count() == threads
    sweeps.close()
    x, noise = np.empty(ref.size), np.empty(ref.size)
    for _ in range(3):
        ref.rng.shuffle(x)
        sample_noise(ref.rng, ip.epsilon * ip.sigma2, out=noise)
    assert e.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("n_sweeps", [0, 1])
def test_mc_sweeps_with_nothing_to_overlap_starts_no_thread(n_sweeps):
    ip = InteractionParams.from_kinetic(KineticParams(0.5, 0.0), gamma=0.5, epsilon=0.01)
    threads = threading.active_count()
    sweeps = mc_sweeps(sample_from_density(BIMODAL, 1000, seed=4), ip, n_sweeps)
    assert [k for k, _, _, _ in sweeps] == list(range(1, n_sweeps + 1))
    assert threading.active_count() == threads


def test_histogram_point_mass_and_mass():
    g = Grid(4)
    h = histogram(np.zeros(100), g)
    assert h.mass() == pytest.approx(1.0, abs=1e-15)
    # all mass in the cell containing 0 (0 falls in the third cell [0, 0.5))
    assert h.values[2] == pytest.approx(1.0 / g.cell_width)
    assert np.all(h.values[[0, 1, 3]] == 0.0)
    # endpoints land in the outermost cells
    assert histogram(np.array([-1.0, 1.0]), g).mass() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 3 * 8192 + 5, 100_000])
def test_histogram_counts_as_numpy_bit_for_bit(n):
    # opinions on every edge, a float either side of each, at -1 and 1, and
    # repeated, among uniform ones, for sizes on either side of a chunk
    g = Grid(50)
    edges = g.edges
    special = np.concatenate([edges, np.nextafter(edges[1:], -2.0), np.nextafter(edges[:-1], 2.0),
                              [-1.0, 1.0, -1.0, 1.0], np.full(40, edges[17]), np.full(40, 0.123)])
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, n)
    at = rng.choice(n, size=min(n, special.size), replace=False)
    x[at] = rng.permutation(special)[:at.size]
    counts = np.histogram(x, bins=edges)[0]
    assert np.array_equal(histogram(x, g).values, counts / (n * g.cell_width))
    assert counts.sum() == n


def test_histogram_uniform_multinomial():
    e = sample_from_density(UNIFORM, 1_000_000, seed=3)
    g = Grid(50)
    h = histogram(e.opinions, g)
    p_cell = g.cell_width / 2.0
    sd = math.sqrt(p_cell * (1 - p_cell) / e.size) / g.cell_width
    assert np.max(np.abs(h.values - 0.5)) <= 5.0 * sd


def test_moments_examples():
    mean, var = moments(np.array([0.3]))
    assert mean == 0.3 and math.isnan(var)
    assert moments(np.array([-1.0, 1.0])) == (0.0, 2.0)


def test_moments_match_numpy_var_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (2, 3, 1000, 100_001):
        x = rng.uniform(-1.0, 1.0, n)
        scratch = np.empty(n)
        want = (float(x.mean()), float(x.var(ddof=1)))
        assert moments(x) == want
        assert moments(x, scratch) == want


def test_quasi_invariant_time_mapping():
    ip = InteractionParams(gamma=0.5, sigma2=0.25, epsilon=0.01)
    assert whole_steps(2.0, ip.epsilon * ip.gamma) == 400
    assert whole_steps(0.0, ip.epsilon * ip.gamma) == 0


def test_pure_compromise_variance_contracts():
    ip = InteractionParams(gamma=0.5, sigma2=0.0, epsilon=0.05)
    e = sample_from_density(UNIFORM, 10_000, seed=13)
    variances = [moments(e.opinions)[1]]
    for _, x, _, _ in mc_sweeps(e, ip, 30):
        variances.append(moments(x)[1])
    assert all(v2 < v1 for v1, v2 in zip(variances, variances[1:]))


def test_long_run_reaches_beta_equilibrium():
    # t_fp = 20 is deep in the stationary regime; the histogram must sit on
    # the Beta state within the statistical budget
    p = KineticParams(0.5, 0.0)
    ip = InteractionParams.from_kinetic(p, gamma=0.5, epsilon=0.02)
    e = sample_from_density(BIMODAL, 50_000, seed=31)
    g = Grid(25)
    e = _swept(e, ip, whole_steps(20.0, ip.epsilon * ip.gamma))
    h = histogram(e.opinions, g)
    eq = BetaEquilibrium.from_params(p).on_grid(g)
    assert l1_distance(h.values, eq) <= 0.05
    # matching moments: variance lam (1-m^2)/(lam+2)
    mean, var = moments(e.opinions)
    assert abs(mean) <= 0.02
    assert var == pytest.approx(p.lam / (p.lam + 2.0), rel=0.05, abs=0)


@pytest.mark.parametrize("start", ["bimodal", "uniform", "file_with_zero_cells"])
def test_sample_from_density_matches_a_plain_reference(start):
    # a cell by its mass, then a uniform offset from its left edge, clipped
    g = Grid(200)
    f = {"bimodal": BIMODAL, "uniform": UNIFORM}.get(start)
    if f is None:  # a file: start, renormalized, with mass on two bumps only
        raw = np.zeros(g.n_cells)
        raw[20:60], raw[150:170] = 1.0, np.linspace(0.5, 3.0, 20)
        f = DensityField(g, raw).normalized()
    n_agents, v = 10_000, f.values
    rng = np.random.default_rng(7)
    want = np.clip(g.edges[rng.choice(g.n_cells, n_agents, p=v / v.sum())]
                   + rng.uniform(0.0, g.cell_width, n_agents), -1.0, 1.0)
    e = sample_from_density(f, n_agents, seed=7)
    assert np.array_equal(e.opinions, want)
    assert e.rng.bit_generator.state == rng.bit_generator.state
    if start == "file_with_zero_cells":
        assert not np.any(histogram(e.opinions, g).values[v == 0.0])


def test_sample_from_density_matches_shape():
    g = Grid(40)
    target = BetaEquilibrium.from_params(KineticParams(0.5, 0.2)).on_grid(g)
    e = sample_from_density(target, 200_000, seed=8)
    h = histogram(e.opinions, g)
    assert l1_distance(h.values, target) <= 0.03
