"""Direct Monte Carlo simulation of the binary-interaction opinion model.

A pair of agents with opinions (x, x*) interacts through

    x'  = x  + g (x* - x) + sqrt(1 - x^2)  eta,
    x*' = x* + g (x  - x*) + sqrt(1 - x*^2) eta*,

with compromise intensity g and i.i.d. zero-mean noise.  Under the
quasi-invariant scaling g -> eps*g, sigma^2 -> eps*sigma^2 with many sweeps,
histograms converge to the Fokker-Planck solution with lam = sigma^2/gamma.

One Nanbu sweep pairs all agents disjointly at random and lets every pair
interact once; interactions that would leave [-1, 1] are rejected (both
agents keep their states), which preserves the range invariant at a bias
of the order of the rejection fraction (counted and reported).

Drawing a sweep's permutation and noise costs about twice its arithmetic,
and neither draw depends on the opinions.  So when the process may run on
more than one CPU, mc_sweeps draws the whole random stream of sweep k + 1
on the one worker of a ThreadPoolExecutor while the caller's thread
computes sweep k; the worker takes its jobs in stream order, so the stream
and every result are the serial schedule's bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (load it with the package, not lazily inside a run)

from .grid import BIMODAL_WIDTH, DensityField, Grid
from .params import KineticParams


@dataclass(frozen=True)
class InteractionParams:
    """Microscopic interaction parameters plus the scaling coefficient.

    lam = sigma2/gamma is the only combination surviving the quasi-invariant
    limit; epsilon controls how close the simulation sits to that limit.

    One unit of Fokker-Planck time is 1/(epsilon*gamma) sweeps: the
    macroscopic equation has unit drift coefficient, and the per-interaction
    drift is epsilon*gamma*(partner - self).  With that clock the histogram
    limit depends on (lam, m) only.
    """

    gamma: float
    sigma2: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.epsilon * self.gamma >= 1.0:
            raise ValueError("scaled compromise epsilon*gamma must stay below 1")

    @classmethod
    def from_kinetic(cls, p: KineticParams, gamma: float,
                     epsilon: float) -> "InteractionParams":
        """Microscopic parameters matching a macroscopic pair (lam, m)."""
        return cls(gamma=gamma, sigma2=p.lam * gamma, epsilon=epsilon)


@dataclass(frozen=True)
class Ensemble:
    """A population of agent opinions plus its owned random stream.

    The generator advances as the ensemble evolves, so an Ensemble belongs
    to a single run; identical seeds reproduce identical trajectories
    bit for bit.
    """

    opinions: np.ndarray = field(repr=False)
    rng: np.random.Generator = field(repr=False, compare=False)
    attempted_pairs: int = 0
    rejected_pairs: int = 0

    def __post_init__(self):
        x = np.asarray(self.opinions, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("opinions must be a nonempty 1-d array")
        _check_range(x)
        object.__setattr__(self, "opinions", x)

    @property
    def size(self) -> int:
        return self.opinions.size

    @property
    def rejection_fraction(self) -> float:
        return self.rejected_pairs / self.attempted_pairs if self.attempted_pairs else 0.0


def _check_range(x: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """Raise ValueError unless every opinion is finite and in [-1, 1].

    The maximum propagates NaN, and NaN <= 1 is false, so one pass catches
    NaN, inf and out-of-range values; with scratch it allocates nothing.
    """
    if not np.abs(x, out=scratch).max() <= 1.0:
        raise ValueError("opinions must lie in [-1, 1]")


def initial_ensemble(n: int, seed: int, kind: str = "bimodal",
                     width: float = BIMODAL_WIDTH) -> Ensemble:
    """Seeded ensemble from a named initial law ("bimodal" or "uniform")."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        x = rng.uniform(-1.0, 1.0, n)
    elif kind == "bimodal":
        centers = np.where(rng.integers(0, 2, n) == 0, -0.5, 0.5)
        x = centers + width * rng.normal(size=n)
        out = np.abs(x) > 1.0
        while np.any(out):  # redraw = hard truncation to (-1, 1)
            k = int(out.sum())
            c = np.where(rng.integers(0, 2, k) == 0, -0.5, 0.5)
            x[out] = c + width * rng.normal(size=k)
            out = np.abs(x) > 1.0
    else:
        raise ValueError(f"unknown initial ensemble kind {kind!r}")
    return Ensemble(opinions=x, rng=rng)


def sample_from_density(f: DensityField, n: int, seed: int) -> Ensemble:
    """Sample agents from a gridded density (piecewise constant per cell)."""
    rng = np.random.default_rng(seed)
    p = f.values / f.values.sum()
    cells = rng.choice(f.grid.n_cells, size=n, p=p)
    lo = f.grid.edges[cells]
    x = lo + rng.uniform(0.0, f.grid.cell_width, n)
    return Ensemble(opinions=np.clip(x, -1.0, 1.0), rng=rng)


def sample_noise(rng: np.random.Generator, sigma2_scaled: float, out: np.ndarray) -> np.ndarray:
    """Fill out with zero-mean noise of variance sigma2_scaled, uniform on a
    bounded support, and return it.

    The law is uniform on [-sqrt(3 s2), sqrt(3 s2)]; bounded support keeps
    boundary rejections rare, which an unbounded law would not.  The draws
    equal rng.uniform's bit for bit.
    """
    if sigma2_scaled < 0.0:
        raise ValueError("noise variance must be nonnegative")
    half = math.sqrt(3.0 * sigma2_scaled)
    if half == 0.0:
        out.fill(0.0)
    else:
        rng.random(out=out)
        out *= 2.0 * half
        out -= half
    return out


def _interact(x, xs, g_s, eta, eta_s, out):
    """The interaction rule on arrays of pairs (x, xs), written into
    out = (x_new, xs_new, ok, ok_s): the new opinions and, in ok, whether both
    stay in [-1, 1] (a pair that would not keeps its states).

    eta and eta_s are overwritten as scratch, and ok_s too.  Each new opinion
    is x + g_s (xs - x) + sqrt(1 - x^2) eta, rounded as that expression
    evaluates left to right; zero-mean noise conserves the expected pair sum.
    """
    x_new, xs_new, ok, ok_s = out
    for new, own, partner, noise, inside in ((x_new, x, xs, eta, ok),
                                             (xs_new, xs, x, eta_s, ok_s)):
        np.multiply(own, own, out=new)
        np.subtract(1.0, new, out=new)
        np.sqrt(new, out=new)
        new *= noise
        np.subtract(partner, own, out=noise)
        noise *= g_s
        noise += own
        new += noise
        np.less_equal(np.abs(new, out=noise), 1.0, out=inside)
    ok &= ok_s


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _shuffle_identity(rng: np.random.Generator, identity: np.ndarray,
                      perm: np.ndarray) -> None:
    """perm = identity shuffled by rng: the permutation rng.shuffle applies
    to any array of that length, as it draws the same for each."""
    np.copyto(perm, identity)
    rng.shuffle(perm)


def mc_sweeps(e: Ensemble, p: InteractionParams, n_sweeps: int):
    """Run n_sweeps Nanbu sweeps from e in place, allocating nothing per sweep.

    Yields (k, opinions, rejected, scratch) after sweep k = 1..n_sweeps:
    the live state, the pairs rejected in sweep k, and a buffer shaped like
    it that the caller may use as scratch.  Both buffers are the caller's
    until the next next(), which checks the state's range (the caller may
    have written to it) and may overwrite either.  Each sweep shuffles the
    state and pairs its two halves: the agents are exchangeable, so that is
    a uniform random perfect matching.  One sweep is one unit of kinetic
    time.  e.opinions is never changed.

    e.rng advances by each sweep's permutation, then its noise, and after
    the last sweep stands where drawing them all in turn leaves it.  With
    more than one usable CPU, a one-worker ThreadPoolExecutor draws sweep
    k + 1's permutation into an index buffer once sweep k has gathered
    through it, and its noise once sweep k's pairs have read the noise
    buffer; the worker runs its jobs in the order they were submitted,
    which is the serial stream order.  The worker is joined, its queued
    draws done, when the generator finishes, is closed or raises: a run
    stopped after sweep k < n_sweeps leaves e.rng exactly k + 1 sweeps on.
    A caller that stops early should close() it, as one left suspended
    keeps its worker waiting until it is collected.  With one CPU, or a
    single sweep, the state is shuffled in place, no thread is started,
    and a run stopped after sweep k leaves e.rng k sweeps on.
    """
    n = e.size
    if n % 2 != 0:
        raise ValueError(f"ensemble size must be even for full pairing, got {n}")
    half = n // 2
    g_s = p.epsilon * p.gamma
    s2_s = p.epsilon * p.sigma2
    # x: the state; old: the shuffled state the sweep starts from
    x = e.opinions.copy()
    old, noise = np.empty(n), np.empty(n)
    ok, ok_s = np.empty(half, dtype=bool), np.empty(half, dtype=bool)
    noise_pairs = noise.reshape(2, half)
    # one sweep, or one CPU, has nothing to overlap the draws with
    executor = contextlib.nullcontext()
    if n_sweeps > 1 and _usable_cpus() > 1:
        # deferred: concurrent.futures loads logging, which in-place runs never need
        from concurrent.futures import ThreadPoolExecutor
        executor = ThreadPoolExecutor(max_workers=1)
        identity = np.arange(n, dtype=np.int32 if n <= 2**31 else np.intp)
        perm = np.empty(n, dtype=np.intp)
    with executor as worker:  # None on the in-place branch
        if worker is not None:
            perm_drawn = worker.submit(_shuffle_identity, e.rng, identity, perm)
            noise_drawn = worker.submit(sample_noise, e.rng, s2_s, noise)
        for k in range(1, n_sweeps + 1):
            _check_range(x, scratch=old)
            if worker is None:
                e.rng.shuffle(x)
                sample_noise(e.rng, s2_s, out=noise)
                x, old = old, x
            else:
                perm_drawn.result()
                # mode="raise" would buffer out: an array of N floats per sweep
                np.take(x, perm, out=old, mode="clip")
                if k < n_sweeps:
                    perm_drawn = worker.submit(_shuffle_identity, e.rng, identity, perm)
                noise_drawn.result()
            # the two contiguous halves as the rows of (2, half) views
            pairs, old_pairs = x.reshape(2, half), old.reshape(2, half)
            _interact(*old_pairs, g_s, *noise_pairs, out=(*pairs, ok, ok_s))
            if worker is not None and k < n_sweeps:
                noise_drawn = worker.submit(sample_noise, e.rng, s2_s, noise)
            rejected = np.logical_not(ok, out=ok)
            np.copyto(pairs, old_pairs, where=rejected)
            yield k, x, int(np.count_nonzero(rejected)), old


def histogram(x: np.ndarray, grid: Grid) -> DensityField:
    """Cell counts of the opinions x over N = x.size, divided by dy: unit
    discrete mass when every opinion lies in [-1, 1]."""
    counts, _ = np.histogram(x, bins=grid.edges)
    return DensityField(grid, counts / (x.size * grid.cell_width))


def moments(x: np.ndarray, scratch: np.ndarray | None = None):
    """Sample mean and unbiased sample variance of opinions x (nan for a
    singleton).  The variance rounds as x.var(ddof=1) does; its squared
    deviations go into scratch, an array shaped like x, when one is given,
    so a caller that passes the same one each time allocates nothing."""
    mean = float(x.mean())
    if x.size < 2:
        return mean, math.nan
    d = np.subtract(x, mean, out=scratch)
    d *= d
    return mean, float(d.sum() / (x.size - 1))
