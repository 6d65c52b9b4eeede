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

A run's agents are drawn from a gridded density, piecewise constant per
cell (sample_from_density); run_mc passes the density its Fokker-Planck
reference starts from, so both sides start from one law.

A sweep shuffles the opinion buffer in place and draws its noise on the
caller's thread, starting no thread, whatever the number of CPUs: drawing
the next sweep on a worker thread while this one computes is slower at
N = 1e5, as the worker's shuffle of an index buffer costs more than the
in-place one.  A run holds two opinion-sized buffers and one half-size
scratch: the noise is drawn into the buffer the new states go to, and the
pair rule writes them over it.  Sampling and histograms hold no further
ensemble-sized array.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # noqa: F401  (load it with the package, not lazily inside a run)

from ._frozen import Frozen, Value
from .grid import DensityField, Grid
from .params import KineticParams


class InteractionParams(Value):
    """Microscopic interaction parameters plus the scaling coefficient.

    lam = sigma2/gamma is the only combination surviving the quasi-invariant
    limit; epsilon controls how close the simulation sits to that limit.

    One unit of Fokker-Planck time is 1/(epsilon*gamma) sweeps: the
    macroscopic equation has unit drift coefficient, and the per-interaction
    drift is epsilon*gamma*(partner - self).  With that clock the histogram
    limit depends on (lam, m) only.  Immutable; equal parameters compare
    equal and hash alike.
    """

    _fields = ("gamma", "sigma2", "epsilon")

    def __init__(self, gamma: float, sigma2: float, epsilon: float):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        if sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        self.__dict__.update(gamma=gamma, sigma2=sigma2, epsilon=epsilon)

    @classmethod
    def from_kinetic(cls, p: KineticParams, gamma: float,
                     epsilon: float) -> "InteractionParams":
        """Microscopic parameters matching a macroscopic pair (lam, m)."""
        return cls(gamma=gamma, sigma2=p.lam * gamma, epsilon=epsilon)


class Ensemble(Frozen):
    """A population of agent opinions plus its owned random stream.

    The generator advances as the ensemble evolves, so an Ensemble belongs
    to a single run; identical seeds reproduce identical trajectories
    bit for bit.  Immutable; it compares and hashes by identity, as it
    holds an array.
    """

    def __init__(self, opinions: np.ndarray, rng: np.random.Generator,
                 attempted_pairs: int = 0, rejected_pairs: int = 0):
        x = np.asarray(opinions, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("opinions must be a nonempty 1-d array")
        _check_range(x)
        self.__dict__.update(opinions=x, rng=rng, attempted_pairs=attempted_pairs,
                             rejected_pairs=rejected_pairs)

    @property
    def size(self) -> int:
        return self.opinions.size

    @property
    def rejection_fraction(self) -> float:
        return self.rejected_pairs / self.attempted_pairs if self.attempted_pairs else 0.0


def _check_range(x: np.ndarray) -> None:
    """Raise ValueError unless every opinion is finite and in [-1, 1].

    min and max propagate NaN, and every comparison with NaN is false, so
    two reads that allocate nothing catch NaN, inf and out-of-range values.
    """
    if not (x.min() >= -1.0 and x.max() <= 1.0):
        raise ValueError("opinions must lie in [-1, 1]")


def sample_from_density(f: DensityField, n: int, seed: int) -> Ensemble:
    """n agents drawn by seed from a gridded density, piecewise constant per
    cell: a cell by its mass, then a uniform offset from its left edge.  Built
    in place, with the roundings of clip(edge + offset, -1, 1), holding at
    most two arrays of n values at once."""
    rng = np.random.default_rng(seed)
    p = f.values / f.values.sum()
    x = f.grid.edges[rng.choice(f.grid.n_cells, size=n, p=p)]
    x += rng.uniform(0.0, f.grid.cell_width, n)
    np.clip(x, -1.0, 1.0, out=x)
    return Ensemble(opinions=x, rng=rng)


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


def _interact(x, xs, g_s, new, new_s, scratch, ok, ok_s):
    """The interaction rule on arrays of pairs (x, xs), written over their
    noise: new and new_s hold eta and eta_s on entry and the new opinions on
    return, and ok whether both stay in [-1, 1] (a pair that would not
    keeps its states).

    scratch, shaped like x, and ok_s are overwritten.  Each new opinion is
    x + g_s (xs - x) + sqrt(1 - x^2) eta, rounded as that expression
    evaluates left to right; zero-mean noise conserves the expected pair sum.
    """
    for new, own, partner, inside in ((new, x, xs, ok), (new_s, xs, x, ok_s)):
        np.multiply(own, own, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch *= new
        np.subtract(partner, own, out=new)
        new *= g_s
        new += own
        new += scratch
        np.less_equal(np.abs(new, out=scratch), 1.0, out=inside)
    ok &= ok_s


def mc_sweeps(e: Ensemble, p: InteractionParams, n_sweeps: int):
    """Run n_sweeps Nanbu sweeps from e in place, allocating nothing per sweep.

    Yields (k, opinions, rejected, scratch) after sweep k = 1..n_sweeps:
    the live state, the pairs rejected in sweep k, and a buffer shaped like
    it that the caller may use as scratch.  Both buffers are the caller's
    until the next next(), which checks the state's range (the caller may
    have written to it) and may overwrite either.  Each sweep shuffles the
    state and pairs its two halves: the agents are exchangeable, so that is
    a uniform random perfect matching.  One sweep is one unit of kinetic
    time.  e.opinions is never changed; once copied, it is no longer held,
    so a caller that drops e frees it.

    e.rng advances by each sweep's permutation, then its noise: a run stopped
    after sweep k, or closed there, leaves it exactly k sweeps on.
    """
    n = e.size
    if n % 2 != 0:
        raise ValueError(f"ensemble size must be even for full pairing, got {n}")
    half = n // 2
    g_s = p.epsilon * p.gamma
    s2_s = p.epsilon * p.sigma2
    # x: the state; new: the sweep's noise, then the new states over it
    x, rng = e.opinions.copy(), e.rng
    del e
    new, scratch = np.empty(n), np.empty(half)
    ok, ok_s = np.empty(half, dtype=bool), np.empty(half, dtype=bool)
    for k in range(1, n_sweeps + 1):
        _check_range(x)
        rng.shuffle(x)
        sample_noise(rng, s2_s, out=new)
        # the two contiguous halves as the rows of (2, half) views
        pairs, new_pairs = x.reshape(2, half), new.reshape(2, half)
        _interact(*pairs, g_s, *new_pairs, scratch, ok, ok_s)
        rejected = np.logical_not(ok, out=ok)
        np.copyto(new_pairs, pairs, where=rejected)
        x, new = new, x
        yield k, x, int(np.count_nonzero(rejected)), new


# Opinions per np.histogram call: its sort blocks stay at 64 kB
_HISTOGRAM_CHUNK = 8192


def histogram(x: np.ndarray, grid: Grid) -> DensityField:
    """Cell counts of the opinions x over N = x.size, divided by dy: unit
    discrete mass when every opinion lies in [-1, 1].  Counted in chunks of
    at most 8192 opinions, whose counts add exactly to np.histogram's."""
    counts = np.zeros(grid.n_cells, dtype=np.int64)
    for start in range(0, x.size, _HISTOGRAM_CHUNK):
        counts += np.histogram(x[start:start + _HISTOGRAM_CHUNK], bins=grid.edges)[0]
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
