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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import DensityField, Grid
from .params import KineticParams


@dataclass(frozen=True)
class InteractionParams:
    """Microscopic interaction parameters plus the scaling coefficient.

    lam = sigma2/gamma is the only combination surviving the quasi-invariant
    limit; epsilon controls how close the simulation sits to that limit.
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

    @property
    def lam(self) -> float:
        return self.sigma2 / self.gamma

    @classmethod
    def from_kinetic(cls, p: KineticParams, gamma: float = 0.5,
                     epsilon: float = 0.01) -> "InteractionParams":
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
    rng_seed: int
    time: float = 0.0  # kinetic time: one unit per sweep
    attempted_pairs: int = 0
    rejected_pairs: int = 0

    def __post_init__(self):
        x = np.asarray(self.opinions, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("opinions must be a nonempty 1-d array")
        if np.any(np.abs(x) > 1.0) or not np.all(np.isfinite(x)):
            raise ValueError("opinions must lie in [-1, 1]")
        object.__setattr__(self, "opinions", x)

    @property
    def size(self) -> int:
        return self.opinions.size

    @property
    def rejection_fraction(self) -> float:
        return self.rejected_pairs / self.attempted_pairs if self.attempted_pairs else 0.0


def initial_ensemble(n: int, seed: int, kind: str = "bimodal",
                     width: float = 0.15) -> Ensemble:
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
    return Ensemble(opinions=x, rng=rng, rng_seed=seed)


def sample_from_density(f: DensityField, n: int, seed: int) -> Ensemble:
    """Sample agents from a gridded density (piecewise constant per cell)."""
    rng = np.random.default_rng(seed)
    p = f.values / f.values.sum()
    cells = rng.choice(f.grid.n_cells, size=n, p=p)
    lo = f.grid.edges[cells]
    x = lo + rng.uniform(0.0, f.grid.cell_width, n)
    return Ensemble(opinions=np.clip(x, -1.0, 1.0), rng=rng, rng_seed=seed)


def sample_noise(rng: np.random.Generator, sigma2_scaled: float, size=None):
    """Zero-mean noise of variance sigma2_scaled, uniform on a bounded support.

    The law is uniform on [-sqrt(3 s2), sqrt(3 s2)]; bounded support keeps
    boundary rejections rare, which an unbounded law would not.
    """
    if sigma2_scaled < 0.0:
        raise ValueError("noise variance must be nonnegative")
    half = math.sqrt(3.0 * sigma2_scaled)
    if size is None:
        return float(rng.uniform(-half, half)) if half > 0.0 else 0.0
    if half == 0.0:
        return np.zeros(size)
    return rng.uniform(-half, half, size)


def _interact(x, xs, g_s, eta, eta_s):
    """The interaction rule on pairs (x, xs), elementwise over arrays or floats:
    the post-interaction opinions and whether both stay in [-1, 1]."""
    x_new = x + g_s * (xs - x) + np.sqrt(1.0 - x * x) * eta
    xs_new = xs + g_s * (x - xs) + np.sqrt(1.0 - xs * xs) * eta_s
    ok = (np.abs(x_new) <= 1.0) & (np.abs(xs_new) <= 1.0)
    return x_new, xs_new, ok


def binary_interact(x: float, x_star: float, gamma_scaled: float,
                    eta: float, eta_star: float):
    """Post-interaction opinions, or None when either would leave [-1, 1].

    Rejection is a value, not an error: the pair simply keeps its states.
    The expected pair sum is conserved because the noise has zero mean.
    """
    x_new, xs_new, ok = _interact(x, x_star, gamma_scaled, eta, eta_star)
    return (float(x_new), float(xs_new)) if ok else None


def mc_step(e: Ensemble, p: InteractionParams) -> Ensemble:
    """One Nanbu sweep: disjoint random pairing, one interaction per pair.

    Kinetic time advances by one unit (every agent interacts once).
    """
    n = e.size
    if n % 2 != 0:
        raise ValueError(f"ensemble size must be even for full pairing, got {n}")
    half = n // 2
    g_s = p.epsilon * p.gamma
    s2_s = p.epsilon * p.sigma2

    perm = e.rng.permutation(n)
    i, j = perm[:half], perm[half:]
    x, xs = e.opinions[i], e.opinions[j]
    eta = sample_noise(e.rng, s2_s, size=half)
    eta_s = sample_noise(e.rng, s2_s, size=half)

    x_new, xs_new, ok = _interact(x, xs, g_s, eta, eta_s)
    out = e.opinions.copy()
    out[i[ok]] = x_new[ok]
    out[j[ok]] = xs_new[ok]
    return replace(
        e,
        opinions=out,
        time=e.time + 1.0,
        attempted_pairs=e.attempted_pairs + half,
        rejected_pairs=e.rejected_pairs + int((~ok).sum()),
    )


def sweeps_for_time(p: InteractionParams, t_fp: float) -> int:
    """Number of sweeps matching macroscopic time t_fp.

    The macroscopic equation has unit drift coefficient, so one unit of its
    time corresponds to 1/(epsilon*gamma) interactions per agent: the
    per-interaction drift is epsilon*gamma*(partner - self), and the clock
    absorbs gamma together with epsilon.  With that mapping the histogram
    limit depends on (lam, m) only.
    """
    return max(0, int(round(t_fp / (p.epsilon * p.gamma))))


def histogram(e: Ensemble, grid: Grid) -> DensityField:
    """Cell counts / (N dy); unit discrete mass by construction."""
    counts, _ = np.histogram(e.opinions, bins=grid.edges)
    return DensityField(grid, counts / (e.size * grid.cell_width))


def moments(e: Ensemble):
    """Sample mean and unbiased sample variance (nan for a singleton)."""
    x = e.opinions
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if x.size > 1 else math.nan
    return mean, var
