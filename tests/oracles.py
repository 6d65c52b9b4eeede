"""Independent oracles used by the tests.

The continuum ones go through adaptive quadrature on the closed-form
integrands; the discrete kernel is evaluated in mpmath at 50 digits.  None
of it reuses the package's evaluation paths (the Beta normalization, for
instance, comes from quadrature, not log-gamma).
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

QUAD_OPTS = dict(points=[-1.0, 1.0], limit=200)


def beta_density(lam, m):
    """Unit-mass Beta-type density on (-1,1), normalized by quadrature."""
    a = (1.0 - m) / lam
    b = (1.0 + m) / lam

    def unnorm(y):
        return (1.0 - y) ** (a - 1.0) * (1.0 + y) ** (b - 1.0)

    z, _ = quad(unnorm, -1.0, 1.0, **QUAD_OPTS)
    return lambda y: unnorm(y) / z


def quad_mass(f):
    val, _ = quad(f, -1.0, 1.0, **QUAD_OPTS)
    return val


def quad_relative_entropy(f, g):
    val, _ = quad(lambda y: f(y) * math.log(f(y) / g(y)), -1.0, 1.0, **QUAD_OPTS)
    return val


def quad_weighted_fisher(f, dlog_ratio, lam):
    val, _ = quad(
        lambda y: 0.5 * lam * (1.0 - y * y) * dlog_ratio(y) ** 2 * f(y),
        -1.0, 1.0, **QUAD_OPTS,
    )
    return val


def quad_weighted_l2(f, g):
    val, _ = quad(lambda y: (f(y) - g(y)) ** 2 / g(y), -1.0, 1.0, **QUAD_OPTS)
    return val


def quad_l1(f, g):
    val, _ = quad(lambda y: abs(f(y) - g(y)), -1.0, 1.0, **QUAD_OPTS)
    return val


class SmoothRatioCase:
    """f = v * (1 + cos(pi y)/2) / Z against the Beta state v of (lam, m).

    The log ratio is smooth and bounded up to the boundary, so every
    functional has a finite continuum value and the midpoint sums converge
    at second order.
    """

    def __init__(self, lam=0.5, m=0.0):
        self.lam = lam
        self.m = m
        self.v = beta_density(lam, m)
        self.z, _ = quad(lambda y: self.v(y) * self._r(y), -1.0, 1.0, **QUAD_OPTS)

    @staticmethod
    def _r(y):
        return 1.0 + 0.5 * np.cos(np.pi * y)

    def f(self, y):
        return self.v(y) * self._r(y) / self.z

    def dlog_ratio(self, y):
        # d/dy log(f/v) = r'/r  (the 1/Z shift has zero derivative)
        return (-0.5 * np.pi * np.sin(np.pi * y)) / self._r(y)

    def entropy(self):
        return quad_relative_entropy(self.f, self.v)

    def fisher(self):
        return quad_weighted_fisher(self.f, self.dlog_ratio, self.lam)

    def weighted_l2(self):
        return quad_weighted_l2(self.f, self.v)

    def l1(self):
        return quad_l1(self.f, self.v)


def centered_difference(fn, z, h=1e-5):
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def zero_flux_kernel(lam, m, interfaces, dy, dps=50):
    """The unit-mass kernel of the Chang-Cooper rates at dps digits.

    Zero flux at every interface gives g_{i+1} = g_i e^{-w_i}, with the cell
    Peclet number w = dy B / D, B = (1 - lam) y - m and D = (lam/2)(1 - y^2),
    so g_i is exp(-sum of the w before it).  The float interfaces and cell
    width are taken exactly; the result is rounded to floats once, at the end.
    """
    with mpmath.workdps(dps):
        lam, m, dy = mpmath.mpf(lam), mpmath.mpf(m), mpmath.mpf(dy)
        log_g = [mpmath.mpf(0)]
        for y in map(mpmath.mpf, interfaces):
            w = dy * ((1 - lam) * y - m) / (lam / 2 * (1 - y * y))
            log_g.append(log_g[-1] - w)
        top = max(log_g)
        g = [mpmath.exp(x - top) for x in log_g]
        mass = mpmath.fsum(g) * dy
        return np.array([float(x / mass) for x in g])


def entropy_kernel(r, dps=50):
    """r log r - r + 1 for each float r at dps digits, with 0 log 0 = 0.

    The float is taken exactly and the result rounded to a float once."""
    def h(x):
        x = mpmath.mpf(x)
        return 1 - x + (x * mpmath.log(x) if x else 0)

    with mpmath.workdps(dps):
        return np.array([float(h(float(x))) for x in np.ravel(r)]).reshape(np.shape(r))
