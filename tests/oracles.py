"""Independent oracles used by the tests.

The continuum ones go through adaptive quadrature on the closed-form
integrands; the discrete kernel is evaluated in mpmath at 50 digits, and
the steady state in the angle z = arcsin y at 60 (400 at tiny lam).  None
of it reuses the package's evaluation paths (the Beta normalization, for
instance, comes from quadrature, or from mpmath's log-gamma at 400 digits,
not from log-gamma in floats or Stirling's series).
"""

import functools
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


def _mp_log_normalization(a, b):
    """log C = -((a + b - 1) log 2 + log B(a, b)) at the working precision."""
    return -((a + b - 1) * mpmath.log(2)
             + mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b))


def log_normalization(lam, m, dps=400):
    """log C = -((a + b - 1) log 2 + log B(a, b)) with a = (1 - m)/lam and
    b = (1 + m)/lam, from the floats lam and m taken exactly, at dps digits
    and rounded once: at lam = 1e-300 the terms reach 1e303 and cancel to
    about 344, so dps must exceed 303 plus the digits wanted."""
    with mpmath.workdps(dps):
        lam, m = mpmath.mpf(lam), mpmath.mpf(m)
        return float(_mp_log_normalization((1 - m) / lam, (1 + m) / lam))


# the angles of the angular checks, 1e-3 inside (-pi/2, pi/2), and the sparse
# subset of them that most pairs use: every 10th plus the 10 outermost on each side
ANGLES = np.linspace(-0.5 * math.pi + 1e-3, 0.5 * math.pi - 1e-3, 2001)
SPARSE_ANGLES = ANGLES[np.unique(np.r_[0:2001:10, 0:10, 1991:2001])]


def angular_dps(lam):
    """60 digits, or 400 where lam < 1e-3, as in log_normalization: the log
    terms reach 15 (2/lam), 3e309 at lam = 1e-308, and cancel."""
    return 400 if lam < 1e-3 else 60


# The logs and trigonometric values below do not depend on (lam, m), and
# every pair evaluates them at the same points, so each is computed once per
# point and precision; a pair then costs a few multiplications per point.

@functools.cache
def _log_one_minus_plus(y, dps):
    """log(1 - y) and log(1 + y) at dps digits, y (a float or an mpf) taken exactly."""
    with mpmath.workdps(dps):
        y = mpmath.mpf(y)
        return mpmath.log(1 - y), mpmath.log(1 + y)


@functools.cache
def _cos_and_sin(z, dps):
    """cos z and sin z at dps digits, the float z taken exactly."""
    with mpmath.workdps(dps):
        return mpmath.cos_sin(mpmath.mpf(z))


@functools.cache
def _log_cos_and_sin(z, dps):
    """log cos z and sin z at dps digits, the float z taken exactly."""
    c, s = _cos_and_sin(z, dps)
    with mpmath.workdps(dps):
        return mpmath.log(c), s


@functools.cache
def _explicit_logs(z, dps):
    """log cos z and log((1 + tan(z/2)) / (1 - tan(z/2))) at dps digits, the
    float z taken exactly, both from the cosine and sine of z/2."""
    with mpmath.workdps(dps):
        c, s = mpmath.cos_sin(mpmath.mpf(z) / 2)
        t = s / c
        return mpmath.log((c - s) * (c + s)), mpmath.log((1 + t) / (1 - t))


def beta_log_density(lam, m, ys):
    """log v(y) = log C + (a - 1) log(1 - y) + (b - 1) log(1 + y) for each y
    of ys, as mpf values at angular_dps(lam) digits.  The floats lam and m
    and each y (a float or an mpf) are taken exactly; nothing is rounded to
    a float.  mpmath's arithmetic rounds the exact result of each operation,
    so the difference of two such values needs no raised precision."""
    dps = angular_dps(lam)
    with mpmath.workdps(dps):
        lam, m = mpmath.mpf(lam), mpmath.mpf(m)
        a, b = (1 - m) / lam, (1 + m) / lam
        log_c, a1, b1 = _mp_log_normalization(a, b), a - 1, b - 1
        return [log_c + a1 * lm + b1 * lp
                for lm, lp in (_log_one_minus_plus(y, dps) for y in ys)]


def angular_log_density(lam, m, zs):
    """log g(z) = log v(sin z) + log cos z, the steady state in the angle
    z = arcsin y by its definition, for each float z of zs taken exactly:
    mpf values at angular_dps(lam) digits, sin z included."""
    dps = angular_dps(lam)
    logs = [_log_cos_and_sin(z, dps) for z in zs]
    log_v = beta_log_density(lam, m, [s for _, s in logs])
    with mpmath.workdps(dps):
        return [lv + log_cos for lv, (log_cos, _) in zip(log_v, logs)]


def angular_log_density_explicit(lam, m, zs):
    """log g(z) by the paper's explicit angular formula,

        g(z) = C cos^(2/lam - 1) z ((1 + tan(z/2)) / (1 - tan(z/2)))^(2m/lam),

    for each float z of zs taken exactly: mpf values at angular_dps(lam)
    digits, with the Beta normalization C of v."""
    dps = angular_dps(lam)
    with mpmath.workdps(dps):
        lam, m = mpmath.mpf(lam), mpmath.mpf(m)
        log_c = _mp_log_normalization((1 - m) / lam, (1 + m) / lam)
        cos_power, ratio_power = 2 / lam - 1, 2 * m / lam
        return [log_c + cos_power * log_cos + ratio_power * log_ratio
                for log_cos, log_ratio in (_explicit_logs(z, dps) for z in zs)]


def potential_second(lam, m, zs, dps=60):
    """P''(z) = ((1 - lam/2) - m sin z) / cos^2 z, the second derivative of
    the angular potential P, g = C exp(-(2/lam) P), for each float z of zs:
    mpf values at dps digits, the floats lam, m and z taken exactly."""
    with mpmath.workdps(dps):
        c, m = 1 - mpmath.mpf(lam) / 2, mpmath.mpf(m)
        return [(c - m * s) / (cz * cz) for cz, s in (_cos_and_sin(z, dps) for z in zs)]


def potential_second_min(lam, m, dps=60):
    """The infimum of P'' over (-pi/2, pi/2) for an admissible pair, c =
    1 - lam/2 >= |m| taken exactly from the floats lam and m, as an mpf at
    dps digits.

    In s = sin z, P'' = (c - m s) / (1 - s^2), whose stationary points solve
    m s^2 + (lam - 2) s + m = 0.  The root inside (-1, 1) is
    s* = m / (c + sqrt(c^2 - m^2)), taken in this form, which does not
    cancel; s* = 0 at m = 0.  At |m| = c that root reaches s = sign(m),
    where P'' = c / (1 + |s|) has no minimum: the infimum is its limit c/2
    as z -> +-pi/2."""
    with mpmath.workdps(dps):
        c, m = 1 - mpmath.mpf(lam) / 2, mpmath.mpf(m)
        if abs(m) == c:
            return c / 2
        s = m / (c + mpmath.sqrt(c * c - m * m))
        return (c - m * s) / (1 - s * s)


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


def _mp_fisher(f, g, interfaces, dy, lam):
    log_r = [mpmath.log(mpmath.mpf(float(a)) / mpmath.mpf(float(b))) for a, b in zip(f, g)]
    lam, dy = mpmath.mpf(float(lam)), mpmath.mpf(float(dy))
    return mpmath.fsum(
        lam / 2 * (1 - mpmath.mpf(float(y)) ** 2) * ((log_r[i + 1] - log_r[i]) / dy) ** 2
        * (mpmath.mpf(float(f[i])) + mpmath.mpf(float(f[i + 1]))) / 2 * dy
        for i, y in enumerate(interfaces))


def _mp_relative_entropy(f, g, dy):
    def term(a, b):
        a = mpmath.mpf(float(a))
        return a * mpmath.log(a / mpmath.mpf(float(b))) if a else a

    return mpmath.fsum(term(a, b) for a, b in zip(f, g)) * mpmath.mpf(float(dy))


def discrete_weighted_fisher(f, g, interfaces, dy, lam, dps=50):
    """weighted_fisher's interface sum for one strictly positive row f
    against g, at dps digits: the sum over interior interfaces of

        (lam/2)(1 - y_if^2) * ((log(f_{i+1}/g_{i+1}) - log(f_i/g_i))/dy)^2
        * (f_i + f_{i+1})/2 * dy.

    Every float input is taken exactly and the result rounded to a float once.
    """
    with mpmath.workdps(dps):
        return float(_mp_fisher(f, g, interfaces, dy, lam))


def discrete_relative_entropy(f, g, dy, dps=50):
    """sum f log(f/g) dy for one nonnegative row f against g > 0, with
    0 log 0 = 0, at dps digits: every float input is taken exactly and the
    result rounded to a float once."""
    with mpmath.workdps(dps):
        return float(_mp_relative_entropy(f, g, dy))


def discrete_ls_slack(f, g, interfaces, dy, lam, k, dps=50):
    """k * discrete_weighted_fisher - sum f log(f/g) dy at dps digits, the
    discrete log-Sobolev slack of one strictly positive row, rounded once."""
    with mpmath.workdps(dps):
        return float(mpmath.mpf(float(k)) * _mp_fisher(f, g, interfaces, dy, lam)
                     - _mp_relative_entropy(f, g, dy))
