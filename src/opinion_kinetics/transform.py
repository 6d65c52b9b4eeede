"""Trigonometric change of variables z = arcsin(y) and the angular potential.

In the angular coordinate the equilibrium becomes g(z) = v(sin z) cos z on
(-pi/2, pi/2), which is log-concave with potential derivative

    P'(z) = ((1 - lam/2) sin z - m) / cos z.

Its second derivative P'' = ((1 - lam/2) - m sin z) / cos^2 z is uniformly
convex exactly on the admissible set 1 - lam/2 >= |m|, and its minimum is
the convexity bound behind the log-Sobolev constant.  This module provides
P'' (private, from sin z and cos z), an independent numerical minimization
of it, the angular equilibrium in both its defining and explicit closed
forms, and its power-law exponents at the boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .equilibrium import BetaEquilibrium, _exp_density, log_normalization
from .params import KineticParams, _require_l2

_HALF_PI = 0.5 * math.pi


def _check_angle(z):
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.abs(z_arr) >= _HALF_PI):
        raise ValueError("angle must lie strictly inside (-pi/2, pi/2)")
    return z_arr


def _second(p: KineticParams, sin_z, cos_z):
    """P''(z) = ((1 - lam/2) - m sin z) / cos^2 z from sin z and cos z, given as
    arrays or as plain floats: the exact derivative of P'."""
    return ((1.0 - 0.5 * p.lam) - p.m * sin_z) / (cos_z * cos_z)


def minimize_potential_second(p: KineticParams):
    """Golden-section minimum of P'' over (-pi/2, pi/2): (z_bar, min value),
    bracketed to a width of 1e-12.

    Requires the square-integrable-equilibrium regime; there P'' is
    unimodal (one interior sign change of its derivative), so golden
    section is safe.  The minimum equals the closed-form convexity bound;
    the stationary point satisfies m s^2 + (lam - 2) s + m = 0 in s = sin z.
    The search interval stays strictly inside (-pi/2, pi/2), so P'' is
    evaluated on plain floats without the angle check.
    """
    _require_l2(p, "minimize_potential_second")

    def f(z):
        return _second(p, math.sin(z), math.cos(z))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -_HALF_PI + 1e-6, _HALF_PI - 1e-6
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    z_bar = 0.5 * (a + b)
    return z_bar, f(z_bar)


def angular_equilibrium(p: KineticParams, z):
    """g(z) = v(sin z) cos z, the steady state in the angular coordinate."""
    z_arr = _check_angle(z)
    eq = BetaEquilibrium.from_params(p)
    return _exp_density(eq.log_value(np.sin(z_arr)) + np.log(np.cos(z_arr)),
                       "the angular steady state")


def angular_equilibrium_explicit(p: KineticParams, z):
    """The same density by its explicit closed form,

        g(z) = C (cos z)^(2/lam - 1) * ((1 + tan(z/2)) / (1 - tan(z/2)))^(2m/lam),

    kept as an independent cross-check of angular_equilibrium.
    """
    z_arr = _check_angle(z)
    t = np.tan(0.5 * z_arr)
    log_g = (
        log_normalization(p)
        + (2.0 / p.lam - 1.0) * np.log(np.cos(z_arr))
        + (2.0 * p.m / p.lam) * (np.log1p(t) - np.log1p(-t))
    )
    return _exp_density(log_g, "the explicit angular steady state")


def boundary_exponents(p: KineticParams):
    """Power-law exponents of g at z -> -pi/2 and z -> +pi/2."""
    return 2.0 / p.lam - 1.0 + 2.0 * p.m / p.lam, 2.0 / p.lam - 1.0 - 2.0 * p.m / p.lam
