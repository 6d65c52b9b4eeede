"""Trigonometric change of variables z = arcsin(y) and the angular potential.

In the angular coordinate the equilibrium becomes g(z) = v(sin z) cos z on
(-pi/2, pi/2), which is log-concave with potential derivative

    P'(z) = ((1 - lam/2) sin z - m) / cos z.

Its second derivative P'' = ((1 - lam/2) - m sin z) / cos^2 z is uniformly
convex exactly on the admissible set 1 - lam/2 >= |m|, and its minimum is
the convexity bound behind the log-Sobolev constant.  This module provides
P'' (private, from sin z and cos z) and an independent numerical
minimization of it, which verify-ls checks against the closed form.  The
angular density itself, in its defining and explicit forms, is checked in
the tests against a 60-digit oracle.
"""

from __future__ import annotations

import math

from .params import KineticParams, _require_l2

_HALF_PI = 0.5 * math.pi


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
