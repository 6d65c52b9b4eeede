"""Exponential decay-rate estimation from sampled time series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_POINTS = 10  # the fewest samples a fit window may hold


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    window: tuple


def fit_decay_rate(times, values, window=None) -> DecayFit:
    """Least-squares line through (t, log value) inside the window.

    Returns the fitted slope (the decay exponent), intercept, and r^2.
    The window must hold at least MIN_POINTS samples, and values must be
    finite and strictly positive inside it; a perfectly flat series fits
    with slope 0 and r^2 = 1.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if window is None:
        sel = np.ones(t.size, dtype=bool)
        window = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    else:
        t0, t1 = float(window[0]), float(window[1])
        if not t1 > t0:
            raise ValueError(f"degenerate fit window [{t0}, {t1}]")
        sel = (t >= t0) & (t <= t1)
        window = (t0, t1)
    if int(sel.sum()) < MIN_POINTS:
        raise ValueError(
            f"need at least {MIN_POINTS} samples in the window, got {int(sel.sum())}"
        )
    tw, vw = t[sel], v[sel]
    if not np.all(np.isfinite(vw) & (vw > 0.0)):
        raise ValueError("values must be finite and strictly positive for a log-linear fit")
    logv = np.log(vw)
    tc = tw - tw.mean()
    denom = float((tc * tc).sum())
    if denom == 0.0:
        raise ValueError("all samples share one time; cannot fit a slope")
    slope = float((tc * logv).sum() / denom)
    intercept = float(logv.mean() - slope * tw.mean())
    resid = logv - (slope * tw + intercept)
    ss_res = float((resid * resid).sum())
    ss_tot = float(((logv - logv.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(slope, intercept, r2, int(sel.sum()), window)
