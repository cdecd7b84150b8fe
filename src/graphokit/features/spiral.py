"""Spiral-specific features via polar unwrapping of the on-surface trace.

The trace is converted to an unwrapped (theta, r) profile around an estimated
center and compared against a first-order fit r = a + b*theta. The center
starts at the on-surface centroid and is refined by least squares so that a
noiseless ideal spiral yields near-zero residuals (the centroid alone is
offset from the true center by roughly the growth rate, which would leave
O(b) oscillations in r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (DegenerateRadius, FitFailure, InsufficientLoops,
                      NoOnSurfaceSamples, NotASpiral)
from ..ink import InkRecording, on_surface_strokes, segment_strokes
from .basic import aggregate, path_length

_RAY_COUNT = 4  # fixed rays every pi/2, anchored at the trace's start angle


@dataclass(frozen=True)
class PolarTrace:
    theta: np.ndarray  # cumulative unwrapped angle, radians
    r: np.ndarray      # radius, tablet units
    t: np.ndarray      # seconds
    center: tuple      # (x0, y0)

    def __post_init__(self):
        if np.any(np.abs(np.diff(self.theta)) >= np.pi):
            raise ValueError("theta not properly unwrapped")
        if np.any(self.r < 0):
            raise ValueError("negative radius")


def _polar(x, y, cx, cy):
    dx, dy = x - cx, y - cy
    return np.unwrap(np.arctan2(dy, dx)), np.hypot(dx, dy)


def _line_fit(theta, r):
    b, a = np.polyfit(theta, r, 1)
    return a, b


def unwrap_polar(rec: InkRecording) -> PolarTrace:
    """Unwrap the on-surface trace to a canonical polar profile.

    Direction is normalized so theta increases (a mirrored spiral maps onto
    its counter-clockwise form). Raises NotASpiral when the unwrapped angle
    spans less than one full turn.
    """
    # deferred: scipy.optimize loads only when a spiral is extracted
    from scipy.optimize import least_squares

    mask = rec.pen_status == 1
    if not np.any(mask):
        raise NoOnSurfaceSamples("no on-surface samples")
    x, y, t = rec.x[mask], rec.y[mask], rec.t[mask]
    cx, cy = float(x.mean()), float(y.mean())

    theta, r = _polar(x, y, cx, cy)
    if abs(theta[-1] - theta[0]) < 2 * np.pi:
        raise NotASpiral("unwrapped angle span below one full turn")

    # the innermost turn is numerically ill-behaved under center shifts
    # (tiny radii, unstable angles); refine on the outer turns only
    outer = np.abs(theta - theta[0]) >= 2 * np.pi
    xo, yo = x[outer], y[outer]

    def residuals(c):
        th, rad = _polar(xo, yo, c[0], c[1])
        a, b = _line_fit(th, rad)
        return rad - (a + b * th)

    sol = least_squares(residuals, x0=[cx, cy], xtol=3e-16, ftol=3e-16,
                        gtol=3e-16, diff_step=1e-6)
    cx, cy = float(sol.x[0]), float(sol.x[1])
    theta, r = _polar(x, y, cx, cy)

    near = r <= 1e-9 * max(float(r.max()), 1e-12)
    if near.mean() > 0.01:
        raise DegenerateRadius("center coincides with >1% of samples")

    if theta[-1] < theta[0]:
        theta = -theta
    return PolarTrace(theta=theta, r=r, t=t, center=(cx, cy))


def _second_derivative(theta, r):
    """Second finite difference of r with respect to theta (nonuniform).

    The profile is sorted by angle first and near-duplicate angles are
    skipped (noisy traces can locally reverse), so the stencil stays
    well-conditioned.
    """
    order = np.argsort(theta, kind="stable")
    th, rr = theta[order], r[order]
    step = np.diff(th)
    eps = 0.25 * np.median(step[step > 0]) if np.any(step > 0) else 0.0
    keep = np.concatenate(([True], step > eps))
    th, rr = th[keep], rr[keep]
    if len(th) < 3:
        return np.empty(0)
    h0 = th[1:-1] - th[:-2]
    h1 = th[2:] - th[1:-1]
    return 2.0 * (rr[:-2] / (h0 * (h0 + h1)) - rr[1:-1] / (h0 * h1)
                  + rr[2:] / (h1 * (h0 + h1)))


def _ray_loop_widths(theta, r):
    """Radial gaps between consecutive crossings of 4 rays anchored at the
    start angle (anchoring keeps the feature rotation invariant)."""
    order = np.argsort(theta, kind="stable")
    th_s, r_s = theta[order], r[order]
    widths = []
    any_pair = False
    for j in range(_RAY_COUNT):
        phi = theta[0] + j * (2 * np.pi / _RAY_COUNT)
        k0 = int(np.ceil((th_s[0] - phi) / (2 * np.pi)))
        crossings = phi + 2 * np.pi * np.arange(k0, k0 + 64)
        crossings = crossings[(crossings >= th_s[0]) & (crossings <= th_s[-1])]
        if len(crossings) >= 2:
            any_pair = True
            radii = np.interp(crossings, th_s, r_s)
            widths.extend(np.diff(radii))
    if not any_pair:
        raise InsufficientLoops("need >= 2 crossings on at least one ray")
    return np.asarray(widths)


_ZCR_BINS_PER_TURN = 36


def zero_crossing_rate(trace: PolarTrace) -> float:
    """Sign-change rate of the first difference of the radial profile.

    The profile is binned into fixed 10-degree angle sectors (anchored at
    the start angle, so the measure is rotation invariant), r is averaged
    per sector and sign changes of the sector-to-sector increments are
    counted: an ideal spiral grows monotonically and scores 0, noisy ones
    produce backward increments.
    """
    width = 2 * np.pi / _ZCR_BINS_PER_TURN
    idx = np.floor((trace.theta - trace.theta[0]) / width).astype(int)
    idx -= idx.min()
    sums = np.bincount(idx, weights=trace.r)
    counts = np.bincount(idx)
    occupied = counts > 0
    series = sums[occupied] / counts[occupied]
    signs = np.sign(np.diff(series))
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0.0
    return float(np.count_nonzero(np.diff(signs) != 0) / len(series))


def spiral_features(trace: PolarTrace, rec: InkRecording) -> dict:
    """The seven spiral features from the unwrapped polar profile."""
    theta, r = trace.theta, trace.r
    a, b = _line_fit(theta, r)
    if b <= 0:
        raise FitFailure(f"non-positive spiral growth rate b={b:.4g}")
    fit = a + b * theta
    resid = r - fit

    mean_r = float(r.mean())
    dos = float(np.sqrt(np.mean(resid ** 2)) / mean_r)
    spi = float(100.0 * (1.0 - np.sum(np.abs(resid)) / np.sum(fit)))

    d2 = _second_derivative(theta, r)
    smooth2 = float(np.sqrt(np.mean(d2 ** 2)) / b) if d2.size else 0.0

    strokes = on_surface_strokes(segment_strokes(rec))
    on_len = sum(path_length(s.x, s.y) for s in strokes)
    on_dur = sum(s.duration for s in strokes)
    mean_speed = on_len / on_dur if on_dur > 0 else float("nan")

    loop_widths = _ray_loop_widths(theta, r)
    width_var = aggregate(np.abs(loop_widths), "ncv")

    return {
        "dos": dos,
        "mean_speed": mean_speed,
        "smoothness2": smooth2,
        "spi": spi,
        "tightness": 1.0 / b,
        "width_var": width_var,
        "zcr1": zero_crossing_rate(trace),
    }
