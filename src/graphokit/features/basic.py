"""Temporal, kinematic, dynamic and spatial features plus the four
vector-to-scalar aggregations (median, nCV, slope, 95th percentile).

All kinematics use actual sample-to-sample time deltas, never an assumed
fixed rate. Projected velocities are magnitudes (|dx|/dt, |dy|/dt).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import (DegenerateRecording, EmptyScope, EmptyVector,
                      NoOnSurfaceSamples)
from ..ink import (InkRecording, Stroke, Surface, in_air_strokes,
                   on_surface_strokes, segment_strokes)


class Projection(str, Enum):
    GLOBAL = "glob"
    HORIZONTAL = "horiz"
    VERTICAL = "vert"


class SurfaceScope(str, Enum):
    ON_SURFACE = "onsurf"
    IN_AIR = "inair"


class Aggregation(str, Enum):
    MEDIAN = "median"
    NCV = "ncv"
    SLOPE = "slope"
    P95 = "p95"


def aggregate(v, how: Aggregation) -> float:
    """Collapse a feature vector to a scalar.

    Quantiles use linear interpolation at position p*(n-1). nCV with a zero
    median and slope of a single point come back as NaN (missing).
    """
    v = np.asarray(v, dtype=float)
    v = v[~np.isnan(v)]
    if v.size == 0:
        raise EmptyVector("cannot aggregate an empty vector")
    how = Aggregation(how)
    return _aggregations(v, (how,))[how]


def _aggregations(v, hows=tuple(Aggregation)) -> dict:
    """The requested aggregations of a non-empty NaN-free vector."""
    out = {}
    if Aggregation.MEDIAN in hows or Aggregation.NCV in hows:
        med = np.median(v)
    if Aggregation.NCV in hows or Aggregation.P95 in hows:
        # one partition serves all three quantiles, each equal to its
        # single-quantile value; the median stays np.median, whose midpoint
        # average differs from np.percentile(v, 50) in the last bit
        q25, q75, q95 = np.percentile(v, [25, 75, 95])
    for how in hows:
        if how is Aggregation.MEDIAN:
            out[how] = float(med)
        elif how is Aggregation.P95:
            out[how] = float(q95)
        elif how is Aggregation.NCV:
            out[how] = float("nan") if med == 0 else float((q75 - q25) / med)
        elif v.size < 2:
            out[how] = float("nan")
        else:  # slope: OLS of v against its 0-based index
            idx = np.arange(v.size, dtype=float)
            idx -= idx.mean()
            out[how] = float(idx @ (v - v.mean()) / (idx @ idx))
    return out


def aggregate_all(v, prefix: str, out: dict) -> None:
    """Emit all four aggregations of ``v`` under ``<prefix>_<agg>`` keys."""
    v = np.asarray(v, dtype=float)
    v = v[~np.isnan(v)]
    values = _aggregations(v) if v.size else {}
    for how in Aggregation:
        out[f"{prefix}_{how.value}"] = values.get(how, float("nan"))


def temporal_features(rec: InkRecording) -> dict:
    """Durations and on-surface/in-air duration ratios.

    Vector-valued outputs (per-stroke durations and matched stroke-duration
    ratios) come back as arrays, ready for :func:`aggregate`.
    """
    if len(rec) < 2:
        raise DegenerateRecording("need at least 2 samples")
    strokes = segment_strokes(rec)
    on = on_surface_strokes(strokes)
    air = in_air_strokes(strokes)
    if not on:
        raise NoOnSurfaceSamples("no on-surface stroke")
    dur_on = np.array([s.duration for s in on])
    dur_air = np.array([s.duration for s in air])
    total_on = float(dur_on.sum())
    total_air = float(dur_air.sum())
    n_pairs = min(len(dur_on), len(dur_air))
    with np.errstate(divide="ignore", invalid="ignore"):
        pair_ratio = dur_on[:n_pairs] / dur_air[:n_pairs]
    pair_ratio = pair_ratio[np.isfinite(pair_ratio)]
    return {
        "duration": rec.duration,
        "duration_onsurf": total_on,
        "duration_inair": total_air,
        "duration_ratio": total_on / total_air if total_air > 0 else float("nan"),
        "stroke_duration_onsurf": dur_on,
        "stroke_duration_inair": dur_air,
        "stroke_duration_ratio": pair_ratio,
    }


def kinematic_profile(stroke: Stroke, proj: Projection,
                      order: str) -> np.ndarray:
    """Velocity or acceleration sequence for one stroke.

    velocity_i = disp(i, i+1) / dt; acceleration = first difference of the
    velocity sequence divided by the midpoint dt. Too-short strokes give an
    empty sequence.
    """
    if order not in ("velocity", "acceleration"):
        raise ValueError(f"unknown order {order!r}")
    min_len = 2 if order == "velocity" else 3
    if stroke.n < min_len:
        return np.empty(0)
    t = stroke.t
    dt = np.diff(t)
    proj = Projection(proj)
    if proj is Projection.GLOBAL:
        disp = np.hypot(np.diff(stroke.x), np.diff(stroke.y))
    elif proj is Projection.HORIZONTAL:
        disp = np.abs(np.diff(stroke.x))
    else:
        disp = np.abs(np.diff(stroke.y))
    vel = disp / dt
    if order == "velocity":
        return vel
    mid_dt = (t[2:] - t[:-2]) / 2.0
    return np.diff(vel) / mid_dt


def kinematic_vector(strokes, proj: Projection, order: str) -> np.ndarray:
    """Concatenated per-stroke kinematic sequences for a set of strokes."""
    parts = [kinematic_profile(s, proj, order) for s in strokes]
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else np.empty(0)


def dynamic_features(rec: InkRecording) -> dict:
    """Raw on-surface pressure/tilt/azimuth sequences (degrees, device
    pressure units), exposed for aggregation."""
    mask = rec.pen_status == 1
    if not np.any(mask):
        raise NoOnSurfaceSamples("no on-surface samples")
    return {
        "pressure": rec.pressure[mask],
        "tilt": rec.tilt[mask],
        "azimuth": rec.azimuth[mask],
    }


def path_length(x, y) -> float:
    return float(np.hypot(np.diff(x), np.diff(y)).sum())


def spatial_features(rec: InkRecording, scope: SurfaceScope) -> dict:
    """Width/height of the product in scope, summed per-stroke path length,
    and per-stroke width/height/length vectors."""
    scope = SurfaceScope(scope)
    strokes = segment_strokes(rec)
    if scope is SurfaceScope.ON_SURFACE:
        strokes = on_surface_strokes(strokes)
    else:
        strokes = in_air_strokes(strokes)
    pts = sum(s.n for s in strokes)
    if pts < 2 or not strokes:
        raise EmptyScope(f"fewer than 2 samples in scope {scope.value}")
    xs = np.concatenate([s.x for s in strokes])
    ys = np.concatenate([s.y for s in strokes])
    widths = np.array([float(s.x.max() - s.x.min()) for s in strokes])
    heights = np.array([float(s.y.max() - s.y.min()) for s in strokes])
    lengths = np.array([path_length(s.x, s.y) for s in strokes])
    return {
        "width": float(xs.max() - xs.min()),
        "height": float(ys.max() - ys.min()),
        "length": float(lengths.sum()),
        "stroke_width": widths,
        "stroke_height": heights,
        "stroke_length": lengths,
    }
