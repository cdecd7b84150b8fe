"""Event features: pen stops, stroke intersections, Shannon entropy,
velocity-profile changes, interruptions and tempo.

Intersection counting is an exact orientation test over the segment pairs
whose bounding boxes overlap, found by a sort-by-x sweep; only proper
crossings count, with collinear overlap counted once and tangency excluded.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateRecording
from ..ink import (InkRecording, Stroke, on_surface_strokes, segment_strokes)

DEFAULT_STOP_DURATION = 0.030  # seconds
DEFAULT_STOP_RADIUS = 2.0      # tablet units


def count_pen_stops(rec: InkRecording,
                    min_duration: float = DEFAULT_STOP_DURATION,
                    radius: float = DEFAULT_STOP_RADIUS) -> int:
    """Count on-surface holds of at least ``min_duration``.

    A stop is a maximal run of on-surface samples all within ``radius`` of
    the run's first sample; non-overlapping runs are taken greedily left to
    right within each on-surface stroke.
    """
    strokes = on_surface_strokes(segment_strokes(rec))
    if not strokes:
        return 0
    samples = np.concatenate([np.arange(s.start, s.stop) for s in strokes])
    ends = np.concatenate([np.full(s.n, s.stop) for s in strokes])
    x, y, t = rec.x, rec.y, rec.t
    # run_end[k]: last sample, within its stroke, before the first one
    # farther than radius from sample samples[k]; found by stepping every
    # open run forward together, so each scan stops at its first far sample
    run_end = ends - 1
    open_k = np.arange(len(samples))
    step = 1
    while open_k.size:
        open_k = open_k[samples[open_k] + step < ends[open_k]]
        i = samples[open_k]
        far = np.hypot(x[i + step] - x[i], y[i + step] - y[i]) > radius
        run_end[open_k[far]] = i[far] + step - 1
        open_k = open_k[~far]
        step += 1
    held = np.flatnonzero(t[run_end] - t[samples] >= min_duration)
    # greedy, left to right: a stop resumes the scan after its last sample
    total = 0
    resume = -1
    for k in held.tolist():
        if samples[k] >= resume:
            total += 1
            resume = run_end[k] + 1
    return total


def _segments(stroke: Stroke):
    """Non-degenerate segments of a stroke as (m, 4) rows x1 y1 x2 y2."""
    p = np.column_stack((stroke.x[:-1], stroke.y[:-1],
                         stroke.x[1:], stroke.y[1:]))
    keep = (p[:, 0] != p[:, 2]) | (p[:, 1] != p[:, 3])
    idx = np.flatnonzero(keep)
    return p[keep], idx


def _bbox_pairs(seg):
    """All index pairs i < j of segments (rows x1 y1 x2 y2) whose bounding
    boxes overlap, found by a sweep over the boxes sorted by left edge."""
    x_lo = np.minimum(seg[:, 0], seg[:, 2])
    x_hi = np.maximum(seg[:, 0], seg[:, 2])
    y_lo = np.minimum(seg[:, 1], seg[:, 3])
    y_hi = np.maximum(seg[:, 1], seg[:, 3])
    order = np.argsort(x_lo, kind="stable")
    lo_sorted = x_lo[order]
    # pair each box with the boxes after it in the sweep that start before
    # its right edge: sweep positions first .. stop - 1
    first = np.arange(1, len(seg) + 1)
    stop = np.searchsorted(lo_sorted, x_hi[order], side="right")
    counts = np.maximum(stop - first, 0)
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    a = np.repeat(order, counts)
    b = order[np.repeat(first, counts) + within]
    keep = ((x_lo[a] <= x_hi[b]) & (x_lo[b] <= x_hi[a])
            & (y_lo[a] <= y_hi[b]) & (y_lo[b] <= y_hi[a]))
    a, b = a[keep], b[keep]
    return np.minimum(a, b), np.maximum(a, b)


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _pair_crossings(A, B) -> np.ndarray:
    """Boolean crossing mask for paired segment rows A, B (each (m, 4))."""
    d1 = _cross(B[:, 0], B[:, 1], B[:, 2], B[:, 3], A[:, 0], A[:, 1])
    d2 = _cross(B[:, 0], B[:, 1], B[:, 2], B[:, 3], A[:, 2], A[:, 3])
    d3 = _cross(A[:, 0], A[:, 1], A[:, 2], A[:, 3], B[:, 0], B[:, 1])
    d4 = _cross(A[:, 0], A[:, 1], A[:, 2], A[:, 3], B[:, 2], B[:, 3])
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)

    collinear = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    if np.any(collinear):
        # positive-length 1D overlap along the dominant axis
        use_x = (np.abs(A[:, 2] - A[:, 0]) >= np.abs(A[:, 3] - A[:, 1]))
        a_lo = np.where(use_x, np.minimum(A[:, 0], A[:, 2]),
                        np.minimum(A[:, 1], A[:, 3]))
        a_hi = np.where(use_x, np.maximum(A[:, 0], A[:, 2]),
                        np.maximum(A[:, 1], A[:, 3]))
        b_lo = np.where(use_x, np.minimum(B[:, 0], B[:, 2]),
                        np.minimum(B[:, 1], B[:, 3]))
        b_hi = np.where(use_x, np.maximum(B[:, 0], B[:, 2]),
                        np.maximum(B[:, 1], B[:, 3]))
        overlap = np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo)
        proper = proper | (collinear & (overlap > 0))
    return proper


def count_intersections(strokes, mode: str) -> tuple:
    """Proper-crossing count and its value relative to the stroke count.

    ``mode`` is ``"intra"`` (non-adjacent segment pairs within one stroke)
    or ``"inter"`` (segment pairs across different strokes). Only on-surface
    strokes should be passed in.
    """
    if mode not in ("intra", "inter"):
        raise ValueError(f"unknown mode {mode!r}")
    strokes = list(strokes)
    segs = [_segments(s) for s in strokes]
    count = 0
    if segs:
        seg = np.concatenate([p for p, _ in segs])
        pos = np.concatenate([idx for _, idx in segs])
        owner = np.repeat(np.arange(len(segs)), [len(p) for p, _ in segs])
        # pairs come in stroke order, then segment order, as i < j
        ii, jj = _bbox_pairs(seg)
        if mode == "intra":
            # adjacency is defined on original segment positions
            keep = (owner[ii] == owner[jj]) & (pos[jj] - pos[ii] >= 2)
        else:
            keep = owner[ii] != owner[jj]
        ii, jj = ii[keep], jj[keep]
        if ii.size:
            count = int(np.count_nonzero(_pair_crossings(seg[ii], seg[jj])))
    n_strokes = len(strokes)
    rel = count / n_strokes if n_strokes else float("nan")
    return count, rel


def shannon_entropy(series, bins: int = 16) -> float:
    """Histogram entropy in bits over a uniform grid spanning [min, max]."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("empty series")
    lo, hi = float(series.min()), float(series.max())
    if lo == hi:
        return 0.0
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range [{lo}, {hi}] is not finite")
    # np.histogram(series, bins, range=(lo, hi))'s counts without its
    # wrapper: the same rejected ranges, a scaled index, then numpy's
    # correction of that index against the edges
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValueError(f"cannot make {bins} finite-sized bins")
    idx = ((series - lo) / (hi - lo) * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx[series < edges[idx]] -= 1
    idx[(series >= edges[idx + 1]) & (idx != bins - 1)] += 1
    counts = np.bincount(idx, minlength=bins)
    p = counts[counts > 0] / series.size
    return float(-(p * np.log2(p)).sum())


def velocity_profile_changes(vel, duration: float):
    """Count of strict local extrema of a velocity sequence and the count
    normalized by the time span. Plateaus collapse to a single extremum.
    Too-short input comes back as missing."""
    vel = np.asarray(vel, dtype=float)
    if vel.size < 3:
        return float("nan"), float("nan")
    signs = np.sign(np.diff(vel))
    signs = signs[signs != 0]
    count = int(np.count_nonzero(np.diff(signs) != 0)) if signs.size >= 2 else 0
    rel = count / duration if duration > 0 else float("nan")
    return count, rel


def stroke_summary(rec: InkRecording) -> dict:
    """Interruptions (pen elevations) and tempo (strokes per second)."""
    if len(rec) < 2 or rec.duration <= 0:
        raise DegenerateRecording("need a positive time span")
    pen = rec.pen_status
    interruptions = int(np.count_nonzero((pen[:-1] == 1) & (pen[1:] == 0)))
    n_on = len(on_surface_strokes(segment_strokes(rec)))
    return {"interruptions": interruptions, "tempo": n_on / rec.duration}
