"""Whole-recording feature extraction with the stable naming contract
``<task>.<family>.<base>[_<proj>][_<surface>]_<agg>``.

Features that cannot be computed for a recording (no in-air strokes, failed
spiral fit, ...) come back as NaN so downstream tables stay rectangular.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphokitError
from ..ink import (InkRecording, in_air_strokes, on_surface_strokes,
                   segment_strokes)
from .basic import (Projection, SurfaceScope, aggregate_all, dynamic_features,
                    kinematic_vector, spatial_features, temporal_features)
from .events import (count_intersections, count_pen_stops, shannon_entropy,
                     stroke_summary, velocity_profile_changes)
from .spiral import spiral_features, unwrap_polar

SPIRAL_FEATURE_NAMES = ("dos", "mean_speed", "smoothness2", "spi",
                        "tightness", "width_var", "zcr1")


def extract_features(rec: InkRecording, task: str | None = None) -> dict:
    """All feature families for one recording, keyed by contract name."""
    task = task or rec.task.value
    out: dict[str, float] = {}
    strokes = segment_strokes(rec)
    on = on_surface_strokes(strokes)
    air = in_air_strokes(strokes)

    # temporal
    tf = temporal_features(rec)
    p = f"{task}.temporal"
    out[f"{p}.duration"] = tf["duration"]
    out[f"{p}.duration_onsurf"] = tf["duration_onsurf"]
    out[f"{p}.duration_inair"] = tf["duration_inair"]
    out[f"{p}.duration_ratio"] = tf["duration_ratio"]
    aggregate_all(tf["stroke_duration_onsurf"], f"{p}.stroke_duration_onsurf", out)
    aggregate_all(tf["stroke_duration_inair"], f"{p}.stroke_duration_inair", out)
    aggregate_all(tf["stroke_duration_ratio"], f"{p}.stroke_duration_ratio", out)

    # kinematic
    p = f"{task}.kinematic"
    for scope_name, scope_strokes in (("onsurf", on), ("inair", air)):
        for proj in Projection:
            for order in ("velocity", "acceleration"):
                v = kinematic_vector(scope_strokes, proj, order)
                aggregate_all(
                    v, f"{p}.{order}_{proj.value}_{scope_name}", out)

    # dynamic (on-surface only: in-air pressure is physically zero and hover
    # orientation is noise-dominated)
    p = f"{task}.dynamic"
    try:
        dyn = dynamic_features(rec)
        for chan in ("pressure", "tilt", "azimuth"):
            aggregate_all(dyn[chan], f"{p}.{chan}_onsurf", out)
    except GraphokitError:
        for chan in ("pressure", "tilt", "azimuth"):
            aggregate_all([], f"{p}.{chan}_onsurf", out)

    # spatial
    p = f"{task}.spatial"
    for scope in (SurfaceScope.ON_SURFACE, SurfaceScope.IN_AIR):
        sfx = scope.value
        try:
            sp = spatial_features(rec, scope)
        except GraphokitError:
            sp = None
        for base in ("width", "height", "length"):
            out[f"{p}.{base}_{sfx}"] = sp[base] if sp else float("nan")
            aggregate_all(sp[f"stroke_{base}"] if sp else [],
                          f"{p}.stroke_{base}_{sfx}", out)

    # spiral-specific
    if task == "spiral":
        p = f"{task}.specific"
        try:
            trace = unwrap_polar(rec)
            spf = spiral_features(trace, rec)
        except GraphokitError:
            spf = {name: float("nan") for name in SPIRAL_FEATURE_NAMES}
        for name in SPIRAL_FEATURE_NAMES:
            out[f"{p}.{name}"] = spf[name]

    # other / events
    p = f"{task}.other"
    summary = stroke_summary(rec)
    out[f"{p}.interruptions"] = summary["interruptions"]
    out[f"{p}.tempo"] = summary["tempo"]
    out[f"{p}.pen_stops"] = count_pen_stops(rec)
    for mode in ("intra", "inter"):
        count, rel = count_intersections(on, mode)
        out[f"{p}.intersections_{mode}"] = count
        out[f"{p}.intersections_{mode}_rel"] = rel

    ent_glob, ent_vert = [], []
    for s in on:
        if s.n >= 2:
            ent_glob.append(shannon_entropy(np.hypot(np.diff(s.x),
                                                     np.diff(s.y))))
            ent_vert.append(shannon_entropy(s.y))
    out[f"{p}.entropy_glob_onsurf_median"] = \
        float(np.median(ent_glob)) if ent_glob else float("nan")
    out[f"{p}.entropy_vert_onsurf_median"] = \
        float(np.median(ent_vert)) if ent_vert else float("nan")

    changes, rels = [], []
    for s in on:
        vel = kinematic_vector([s], Projection.GLOBAL, "velocity")
        c, r = velocity_profile_changes(vel, s.duration)
        if not np.isnan(c):
            changes.append(c)
            rels.append(r)
    out[f"{p}.velocity_changes"] = float(np.sum(changes)) if changes else float("nan")
    out[f"{p}.velocity_changes_rel"] = float(np.median(rels)) if rels else float("nan")

    return out
