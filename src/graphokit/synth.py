"""Synthetic ink generator: parametric spiral / scribble / pentagon traces
with controllable impairment knobs, plus a full on-disk cohort writer.

Every generator is deterministic per seed, produces recordings that pass
strict validation, and attaches ground-truth metadata (true growth rate,
arc length, stop/lift counts, bounding width) for oracle-style tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidParams
from .ink import InkRecording, Task
from .svcio import (HC, LBD, CohortManifest, ManifestEntry, save_manifest,
                    serialize_svc)


@dataclass(frozen=True)
class ImpairmentProfile:
    radial_noise_sigma: float = 0.0
    velocity_scale: float = 1.0      # <= 1 slows writing
    pen_stop_count: int = 0
    pen_stop_duration: float = 0.05  # seconds per inserted hold
    width_drift: float = 0.0         # progressive size reduction per second
    extra_lift_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.velocity_scale <= 1:
            raise InvalidParams("velocity_scale must be in (0, 1]")
        if (self.radial_noise_sigma < 0 or self.pen_stop_count < 0
                or self.pen_stop_duration < 0 or self.width_drift < 0
                or self.extra_lift_count < 0):
            raise InvalidParams("impairment knobs must be non-negative")


@dataclass(frozen=True)
class ImpairmentDelta:
    """Group-level shift applied to LBD profiles, following the reported
    effect directions (more noise, slower writing, extra stops, smaller and
    shrinking writing)."""
    sigma: float = 0.0
    velocity_factor: float = 1.0
    extra_stops: int = 0
    width_shrink: float = 0.0
    extra_lifts: int = 0


STRONG_DELTA = ImpairmentDelta(sigma=2.0, velocity_factor=0.6, extra_stops=4,
                               width_shrink=0.25)


def _tremor_noise(n, sigma, rng, rate_hz):
    """Band-limited Gaussian positional noise with marginal std ``sigma``.

    White noise is smoothed over a ~100 ms window so the jitter resembles
    low-frequency tremor rather than sample-rate chatter; unsmoothed noise
    would add spurious velocity proportional to the sampling rate and invert
    the slow-writing effect it is meant to accompany.
    """
    if sigma == 0.0 or n == 0:
        return np.zeros(n)
    w = np.hanning(max(3, int(round(0.1 * rate_hz)) | 1))
    white = rng.standard_normal(n + len(w) - 1)
    return np.convolve(white, w, mode="valid") * (sigma / np.linalg.norm(w))


def _default_channels(n, pen, rng):
    pressure = np.where(pen == 1, 512.0 + 20.0 * rng.standard_normal(n), 0.0)
    tilt = 60.0 + 3.0 * rng.standard_normal(n)
    azimuth = 180.0 + 8.0 * rng.standard_normal(n)
    return (np.clip(pressure, 0.0, None), np.clip(tilt, 0.0, 90.0),
            np.mod(azimuth, 360.0))


def _insert_stops(arrays, pen, t, rate_hz, count, duration, rng):
    """Duplicate randomly chosen on-surface samples into stationary holds."""
    if count == 0:
        return arrays, pen, t
    k = max(1, math.ceil(duration * rate_hz))
    n = len(t)
    margin = max(2, n // 20)
    lo, hi = margin, n - margin
    # keep holds well apart so they never merge
    candidates = np.arange(lo, hi)
    candidates = candidates[pen[candidates] == 1]
    positions = []
    min_gap = max(2 * k + 4, int(0.5 * rate_hz))
    for pos in rng.permutation(candidates):
        if all(abs(pos - q) >= min_gap for q in positions):
            positions.append(int(pos))
        if len(positions) == count:
            break
    if len(positions) < count:
        raise InvalidParams("recording too short for requested pen stops")
    dt = 1.0 / rate_hz
    for pos in sorted(positions, reverse=True):
        arrays = [np.insert(a, pos, np.repeat(a[pos], k)) for a in arrays]
        pen = np.insert(pen, pos, np.repeat(pen[pos], k))
        hold_t = t[pos] + dt * np.arange(1, k + 1)
        t = np.concatenate((t[:pos + 1], hold_t, t[pos + 1:] + k * dt))
    return arrays, pen, t


def _insert_lifts(pen, count, rng, span=3):
    """Flip short interior runs to in-air, adding one interruption each."""
    if count == 0:
        return pen, 0
    n = len(pen)
    placed = 0
    positions = []
    for pos in rng.permutation(np.arange(span + 2, n - span - 2)):
        if pen[pos - 1] != 1 or np.any(pen[pos:pos + span] != 1) \
                or pen[pos + span] != 1:
            continue
        if any(abs(pos - q) < 4 * span for q in positions):
            continue
        pen[pos:pos + span] = 0
        positions.append(pos)
        placed += 1
        if placed == count:
            break
    return pen, placed


def _finish(x, y, t, pen, rng, task, meta, rate_hz, profile):
    arrays = [x, y]
    arrays, pen, t = _insert_stops(arrays, pen, t, rate_hz,
                                   profile.pen_stop_count,
                                   profile.pen_stop_duration, rng)
    x, y = arrays
    pen, placed = _insert_lifts(pen, profile.extra_lift_count, rng)
    meta = dict(meta)
    meta["true_stop_count"] = profile.pen_stop_count
    meta["true_extra_lifts"] = placed
    n = len(t)
    pressure, tilt, azimuth = _default_channels(n, pen, rng)
    return InkRecording(x, y, t, pen, pressure, tilt, azimuth,
                        task=task, meta=meta)


def spiral_arc_length(b: float, theta_max: float) -> float:
    """Closed-form arc length of r = b*theta from 0 to theta_max."""
    return b / 2.0 * (theta_max * math.sqrt(1 + theta_max ** 2)
                      + math.asinh(theta_max))


def gen_spiral(b: float = 5.0, turns: float = 3.0, duration_s: float = 10.0,
               rate_hz: float = 130.0, profile: ImpairmentProfile | None = None,
               center=(500.0, 500.0), clockwise: bool = False) -> InkRecording:
    """Archimedean spiral r = b*theta traced at constant angular speed."""
    if b <= 0 or turns < 1 or duration_s <= 0 or rate_hz <= 0:
        raise InvalidParams("need b > 0, turns >= 1, positive duration/rate")
    profile = profile or ImpairmentProfile()
    rng = np.random.default_rng(profile.seed)
    span = duration_s / profile.velocity_scale
    n = int(round(span * rate_hz)) + 1
    t = np.arange(n) / rate_hz
    theta_max = 2 * math.pi * turns
    theta = theta_max * t / t[-1]
    r = b * theta + _tremor_noise(n, profile.radial_noise_sigma, rng, rate_hz)
    r = np.clip(r, 0.0, None)
    sign = -1.0 if clockwise else 1.0
    x = center[0] + r * np.cos(sign * theta)
    y = center[1] + r * np.sin(sign * theta)
    pen = np.ones(n, dtype=np.int8)
    meta = {"true_b": b, "true_turns": turns,
            "true_arc_length": spiral_arc_length(b, theta_max),
            "true_duration": span}
    return _finish(x, y, t, pen, rng, Task.SPIRAL, meta, rate_hz, profile)


def gen_scribble(word_count: int = 4, duration_s: float = 8.0,
                 rate_hz: float = 130.0,
                 profile: ImpairmentProfile | None = None) -> InkRecording:
    """Structured multi-stroke scribble standing in for sentence writing.

    ``word_count`` sinusoid-composed on-surface strokes separated by in-air
    transitions; interruptions = word_count - 1 + extra lifts.
    """
    if word_count < 1 or duration_s <= 0 or rate_hz <= 0:
        raise InvalidParams("need word_count >= 1, positive duration/rate")
    profile = profile or ImpairmentProfile()
    rng = np.random.default_rng(profile.seed)
    span = duration_s / profile.velocity_scale
    n = int(round(span * rate_hz)) + 1
    t = np.arange(n) / rate_hz
    # word windows with short in-air gaps between them
    gap_frac = 0.06
    word_len = (1.0 - gap_frac * (word_count - 1)) / word_count
    phase = t / t[-1]
    pen = np.ones(n, dtype=np.int8)
    for w in range(1, word_count):
        gap_start = w * (word_len + gap_frac) - gap_frac
        pen[(phase >= gap_start) & (phase < gap_start + gap_frac)] = 0

    amp0 = 30.0
    amp = amp0 * np.clip(1.0 - profile.width_drift * t, 0.25, 1.0)
    x = 200.0 + 1800.0 * phase + 4.0 * np.sin(2 * np.pi * 11.0 * phase)
    y = 400.0 + amp * np.sin(2 * np.pi * (3.0 * word_count) * phase)
    y = y + 0.3 * amp * np.sin(2 * np.pi * (7.3 * word_count) * phase)
    sigma = profile.radial_noise_sigma
    if sigma > 0:
        x = x + _tremor_noise(n, sigma, rng, rate_hz)
        y = y + _tremor_noise(n, sigma, rng, rate_hz)
    meta = {"true_word_count": word_count,
            "true_interruptions": word_count - 1 + profile.extra_lift_count,
            "true_duration": span}
    return _finish(x, y, t, pen, rng, Task.SENTENCE, meta, rate_hz, profile)


def _pentagon(center, radius, rotation=math.pi / 2):
    angles = rotation + 2 * math.pi * np.arange(6) / 5  # closed (6 points)
    return np.column_stack((center[0] + radius * np.cos(angles),
                            center[1] + radius * np.sin(angles)))


def _trace_polyline(vertices, n_samples):
    seg = np.diff(vertices, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate(([0.0], np.cumsum(seg_len)))
    u = np.linspace(0.0, s[-1], n_samples)
    return (np.interp(u, s, vertices[:, 0]),
            np.interp(u, s, vertices[:, 1]))


def gen_pentagons(scale: float = 1.0, duration_s: float = 6.0,
                  rate_hz: float = 130.0,
                  profile: ImpairmentProfile | None = None) -> InkRecording:
    """Two overlapping regular pentagons drawn as two strokes.

    The canonical overlap has exactly 2 inter-stroke boundary crossings
    (two convex closed curves, neither containing the other).
    """
    if scale <= 0 or duration_s <= 0 or rate_hz <= 0:
        raise InvalidParams("need positive scale, duration and rate")
    profile = profile or ImpairmentProfile()
    rng = np.random.default_rng(profile.seed)
    span = duration_s / profile.velocity_scale
    n = int(round(span * rate_hz)) + 1
    t = np.arange(n) / rate_hz

    radius = 60.0 * scale
    pent_a = _pentagon((400.0, 400.0), radius, rotation=math.pi / 2 + 0.13)
    pent_b = _pentagon((400.0 + 1.15 * radius, 400.0), radius,
                       rotation=math.pi / 2 + 0.41)
    n_gap = max(3, n // 40)
    n_a = (n - n_gap) // 2
    n_b = n - n_gap - n_a
    xa, ya = _trace_polyline(pent_a, n_a)
    xb, yb = _trace_polyline(pent_b, n_b)
    # in-air bridge from the end of A to the start of B
    xg = np.linspace(xa[-1], xb[0], n_gap + 2)[1:-1]
    yg = np.linspace(ya[-1], yb[0], n_gap + 2)[1:-1]
    x = np.concatenate((xa, xg, xb))
    y = np.concatenate((ya, yg, yb))
    pen = np.concatenate((np.ones(n_a, dtype=np.int8),
                          np.zeros(n_gap, dtype=np.int8),
                          np.ones(n_b, dtype=np.int8)))
    sigma = profile.radial_noise_sigma
    if sigma > 0:
        x = x + _tremor_noise(n, sigma, rng, rate_hz)
        y = y + _tremor_noise(n, sigma, rng, rate_hz)
    verts = np.vstack((pent_a, pent_b))
    meta = {"true_intersections": 2,
            "true_width": float(verts[:, 0].max() - verts[:, 0].min()),
            "true_duration": span}
    return _finish(x, y, t, pen, rng, Task.PENTAGONS, meta, rate_hz, profile)


def _subject_profile(rng, delta: ImpairmentDelta, impaired: bool,
                     seed: int) -> ImpairmentProfile:
    prof = ImpairmentProfile(
        radial_noise_sigma=float(abs(rng.normal(0.0, 0.25))),
        velocity_scale=float(np.clip(1.0 - abs(rng.normal(0.0, 0.05)),
                                     0.8, 1.0)),
        pen_stop_count=int(rng.integers(0, 2)),
        extra_lift_count=int(rng.integers(0, 2)),
        seed=seed)
    if impaired:
        prof = replace(
            prof,
            radial_noise_sigma=prof.radial_noise_sigma + delta.sigma,
            velocity_scale=float(np.clip(
                prof.velocity_scale * delta.velocity_factor, 0.05, 1.0)),
            pen_stop_count=prof.pen_stop_count + delta.extra_stops,
            extra_lift_count=prof.extra_lift_count + delta.extra_lifts,
            width_drift=0.04 * delta.width_shrink)
    return prof


def gen_cohort(n_hc: int, n_lbd: int, delta: ImpairmentDelta | None = None,
               seed: int = 0, out_dir=None) -> CohortManifest:
    """Write a complete synthetic cohort (3 tasks per subject) to disk."""
    if n_hc < 5 or n_lbd < 5:
        raise InvalidParams("need at least 5 subjects per group")
    if out_dir is None:
        raise InvalidParams("out_dir is required")
    delta = delta or ImpairmentDelta()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    labels = [HC] * n_hc + [LBD] * n_lbd
    for i, label in enumerate(labels):
        rng = np.random.default_rng([seed, i])
        impaired = label == LBD
        sid = f"{'lbd' if impaired else 'hc'}{i:03d}"
        sub_seed = int(rng.integers(2 ** 31))
        prof = _subject_profile(rng, delta, impaired, sub_seed)
        scale = 1.0 + float(rng.normal(0.0, 0.03))
        if impaired:
            scale *= (1.0 - delta.width_shrink)
        recs = {
            "spiral": gen_spiral(profile=prof),
            "sentence": gen_scribble(profile=prof),
            "pentagons": gen_pentagons(scale=scale, profile=prof),
        }
        files = {}
        for task, rec in recs.items():
            rel = f"{sid}_{task}.svc"
            (out_dir / rel).write_text(serialize_svc(rec))
            files[task] = rel
        entries.append(ManifestEntry(subject_id=sid, label=label,
                                     files=files))

    manifest = CohortManifest(entries=tuple(entries),
                              metadata={"generator": "graphokit-synth",
                                        "seed": seed}, root=out_dir)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
