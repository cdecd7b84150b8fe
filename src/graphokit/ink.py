"""Core ink data model: recordings, validation and stroke segmentation.

A recording is stored as parallel numpy arrays (one per channel) so feature
code can stay vectorized. Timestamps are always seconds. All objects are
immutable after construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChannelOutOfRange, EmptyRecording, NonMonotoneTime

ON_SURFACE = 1
IN_AIR = 0


class Task(str, Enum):
    SPIRAL = "spiral"
    SENTENCE = "sentence"
    PENTAGONS = "pentagons"
    OTHER = "other"


class Surface(str, Enum):
    ON_SURFACE = "on_surface"
    IN_AIR = "in_air"


class InkRecording:
    """Immutable timestamped pen-sample sequence with channel data."""

    __slots__ = ("x", "y", "t", "pen_status", "pressure", "tilt", "azimuth",
                 "sampling_rate_hint", "task", "subject_id", "meta")

    def __init__(self, x, y, t, pen_status, pressure=None, tilt=None,
                 azimuth=None, sampling_rate_hint=130.0, task=Task.OTHER,
                 subject_id="", meta=None):
        n = len(t)
        if sampling_rate_hint <= 0:
            raise ValueError("sampling_rate_hint must be positive")

        def _chan(a, default=0.0):
            if a is None:
                a = np.full(n, default, dtype=float)
            a = np.asarray(a, dtype=float).copy()
            if len(a) != n:
                raise ValueError("channel length mismatch")
            a.flags.writeable = False
            return a

        object.__setattr__(self, "x", _chan(x))
        object.__setattr__(self, "y", _chan(y))
        object.__setattr__(self, "t", _chan(t))
        pen = np.asarray(pen_status, dtype=np.int8).copy()
        if len(pen) != n:
            raise ValueError("channel length mismatch")
        pen.flags.writeable = False
        object.__setattr__(self, "pen_status", pen)
        object.__setattr__(self, "pressure", _chan(pressure))
        object.__setattr__(self, "tilt", _chan(tilt))
        object.__setattr__(self, "azimuth", _chan(azimuth))
        object.__setattr__(self, "sampling_rate_hint", float(sampling_rate_hint))
        object.__setattr__(self, "task", Task(task))
        object.__setattr__(self, "subject_id", str(subject_id))
        object.__setattr__(self, "meta", dict(meta) if meta else {})

    def __setattr__(self, name, value):
        raise AttributeError("InkRecording is immutable")

    def __len__(self):
        return len(self.t)

    def __eq__(self, other):
        if not isinstance(other, InkRecording):
            return NotImplemented
        return (np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.pen_status, other.pen_status)
                and np.array_equal(self.pressure, other.pressure)
                and np.array_equal(self.tilt, other.tilt)
                and np.array_equal(self.azimuth, other.azimuth)
                and self.sampling_rate_hint == other.sampling_rate_hint
                and self.task == other.task
                and self.subject_id == other.subject_id)

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0]) if len(self) else 0.0

    def take(self, idx) -> "InkRecording":
        """Sub-recording at the given sample indices (metadata preserved)."""
        return InkRecording(self.x[idx], self.y[idx], self.t[idx],
                            self.pen_status[idx], self.pressure[idx],
                            self.tilt[idx], self.azimuth[idx],
                            sampling_rate_hint=self.sampling_rate_hint,
                            task=self.task, subject_id=self.subject_id,
                            meta=self.meta)


@dataclass(frozen=True)
class Stroke:
    """Maximal run of samples with constant pen status."""

    recording: InkRecording
    start: int
    stop: int  # exclusive
    surface: Surface
    index: int

    @property
    def n(self) -> int:
        return self.stop - self.start

    def __len__(self):
        return self.n

    @property
    def on_surface(self) -> bool:
        return self.surface is Surface.ON_SURFACE

    @property
    def x(self):
        return self.recording.x[self.start:self.stop]

    @property
    def y(self):
        return self.recording.y[self.start:self.stop]

    @property
    def t(self):
        return self.recording.t[self.start:self.stop]

    @property
    def pressure(self):
        return self.recording.pressure[self.start:self.stop]

    @property
    def tilt(self):
        return self.recording.tilt[self.start:self.stop]

    @property
    def azimuth(self):
        return self.recording.azimuth[self.start:self.stop]

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


def validate_recording(raw: InkRecording, strict: bool = False) -> InkRecording:
    """Return a cleaned recording with strictly increasing timestamps.

    Duplicate timestamps collapse to the last occurrence. In lenient mode
    out-of-range channel values are clamped with a warning and non-monotone
    timestamps are stably sorted; in strict mode both raise.
    """
    if len(raw) == 0:
        raise EmptyRecording("recording has no samples")

    t = raw.t
    order = np.arange(len(t))
    if np.any(np.diff(t) < 0):
        if strict:
            raise NonMonotoneTime("timestamps decrease")
        warnings.warn("non-monotone timestamps; reordering", stacklevel=2)
        order = np.argsort(t, kind="stable")
        t = t[order]

    # keep-last among equal timestamps
    keep = np.ones(len(t), dtype=bool)
    keep[:-1] = np.diff(t) > 0
    idx = order[keep]

    rec = raw.take(idx)
    pen = np.asarray(rec.pen_status)
    pressure, tilt, azimuth = rec.pressure, rec.tilt, rec.azimuth

    bad_pen = ~np.isin(pen, (0, 1))
    bad_pressure = pressure < 0
    bad_tilt = (tilt < 0) | (tilt > 90)
    bad_azimuth = (azimuth < 0) | (azimuth >= 360)
    if strict:
        for name, bad in (("pen_status", bad_pen), ("pressure", bad_pressure),
                          ("tilt", bad_tilt), ("azimuth", bad_azimuth)):
            if np.any(bad):
                raise ChannelOutOfRange(f"{name} out of range at sample "
                                        f"{int(np.flatnonzero(bad)[0])}")
    else:
        if np.any(bad_pen | bad_pressure | bad_tilt | bad_azimuth):
            warnings.warn("out-of-range channel values clamped", stacklevel=2)
        pen = np.where(pen != 0, 1, 0).astype(np.int8)
        pressure = np.clip(pressure, 0.0, None)
        tilt = np.clip(tilt, 0.0, 90.0)
        azimuth = np.mod(azimuth, 360.0)

    return InkRecording(rec.x, rec.y, rec.t, pen, pressure, tilt, azimuth,
                        sampling_rate_hint=rec.sampling_rate_hint,
                        task=rec.task, subject_id=rec.subject_id,
                        meta=rec.meta)


def segment_strokes(rec: InkRecording) -> list[Stroke]:
    """Split a recording into maximal constant-pen-status runs, in order."""
    if len(rec) == 0:
        return []
    pen = rec.pen_status
    boundaries = np.flatnonzero(np.diff(pen) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(rec)]))
    strokes = []
    for i, (a, b) in enumerate(zip(starts, stops)):
        surface = Surface.ON_SURFACE if pen[a] == ON_SURFACE else Surface.IN_AIR
        strokes.append(Stroke(rec, int(a), int(b), surface, i))
    return strokes


def on_surface_strokes(strokes) -> list[Stroke]:
    return [s for s in strokes if s.on_surface]


def in_air_strokes(strokes) -> list[Stroke]:
    return [s for s in strokes if not s.on_surface]
