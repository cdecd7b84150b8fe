"""SVC text-file parsing/serialization and cohort manifest loading.

SVC grammar: a header line holding the integer sample count N, then N lines
of 7 whitespace-separated numeric fields in the order
``x y timestamp pen_status azimuth tilt pressure``. Timestamps are device
milliseconds and are converted to seconds; azimuth and tilt arrive in device
tenths of a degree and are converted to degrees; pen status must be exactly 0
(in air) or 1 (on surface). LF and CRLF both accepted.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (FieldCountMismatch, FileMissing, GraphokitError,
                     MalformedHeader, ManifestError, NonNumericField,
                     ParseError, PenStatusOutOfRange, SampleCountMismatch)
from .ink import InkRecording, Task

# column positions of the canonical layout
SVC_FIELDS = ("x", "y", "t", "pen_status", "azimuth", "tilt", "pressure")

HC = 0
LBD = 1
LABEL_NAMES = {HC: "HC", LBD: "LBD"}


def parse_svc(data, task=Task.OTHER, subject_id="") -> InkRecording:
    """Parse SVC text (str or bytes) into an :class:`InkRecording`."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.replace("\r\n", "\n").strip("\n").split("\n")
    if not lines or not lines[0].strip():
        raise MalformedHeader("missing header line")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise MalformedHeader(f"header is not an integer: {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise SampleCountMismatch(f"header says {n} samples, found {len(body)}")

    values = _bulk_values(body, n) if n else None
    if values is None:
        values = _per_line_values(body, n)
    cols = dict(zip(SVC_FIELDS, values.T))
    pen = cols["pen_status"]
    bad = np.flatnonzero((pen != 0) & (pen != 1))
    if bad.size:
        line = int(bad[0]) + 2
        raise PenStatusOutOfRange(
            line, f"line {line}: pen status {pen[bad[0]]} is not 0 or 1")

    return InkRecording(
        x=cols["x"], y=cols["y"], t=cols["t"] / 1000.0, pen_status=pen,
        pressure=cols["pressure"],
        tilt=cols["tilt"] / 10.0,
        azimuth=cols["azimuth"] / 10.0,
        task=task, subject_id=subject_id)


def _bulk_values(body, n):
    """The ``(n, 7)`` field matrix in one ``np.loadtxt`` call, or None.

    loadtxt converts each token with ``PyOS_string_to_double``, the function
    behind ``float()``, and accepts a subset of ``float()``'s syntax, so any
    result it gives equals the per-line path's. ``comments=None`` keeps a
    ``#`` token a field. Whatever it rejects or reshapes (a wrong field
    count, a ``\\r`` inside a line, ``1_0``, non-ASCII digits) goes back to
    :func:`_per_line_values` for ``float()``'s value or its first bad line.
    """
    try:
        values = np.loadtxt(body, dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (n, len(SVC_FIELDS)) else None


def _per_line_values(body, n):
    """The ``(n, 7)`` field matrix with one ``float()`` per field, or the
    error of the first line with a wrong field count or a non-numeric field
    (lines count from 1, the header included)."""
    values = np.empty((n, len(SVC_FIELDS)))
    for i, line in enumerate(body):
        fields = line.split()
        if len(fields) != len(SVC_FIELDS):
            raise FieldCountMismatch(i + 2)
        for j, raw in enumerate(fields):
            try:
                values[i, j] = float(raw)
            except ValueError:
                raise NonNumericField(i + 2, f"line {i + 2}: bad field {raw!r}")
    return values


def serialize_svc(rec: InkRecording) -> str:
    """Inverse of :func:`parse_svc` (device units, whitespace-normalized).

    Scaled fields are rounded to 9 decimals in device units so that the
    multiply/divide unit conversion cannot leak 1-ulp drift into the file:
    any device value with at most 9 decimals is reproduced token-exactly.
    """
    columns = (
        map(_fmt, rec.x.tolist()), map(_fmt, rec.y.tolist()),
        map(_fmt, np.round(rec.t * 1000.0, 9).tolist()),
        map(str, rec.pen_status.tolist()),
        map(_fmt, np.round(rec.azimuth * 10.0, 9).tolist()),
        map(_fmt, np.round(rec.tilt * 10.0, 9).tolist()),
        map(_fmt, rec.pressure.tolist()))
    lines = map(" ".join, zip(*columns))
    return "\n".join((str(len(rec)), *lines)) + "\n"


def _fmt(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    label: int  # HC = 0, LBD = 1
    files: dict  # task name -> relative path


@dataclass(frozen=True)
class CohortManifest:
    entries: tuple
    metadata: dict = field(default_factory=dict)
    root: Path = Path(".")

    def __post_init__(self):
        ids = [e.subject_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ManifestError("duplicate subject_id in manifest")
        for e in self.entries:
            if not e.files:
                raise ManifestError(f"{e.subject_id}: no task files")
            if e.label not in (HC, LBD):
                raise ManifestError(f"{e.subject_id}: bad label {e.label}")


def load_manifest(path) -> CohortManifest:
    path = Path(path)
    if not path.exists():
        raise FileMissing(str(path))
    doc = json.loads(path.read_text())
    entries = []
    for item in doc.get("subjects", []):
        label = item["label"]
        if isinstance(label, str):
            label = {"HC": HC, "LBD": LBD}.get(label.upper())
            if label is None:
                raise ManifestError(f"unknown label for {item['subject_id']}")
        entries.append(ManifestEntry(subject_id=str(item["subject_id"]),
                                     label=int(label),
                                     files=dict(item["files"])))
    return CohortManifest(entries=tuple(entries),
                          metadata=doc.get("metadata", {}),
                          root=path.parent)


def save_manifest(manifest: CohortManifest, path) -> None:
    doc = {
        "subjects": [{"subject_id": e.subject_id,
                      "label": LABEL_NAMES[e.label],
                      "files": e.files} for e in manifest.entries],
        "metadata": manifest.metadata,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_cohort(manifest: CohortManifest, strict: bool = False):
    """Load all task recordings referenced by a manifest.

    Returns ``(per_task, warnings_list)`` where ``per_task`` maps task name
    to a list of ``(subject_id, label, InkRecording)`` in manifest order.
    Subjects missing a task, or whose file cannot be read or parsed, are
    omitted from that task with a warning record (lenient mode) or raise
    (strict mode). Any other exception propagates.
    """
    per_task: dict[str, list] = {}
    problems: list[str] = []
    for entry in manifest.entries:
        for task_name, rel in entry.files.items():
            fpath = manifest.root / rel
            if not fpath.exists():
                if strict:
                    raise FileMissing(str(fpath))
                problems.append(f"{entry.subject_id}/{task_name}: "
                                f"missing file {fpath}")
                continue
            try:
                task = Task(task_name) if task_name in Task._value2member_map_ \
                    else Task.OTHER
                rec = parse_svc(fpath.read_text(), task=task,
                                subject_id=entry.subject_id)
            except (GraphokitError, OSError, UnicodeDecodeError) as exc:
                if strict:
                    raise ParseError(f"{fpath}: {exc}") from exc
                problems.append(f"{entry.subject_id}/{task_name}: "
                                f"parse failed ({exc})")
                continue
            per_task.setdefault(task_name, []).append(
                (entry.subject_id, entry.label, rec))
    if problems:
        warnings.warn(f"{len(problems)} subject-task files skipped",
                      stacklevel=2)
    return per_task, problems
