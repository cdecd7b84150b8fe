"""Cohort feature matrix: named columns, subject rows, binary labels.

CSV contract: header row ``subject_id,label,<feature names...>``; missing
values are empty cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyIntersection, GraphokitError


@dataclass(frozen=True)
class FeatureTable:
    feature_names: tuple
    subject_ids: tuple
    labels: np.ndarray   # int, HC=0 / LBD=1
    values: np.ndarray   # float, shape (n_subjects, n_features); NaN = missing

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if values.shape != (len(self.subject_ids), len(self.feature_names)):
            raise GraphokitError("feature matrix shape mismatch")
        if len(labels) != len(self.subject_ids):
            raise GraphokitError("labels length mismatch")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise GraphokitError("duplicate feature names")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @classmethod
    def from_rows(cls, rows) -> "FeatureTable":
        """Build from ``(subject_id, label, {feature: value})`` triples.

        The column set is the union of all row keys; absent entries are NaN.
        """
        rows = list(rows)
        names: list[str] = []
        seen = set()
        for _, _, feats in rows:
            for k in feats:
                if k not in seen:
                    seen.add(k)
                    names.append(k)
        values = np.full((len(rows), len(names)), np.nan)
        col = {k: j for j, k in enumerate(names)}
        for i, (_, _, feats) in enumerate(rows):
            for k, v in feats.items():
                values[i, col[k]] = v
        return cls(feature_names=tuple(names),
                   subject_ids=tuple(r[0] for r in rows),
                   labels=np.array([r[1] for r in rows], dtype=int),
                   values=values)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "label", *self.feature_names])
            for i, sid in enumerate(self.subject_ids):
                row = [sid, int(self.labels[i])]
                for v in self.values[i]:
                    row.append("" if math.isnan(v) else repr(float(v)))
                w.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["subject_id", "label"]:
                raise GraphokitError(f"{path}: missing subject_id/label columns")
            names = tuple(header[2:])
            sids, labels, rows = [], [], []
            for row in reader:
                sids.append(row[0])
                labels.append(int(row[1]))
                rows.append([float(c) if c != "" else np.nan
                             for c in row[2:]])
        return cls(feature_names=names, subject_ids=tuple(sids),
                   labels=np.array(labels, dtype=int),
                   values=np.array(rows, dtype=float).reshape(len(sids),
                                                              len(names)))


def combine_tasks(tables: dict) -> "FeatureTable":
    """Column-wise concatenation over the subject intersection.

    Subjects missing from any task table are dropped. Feature names are
    expected to carry their task prefix already (the extraction contract),
    so columns are concatenated as-is.
    """
    if not tables:
        raise EmptyIntersection("no tables to combine")
    items = list(tables.items())
    shared = set(items[0][1].subject_ids)
    for _, tab in items[1:]:
        shared &= set(tab.subject_ids)
    if not shared:
        raise EmptyIntersection("no subjects shared across tasks")
    # manifest order of the first table
    sids = [s for s in items[0][1].subject_ids if s in shared]

    names: list[str] = []
    blocks = []
    labels = None
    for _, tab in items:
        pos = {s: i for i, s in enumerate(tab.subject_ids)}
        rows = np.array([pos[s] for s in sids])
        names.extend(tab.feature_names)
        blocks.append(tab.values[rows])
        lab = tab.labels[rows]
        if labels is None:
            labels = lab
        elif not np.array_equal(labels, lab):
            raise GraphokitError("conflicting labels across task tables")
    return FeatureTable(tuple(names), tuple(sids), labels,
                        np.concatenate(blocks, axis=1))
