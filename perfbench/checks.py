"""Output checks, computed apart from the program or from properties the
method must have. Each check raises :class:`CheckFailed` naming the first
thing that is wrong, and returns nothing when the output is right.

The readers here (SVC files, manifests, CSVs) are the benchmark's own and
share no code with graphokit.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

SVC_FIELDS = 7
ROUND_4DP = 5e-5  # largest rounding error of a value printed with 4 decimals
EPS = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---- SVC files and manifests ---------------------------------------------

def read_svc(text: str, name: str = "svc") -> np.ndarray:
    """Samples of one SVC file as an (n, 7) array in device units.

    Accepts a header line holding the sample count, then that many lines of
    7 numeric fields, with strictly increasing time (column 3) and pen
    status (column 4) in {0, 1}.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    require(lines, f"{name}: empty file")
    try:
        count = int(lines[0])
    except ValueError:
        raise CheckFailed(f"{name}: header {lines[0]!r} is not a count")
    body = lines[1:]
    require(len(body) == count,
             f"{name}: header says {count} samples, file has {len(body)}")
    rows = []
    for i, line in enumerate(body, start=2):
        fields = line.split()
        require(len(fields) == SVC_FIELDS,
                 f"{name}:{i}: {len(fields)} fields, expected {SVC_FIELDS}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise CheckFailed(f"{name}:{i}: non-numeric field")
    samples = np.array(rows, dtype=float).reshape(count, SVC_FIELDS)
    require(np.all(np.isfinite(samples)), f"{name}: non-finite field")
    require(np.all(np.diff(samples[:, 2]) > 0),
             f"{name}: time is not strictly increasing")
    require(np.all(np.isin(samples[:, 3], (0.0, 1.0))),
             f"{name}: pen status outside {{0, 1}}")
    return samples


def svc_facts(samples: np.ndarray) -> tuple:
    """(duration in s, pen 1->0 transitions) of one recording."""
    t, pen = samples[:, 2], samples[:, 3]
    duration = (t[-1] - t[0]) / 1000.0
    lifts = int(np.count_nonzero((pen[:-1] == 1) & (pen[1:] == 0)))
    return duration, lifts


def read_manifest(path) -> list:
    """(subject_id, label 0/1, {task: file path}) per manifest subject."""
    path = Path(path)
    doc = json.loads(path.read_text())
    label_codes = {"HC": 0, "LBD": 1}
    out = []
    for item in doc["subjects"]:
        label = item["label"]
        label = label_codes[label] if isinstance(label, str) else int(label)
        files = {task: path.parent / rel
                 for task, rel in item["files"].items()}
        out.append((item["subject_id"], label, files))
    return out


def cohort_facts(manifest_path) -> dict:
    """{(subject_id, task): (duration, lifts)} over every file the manifest
    names; every file must pass :func:`read_svc`."""
    facts = {}
    for sid, _, files in read_manifest(manifest_path):
        for task, path in files.items():
            samples = read_svc(path.read_text(), name=path.name)
            facts[(sid, task)] = svc_facts(samples)
    return facts


# ---- feature tables and screening ----------------------------------------

def read_table(path) -> tuple:
    """(feature names, subject ids, labels, values with NaN for blanks)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    require(header[:2] == ["subject_id", "label"],
             f"{path}: bad header {header[:2]}")
    values = np.array([[float(c) if c else np.nan for c in r[2:]]
                       for r in body], dtype=float)
    return (header[2:], [r[0] for r in body],
            np.array([int(r[1]) for r in body]), values)


def check_table_facts(table, task: str, facts: dict) -> None:
    """``<task>.temporal.duration`` and ``<task>.other.interruptions`` of
    every subject agree with the SVC reader's duration and pen lifts."""
    names, sids, _, values = table
    col_dur = names.index(f"{task}.temporal.duration")
    col_int = names.index(f"{task}.other.interruptions")
    for i, sid in enumerate(sids):
        duration, lifts = facts[(sid, task)]
        require(math.isclose(values[i, col_dur], duration, rel_tol=1e-12,
                              abs_tol=1e-12),
                 f"{task}/{sid}: duration {values[i, col_dur]!r} != "
                 f"{duration!r} from the SVC file")
        require(values[i, col_int] == lifts,
                 f"{task}/{sid}: interruptions {values[i, col_int]!r} != "
                 f"{lifts} pen lifts in the SVC file")


def read_screen(path) -> list:
    """Rows of an ``analyze`` CSV as dicts of strings, in file order."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(rows, f"{path}: no screened features")
    return rows


def check_screen(table, screen: list) -> None:
    """Every ``p_u`` equals scipy's two-sided Mann-Whitney p printed the same
    way: asymptotic with continuity correction, or exact for tie-free
    samples of at most 12 values, where graphokit enumerates; BH q satisfies
    p <= q <= 1 and does not decrease in p order."""
    names, _, labels, values = table
    col = {name: j for j, name in enumerate(names)}
    for row in screen:
        x = values[:, col[row["feature"]]]
        ok = np.isfinite(x)
        exact = ok.sum() <= 12 and len(np.unique(x[ok])) == ok.sum()
        p = mannwhitneyu(x[ok & (labels == 0)], x[ok & (labels == 1)],
                         alternative="two-sided",
                         method="exact" if exact else "asymptotic",
                         use_continuity=True).pvalue
        require(f"{p:.6g}" == row["p_u"],
                 f"{row['feature']}: p_u {row['p_u']} != scipy {p:.6g}")
    pq = sorted((float(r["p_u"]), float(r["q"])) for r in screen)
    for p, q in pq:
        require(p <= q <= 1.0, f"q {q} outside [p, 1] for p {p}")
    qs = [q for _, q in pq]
    require(all(a <= b for a, b in zip(qs, qs[1:])),
             "BH q decreases in p order")


def check_top5(screen: list, tags) -> None:
    """One of ``tags`` names a feature among the first five screened."""
    top5 = [r["feature"] for r in screen[:5]]
    require(any(tag in name for name in top5 for tag in tags),
             f"no injected effect {tags} in the top 5 {top5}")


# ---- training report and ROC ---------------------------------------------

def _close4(reported: float, exact: float) -> bool:
    if math.isnan(exact) or math.isnan(reported):
        return math.isnan(exact) and math.isnan(reported)
    return abs(reported - exact) <= ROUND_4DP + EPS


def check_p_value(p: float, m: int) -> None:
    """p = (b + 1) / (m + 1) for a count b in 0..m."""
    k = p * (m + 1)
    require(abs(k - round(k)) <= 1e-6 and 1 <= round(k) <= m + 1,
             f"p {p!r} is not (b+1)/{m + 1} for an integer b in 0..{m}")


def read_report(path) -> dict:
    """``report.csv`` as {task: {column: float}}."""
    with open(path, newline="") as fh:
        return {r["task"]: {k: float(v) for k, v in r.items() if k != "task"}
                for r in csv.DictReader(fh)}


def check_report_row(row: dict, n_pos: int, n_neg: int, m: int) -> None:
    """BACC = (SEN+SPE)/2, and MCC, PRE, F1 equal the values recomputed from
    the confusion counts that SEN, SPE and the class counts imply."""
    tp, tn = round(row["SEN"] * n_pos), round(row["SPE"] * n_neg)
    require(_close4(row["SEN"], tp / n_pos) and _close4(row["SPE"],
                                                         tn / n_neg),
             f"SEN {row['SEN']} / SPE {row['SPE']} are not counts over "
             f"{n_pos}/{n_neg}")
    fn, fp = n_pos - tp, n_neg - tn
    require(abs(row["BACC"] - (row["SEN"] + row["SPE"]) / 2)
             <= 2 * ROUND_4DP + EPS,
             f"BACC {row['BACC']} != (SEN+SPE)/2")
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    exact = {
        "BACC": (tp / n_pos + tn / n_neg) / 2,
        "PRE": tp / (tp + fp) if tp + fp else math.nan,
        "F1": 2 * tp / (2 * tp + fp + fn) if tp else math.nan,
        "MCC": (tp * tn - fp * fn) / math.sqrt(denom) if denom else math.nan,
    }
    for key, value in exact.items():
        require(_close4(row[key], value),
                 f"{key} {row[key]} != {value:.6f} recomputed from "
                 f"TP={tp} TN={tn} FP={fp} FN={fn}")
    check_p_value(row["p"], m)


def read_roc(path) -> np.ndarray:
    """``roc_<task>.csv`` rows as an (n, 3) array: threshold, fpr, tpr."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(r["threshold"]), float(r["fpr"]),
                      float(r["tpr"])] for r in rows], dtype=float)


def check_roc(roc: np.ndarray, auc: float) -> None:
    """Thresholds ascend; from the highest threshold down the curve runs
    monotone from (0, 0) to (1, 1); its trapezoidal area equals ``auc``
    within the 4-decimal rounding of the report."""
    require(len(roc) >= 2, "ROC has fewer than two points")
    require(np.all(np.diff(roc[:, 0]) > 0), "ROC thresholds do not ascend")
    fpr, tpr = roc[::-1, 1], roc[::-1, 2]
    require(fpr[0] == 0 and tpr[0] == 0, "ROC does not start at (0, 0)")
    require(fpr[-1] == 1 and tpr[-1] == 1, "ROC does not end at (1, 1)")
    require(np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0),
             "ROC is not monotone")
    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
    require(abs(area - auc) <= ROUND_4DP + 1e-8,
             f"ROC area {area:.6f} != reported AUC {auc}")


# ---- null protocol -------------------------------------------------------

def u_statistic_auc(labels, probs) -> float:
    """U / (n_pos * n_neg) with ties counting one half, by enumeration."""
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=float)
    pos, neg = probs[labels == 1], probs[labels == 0]
    diff = pos[:, None] - neg[None, :]
    u = np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
    return u / (len(pos) * len(neg))


def check_auc_identity(labels, probs, auc: float) -> None:
    """The LOOCV AUC equals U / (n_pos * n_neg) (AC6's identity)."""
    expected = u_statistic_auc(labels, probs)
    require(abs(expected - auc) <= 1e-12,
             f"AUC {auc!r} != U/(n_pos*n_neg) = {expected!r}")


def check_null_share(aucs, ps, share: float = 18 / 20) -> None:
    """AUC in [0.3, 0.7] and p > 0.05 each hold on at least AC7's share of
    the cohorts (18 of 20)."""
    need = math.ceil(share * len(aucs) - 1e-9)
    in_band = sum(0.3 <= a <= 0.7 for a in aucs)
    above = sum(p > 0.05 for p in ps)
    require(in_band >= need, f"AUC in [0.3, 0.7] on {in_band} of "
                              f"{len(aucs)} null cohorts, need {need}")
    require(above >= need, f"p > 0.05 on {above} of {len(ps)} null "
                            f"cohorts, need {need}")
