"""Evaluation protocol: confusion metrics, stratified repeated CV,
randomized hyperparameter search, ROC threshold tuning, leave-one-out
evaluation and the label-permutation significance test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gbt
from .errors import (ClassTooSmall, DegenerateProbs, EmptyMatrix,
                     GraphokitError, InvalidParams, SingleClass)
from .gbt import PAPER_GRIDS, HyperParams
from .table import FeatureTable

METRIC_NAMES = ("MCC", "BACC", "SEN", "SPE", "PRE", "F1")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise EmptyMatrix("negative count")
        if self.tp + self.fp + self.tn + self.fn == 0:
            raise EmptyMatrix("empty confusion matrix")

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionMatrix":
        y_true = np.asarray(y_true).astype(int)
        y_pred = np.asarray(y_pred).astype(int)
        return cls(tp=int(np.sum((y_true == 1) & (y_pred == 1))),
                   fp=int(np.sum((y_true == 0) & (y_pred == 1))),
                   tn=int(np.sum((y_true == 0) & (y_pred == 0))),
                   fn=int(np.sum((y_true == 1) & (y_pred == 0))))


def metrics(cm: ConfusionMatrix) -> dict:
    """MCC, BACC, SEN, SPE, PRE, F1; zero-denominator entries are NaN."""
    tp, fp, tn, fn = cm.tp, cm.fp, cm.tn, cm.fn

    def ratio(num, den):
        return num / den if den > 0 else float("nan")

    sen = ratio(tp, tp + fn)
    spe = ratio(tn, tn + fp)
    pre = ratio(tp, tp + fp)
    bacc = 0.5 * (sen + spe)
    f1 = (2 * pre * sen / (pre + sen)
          if np.isfinite(pre) and np.isfinite(sen) and (pre + sen) > 0
          else float("nan"))
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = ((tp * tn - fp * fn) / np.sqrt(denom) if denom > 0
           else float("nan"))
    return {"MCC": float(mcc), "BACC": float(bacc), "SEN": float(sen),
            "SPE": float(spe), "PRE": float(pre), "F1": float(f1)}


def roc_points(labels, probs) -> list:
    """(threshold, fpr, tpr) triples, sorted by ascending threshold.

    Thresholds are the distinct probabilities (decision rule: prob >=
    threshold is positive) plus a sentinel above the maximum so the curve
    reaches (0, 0).
    """
    labels = np.asarray(labels).astype(int)
    probs = np.asarray(probs, dtype=float)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("need both classes for a ROC")
    order = np.argsort(-probs, kind="stable")
    sorted_probs = probs[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels == 1)
    fps = np.cumsum(sorted_labels == 0)
    # last index of each distinct probability
    distinct = np.flatnonzero(np.diff(sorted_probs, append=-np.inf) != 0)
    pts = [(float(sorted_probs[0]) + 1.0, 0.0, 0.0)]
    for i in distinct:
        pts.append((float(sorted_probs[i]), fps[i] / n_neg, tps[i] / n_pos))
    pts.sort(key=lambda p: p[0])
    return pts


def auc_from_roc(points) -> float:
    """Trapezoidal area under the (fpr, tpr) polyline."""
    fpr = np.array([p[1] for p in points])
    tpr = np.array([p[2] for p in points])
    # ties in fpr must keep tpr ascending, or vertical segments of the
    # curve would fold back and shave area off the trapezoids
    order = np.lexsort((tpr, fpr))
    return float(np.trapezoid(tpr[order], fpr[order]))


def auc_score(labels, probs) -> float:
    return auc_from_roc(roc_points(labels, probs))


def stratified_kfold(labels, k: int = 5, repeats: int = 10,
                     seed: int = 0) -> list:
    """(train_idx, test_idx) pairs: ``repeats`` shuffled stratified
    partitions of ``k`` folds each, deterministic per seed."""
    labels = np.asarray(labels).astype(int)
    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    for cls in classes:
        if np.sum(labels == cls) < k:
            raise ClassTooSmall(f"class {cls} has fewer than {k} members")
    n = len(labels)
    splits = []
    for _ in range(repeats):
        fold_of = np.empty(n, dtype=int)
        fold_sizes = np.zeros(k, dtype=int)
        # larger classes first so remainders land on the lightest folds
        for cls in sorted(classes, key=lambda c: -np.sum(labels == c)):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            counts = np.full(k, len(idx) // k)
            for extra in range(len(idx) % k):
                lightest = int(np.lexsort((np.arange(k), fold_sizes + counts))[0])
                counts[lightest] += 1
            start = 0
            for f in range(k):
                fold_of[idx[start:start + counts[f]]] = f
                start += counts[f]
            fold_sizes += counts
        for f in range(k):
            test = np.flatnonzero(fold_of == f)
            train = np.flatnonzero(fold_of != f)
            splits.append((train, test))
    return splits


def _bacc_at(y_true, probs, threshold=0.5) -> float:
    cm = ConfusionMatrix.from_predictions(y_true, probs >= threshold)
    return metrics(cm)["BACC"]


def cv_scores(X, y, params: HyperParams, splits) -> float:
    """Mean BACC over CV splits at the default 0.5 decision threshold."""
    scores = []
    for i, (train, test) in enumerate(splits):
        model = gbt.fit(X[train], y[train], params.with_seed(params.seed + i))
        probs = model.predict_proba(X[test])
        scores.append(_bacc_at(y[test], probs))
    return float(np.mean(scores))


def cv_probabilities(X, y, params: HyperParams, splits) -> np.ndarray:
    """Per-subject held-out probability, averaged over repeats."""
    total = np.zeros(len(y))
    hits = np.zeros(len(y))
    for i, (train, test) in enumerate(splits):
        model = gbt.fit(X[train], y[train], params.with_seed(params.seed + i))
        total[test] += model.predict_proba(X[test])
        hits[test] += 1
    if np.any(hits == 0):
        raise InvalidParams("CV splits do not cover every subject")
    return total / hits


def random_search(table: FeatureTable, grids=None, iterations: int = 1000,
                  seed: int = 0, k: int = 5, repeats: int = 10):
    """Uniform randomized search over the hyperparameter grids.

    Every trial is scored by mean BACC over the k*repeats CV splits at the
    default 0.5 threshold; a trial whose fits raise a GraphokitError scores
    0; ties keep the earlier trial.
    Returns (best HyperParams, best mean BACC).
    """
    if iterations < 1:
        raise InvalidParams("iterations must be >= 1")
    grids = dict(PAPER_GRIDS if grids is None else grids)
    if any(len(v) == 0 for v in grids.values()):
        raise InvalidParams("empty hyperparameter grid")
    rng = np.random.default_rng(seed)
    X, y = table.values, table.labels
    splits = stratified_kfold(y, k=k, repeats=repeats, seed=seed)
    n_est = grids.pop("n_estimators", (100,))
    best_params, best_score = None, -np.inf
    for it in range(iterations):
        draw = {name: values[rng.integers(len(values))]
                for name, values in grids.items()}
        draw["n_estimators"] = int(n_est[rng.integers(len(n_est))])
        params = HyperParams(seed=seed, **draw)
        try:
            score = cv_scores(X, y, params, splits)
        except GraphokitError:
            score = 0.0
        if score > best_score:
            best_params, best_score = params, score
    return best_params, best_score


def tune_threshold(probs, labels, objective: str = "youden") -> float:
    """Decision threshold from the ROC of cross-validated probabilities.

    Candidates are midpoints between adjacent distinct probabilities;
    the maximizer of Youden's J (or F1) wins, ties broken by proximity
    to 0.5.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels).astype(int)
    distinct = np.unique(probs)
    if len(distinct) < 2:
        raise DegenerateProbs("all probabilities identical")
    if np.all(labels == labels[0]):
        raise SingleClass("need both classes to tune a threshold")
    candidates = (distinct[:-1] + distinct[1:]) / 2.0
    best_thr, best_score = None, -np.inf
    for thr in candidates:
        m = metrics(ConfusionMatrix.from_predictions(labels, probs >= thr))
        if objective == "youden":
            score = m["SEN"] + m["SPE"] - 1.0
        elif objective == "f1":
            score = m["F1"] if np.isfinite(m["F1"]) else -1.0
        else:
            raise InvalidParams(f"unknown objective {objective!r}")
        if (score > best_score + 1e-12
                or (abs(score - best_score) <= 1e-12
                    and best_thr is not None
                    and abs(thr - 0.5) < abs(best_thr - 0.5) - 1e-12)):
            best_thr, best_score = float(thr), score
    return best_thr


@dataclass
class EvaluationReport:
    task: str
    confusion: ConfusionMatrix
    metrics: dict
    threshold: float
    roc: list
    auc: float
    params: HyperParams
    probs: np.ndarray
    permutation_p: float = float("nan")
    search_bacc: float = float("nan")
    threshold_tuned: bool = True
    loocv_split_free: bool = False


def loocv_evaluate(table: FeatureTable, params: HyperParams,
                   threshold: float, task: str = "") -> EvaluationReport:
    """Leave-one-out evaluation at a fixed decision threshold.

    Each training fold misses exactly one member of the left-out subject's
    class, so every fold prior leans against that subject; uncorrected this
    anti-correlates scores with labels even on pure-noise features. The
    tuned scale_pos_weight is therefore multiplied per fold by the ratio
    that restores the full-cohort class balance. When every fold model is
    split-free that correction still leaves one probability per left-out
    class, so the report's ``loocv_split_free`` flags an AUC that reflects
    only the fold class balance.
    """
    X, y = table.values, table.labels
    n = len(y)
    if n < 3 or len(np.unique(y)) < 2:
        raise InvalidParams("need n >= 3 with both classes")
    n_pos = int(np.sum(y == 1))
    n_neg = n - n_pos
    full_ratio = n_neg / n_pos
    probs = np.empty(n)
    split_free = True
    for i in range(n):
        keep = np.arange(n) != i
        fold_ratio = (n_neg - (y[i] == 0)) / (n_pos - (y[i] == 1))
        spw = params.scale_pos_weight * fold_ratio / full_ratio
        model = gbt.fit(X[keep], y[keep],
                        replace(params, scale_pos_weight=spw))
        probs[i] = model.predict_proba(X[i])[0]
        split_free = split_free and model.split_free
    cm = ConfusionMatrix.from_predictions(y, probs >= threshold)
    roc = roc_points(y, probs)
    return EvaluationReport(task=task, confusion=cm, metrics=metrics(cm),
                            threshold=threshold, roc=roc,
                            auc=auc_from_roc(roc), params=params, probs=probs,
                            loocv_split_free=split_free)


def permutation_test(table: FeatureTable, observed_bacc: float,
                     params: HyperParams, m: int = 1000, seed: int = 0,
                     k: int = 5, repeats: int = 10) -> float:
    """Label-shuffling significance: p = (b + 1) / (m + 1), never zero.

    Each permutation re-runs the training-phase CV (same split structure,
    same hyperparameters) on shuffled labels; b counts permuted mean-BACC
    scores >= the observed score. A permutation whose fits raise a
    GraphokitError scores 0.
    """
    if m < 1:
        raise InvalidParams("need at least one permutation")
    rng = np.random.default_rng(seed)
    X, y = table.values, table.labels
    b = 0
    for _ in range(m):
        perm = rng.permutation(len(y))
        y_perm = y[perm]
        splits = stratified_kfold(y_perm, k=k, repeats=repeats,
                                  seed=int(rng.integers(2 ** 31)))
        try:
            score = cv_scores(X, y_perm, params, splits)
        except GraphokitError:
            score = 0.0
        if score >= observed_bacc - 1e-12:
            b += 1
    return (b + 1) / (m + 1)


def evaluate_task(table: FeatureTable, task: str = "", grids=None,
                  iterations: int = 1000, permutations: int = 1000,
                  k: int = 5, repeats: int = 10, seed: int = 0,
                  objective: str = "youden") -> EvaluationReport:
    """Full per-task protocol: search, threshold tuning, LOOCV, permutation.

    When every cross-validated probability is equal (split-free models on a
    weak task), there is no ROC to tune on: LOOCV runs at the default 0.5
    threshold and the report's ``threshold_tuned`` is False.
    """
    best_params, search_bacc = random_search(
        table, grids=grids, iterations=iterations, seed=seed, k=k,
        repeats=repeats)
    splits = stratified_kfold(table.labels, k=k, repeats=repeats, seed=seed)
    probs = cv_probabilities(table.values, table.labels, best_params, splits)
    tuned = True
    try:
        threshold = tune_threshold(probs, table.labels, objective=objective)
    except DegenerateProbs:
        threshold, tuned = 0.5, False
    report = loocv_evaluate(table, best_params, threshold, task=task)
    report.threshold_tuned = tuned
    report.search_bacc = search_bacc
    report.permutation_p = permutation_test(
        table, search_bacc, best_params, m=permutations, seed=seed + 1,
        k=k, repeats=repeats)
    return report
