"""Evaluation protocol: confusion metrics, ROC/AUC, stratified CV,
threshold tuning, LOOCV and the permutation test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphokit import gbt, pipeline
from graphokit.errors import (ClassTooSmall, DegenerateProbs, EmptyMatrix,
                              InvalidParams, NoUsableFeature, SingleClass)
from graphokit.gbt import HyperParams
from graphokit.pipeline import (ConfusionMatrix, auc_from_roc, auc_score,
                                cv_probabilities, cv_scores, evaluate_task,
                                loocv_evaluate, metrics, permutation_test,
                                random_search, roc_points, stratified_kfold,
                                tune_threshold)
from graphokit.stats import mann_whitney_u
from graphokit.table import FeatureTable


def tiny_table(n_hc=12, n_lbd=12, delta=0.0, seed=0, p=4):
    r = np.random.default_rng(seed)
    rows = []
    for i in range(n_hc):
        rows.append((f"h{i}", 0, {f"f{j}": r.normal() for j in range(p)}))
    for i in range(n_lbd):
        rows.append((f"p{i}", 1,
                     {f"f{j}": r.normal() + delta for j in range(p)}))
    return FeatureTable.from_rows(rows)


def failing_fit(exc):
    """A stand-in for ``gbt.fit`` that raises ``exc`` on every call."""
    def fit(*args, **kwargs):
        raise exc
    return fit


class TestConfusionMetrics:
    def test_reference_matrix(self):
        cm = ConfusionMatrix(tp=8, fn=2, tn=6, fp=4)
        m = metrics(cm)
        assert m["SEN"] == pytest.approx(0.8, abs=1e-12)
        assert m["SPE"] == pytest.approx(0.6, abs=1e-12)
        assert m["BACC"] == pytest.approx(0.7, abs=1e-12)
        assert m["PRE"] == pytest.approx(8 / 12, abs=1e-12)
        assert m["F1"] == pytest.approx(16 / 22, abs=1e-12)
        mcc = (8 * 6 - 4 * 2) / math.sqrt(12 * 10 * 10 * 8)
        assert m["MCC"] == pytest.approx(mcc, abs=1e-12)

    def test_from_predictions(self):
        cm = ConfusionMatrix.from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (2, 1, 1, 1)

    def test_zero_denominators_are_nan(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=0))
        assert math.isnan(m["SEN"]) and math.isnan(m["PRE"])
        assert m["SPE"] == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            ConfusionMatrix(0, 0, 0, 0)
        with pytest.raises(EmptyMatrix):
            ConfusionMatrix(-1, 1, 1, 1)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50),
           st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        m = metrics(ConfusionMatrix(tp, fp, tn, fn))
        for name in ("BACC", "SEN", "SPE", "PRE", "F1"):
            assert math.isnan(m[name]) or 0.0 <= m[name] <= 1.0
        assert math.isnan(m["MCC"]) or -1.0 <= m["MCC"] <= 1.0


class TestROC:
    def test_perfect_separation(self):
        labels = [0, 0, 1, 1]
        probs = [0.1, 0.2, 0.8, 0.9]
        assert auc_score(labels, probs) == 1.0
        pts = roc_points(labels, probs)
        assert pts[0][1:] == (1.0, 1.0)   # lowest threshold catches all
        assert pts[-1][1:] == (0.0, 0.0)  # sentinel above max

    def test_reversed_scores(self):
        assert auc_score([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_points([1, 1], [0.4, 0.6])

    def test_tied_probs_collapse_to_one_point(self):
        pts = roc_points([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert len(pts) == 2
        assert auc_from_roc(pts) == 0.5

    @given(st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_auc_equals_mann_whitney_u(self, n_pos, n_neg, seed):
        # tie-free: trapezoid AUC == U_pos / (n_pos * n_neg)
        r = np.random.default_rng(seed)
        probs = r.permutation(n_pos + n_neg) / (n_pos + n_neg + 1.0)
        labels = np.concatenate((np.ones(n_pos, int), np.zeros(n_neg, int)))
        pos, neg = probs[:n_pos], probs[n_pos:]
        u_pos = sum((x > v) for x in pos for v in neg)
        assert auc_score(labels, probs) == \
            pytest.approx(u_pos / (n_pos * n_neg), abs=1e-12)


class TestStratifiedKFold:
    def test_counts_46_37(self):
        labels = np.concatenate((np.zeros(46, int), np.ones(37, int)))
        splits = stratified_kfold(labels, k=5, repeats=1, seed=3)
        assert len(splits) == 5
        test_sizes = sorted(len(test) for _, test in splits)
        assert set(test_sizes) <= {16, 17}
        assert sum(test_sizes) == 83
        for train, test in splits:
            pos = int(np.sum(labels[test] == 1))
            assert pos in (7, 8)  # 37 = 5*7 + 2
            assert len(np.intersect1d(train, test)) == 0
            assert len(train) + len(test) == 83

    def test_repeats_are_distinct_partitions(self):
        labels = np.concatenate((np.zeros(20, int), np.ones(20, int)))
        splits = stratified_kfold(labels, k=5, repeats=3, seed=0)
        assert len(splits) == 15
        first = {tuple(sorted(test)) for _, test in splits[:5]}
        second = {tuple(sorted(test)) for _, test in splits[5:10]}
        assert first != second

    def test_each_repeat_partitions_everyone(self):
        labels = np.concatenate((np.zeros(13, int), np.ones(9, int)))
        splits = stratified_kfold(labels, k=4, repeats=2, seed=1)
        for rep in range(2):
            seen = np.concatenate(
                [test for _, test in splits[rep * 4:(rep + 1) * 4]])
            assert sorted(seen) == list(range(22))

    def test_deterministic(self):
        labels = np.concatenate((np.zeros(10, int), np.ones(10, int)))
        a = stratified_kfold(labels, k=5, repeats=2, seed=9)
        b = stratified_kfold(labels, k=5, repeats=2, seed=9)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            stratified_kfold([0, 0, 0, 0, 0, 1, 1], k=5)


class TestThreshold:
    def test_brute_force_scan_oracle(self):
        r = np.random.default_rng(17)
        probs = r.random(40)
        labels = (probs + r.normal(0, 0.3, 40) > 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = tune_threshold(probs, labels, objective="youden")
        distinct = np.unique(probs)
        cands = (distinct[:-1] + distinct[1:]) / 2

        def youden(thr):
            m = metrics(ConfusionMatrix.from_predictions(labels,
                                                         probs >= thr))
            return m["SEN"] + m["SPE"] - 1.0

        best = max(youden(c) for c in cands)
        assert youden(got) == pytest.approx(best)

    def test_tie_prefers_closest_to_half(self):
        # thresholds in (0.2, 0.4) and (0.6, 0.8) both classify perfectly
        probs = np.array([0.2, 0.4, 0.6, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert tune_threshold(probs, labels) == pytest.approx(0.5)

    def test_f1_objective(self):
        probs = np.array([0.1, 0.6, 0.7, 0.9])
        labels = np.array([0, 1, 1, 1])
        thr = tune_threshold(probs, labels, objective="f1")
        cm = ConfusionMatrix.from_predictions(labels, probs >= thr)
        assert metrics(cm)["F1"] == 1.0

    def test_degenerate_probs(self):
        with pytest.raises(DegenerateProbs):
            tune_threshold([0.5, 0.5], [0, 1])
        with pytest.raises(SingleClass):
            tune_threshold([0.4, 0.6], [1, 1])
        with pytest.raises(InvalidParams):
            tune_threshold([0.4, 0.6], [0, 1], objective="accuracy")


class TestCV:
    def test_cv_scores_on_separable_data(self):
        table = tiny_table(delta=5.0, seed=1)
        splits = stratified_kfold(table.labels, k=4, repeats=1, seed=0)
        params = HyperParams(n_estimators=10, max_depth=2)
        assert cv_scores(table.values, table.labels, params, splits) == 1.0

    def test_cv_probabilities_cover_everyone(self):
        table = tiny_table(delta=5.0, seed=2)
        splits = stratified_kfold(table.labels, k=4, repeats=2, seed=0)
        params = HyperParams(n_estimators=10, max_depth=2)
        probs = cv_probabilities(table.values, table.labels, params, splits)
        assert probs.shape == (24,)
        assert np.all((probs > 0) & (probs < 1))
        assert auc_score(table.labels, probs) > 0.9

    def test_missing_coverage_rejected(self):
        table = tiny_table()
        splits = stratified_kfold(table.labels, k=4, repeats=1, seed=0)[:2]
        with pytest.raises(InvalidParams):
            cv_probabilities(table.values, table.labels,
                             HyperParams(n_estimators=2), splits)


class TestRandomSearch:
    def test_finds_signal(self):
        table = tiny_table(delta=4.0, seed=3)
        grids = {"max_depth": (1, 2), "learning_rate": (0.1, 0.3)}
        params, score = random_search(table, grids=grids, iterations=4,
                                      seed=0, k=4, repeats=1)
        assert score > 0.9
        assert params.max_depth in (1, 2)
        assert params.learning_rate in (0.1, 0.3)

    def test_deterministic(self):
        table = tiny_table(delta=1.0, seed=4)
        kw = dict(grids={"max_depth": (1, 2, 3)}, iterations=5, seed=7,
                  k=4, repeats=1)
        assert random_search(table, **kw) == random_search(table, **kw)

    def test_bad_args(self):
        table = tiny_table()
        with pytest.raises(InvalidParams):
            random_search(table, iterations=0)
        with pytest.raises(InvalidParams):
            random_search(table, grids={"max_depth": ()}, iterations=1)

    def test_failed_fit_scores_zero(self, monkeypatch):
        monkeypatch.setattr(gbt, "fit", failing_fit(NoUsableFeature("x")))
        params, score = random_search(tiny_table(),
                                      grids={"max_depth": (1, 2)},
                                      iterations=3, seed=0, k=4, repeats=1)
        assert score == 0.0
        assert params.max_depth in (1, 2)

    def test_program_errors_propagate(self, monkeypatch):
        monkeypatch.setattr(gbt, "fit", failing_fit(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            random_search(tiny_table(), grids={"max_depth": (1, 2)},
                          iterations=3, seed=0, k=4, repeats=1)


class TestLOOCV:
    def test_separable_is_perfect(self):
        table = tiny_table(n_hc=8, n_lbd=8, delta=6.0, seed=5)
        report = loocv_evaluate(table, HyperParams(n_estimators=10,
                                                   max_depth=2), 0.5,
                                task="demo")
        assert report.metrics["BACC"] == 1.0
        assert report.auc == 1.0
        assert report.task == "demo"
        assert len(report.probs) == 16

    def test_needs_both_classes(self):
        rows = [(f"s{i}", 0, {"f": float(i)}) for i in range(5)]
        with pytest.raises(InvalidParams):
            loocv_evaluate(FeatureTable.from_rows(rows),
                           HyperParams(n_estimators=2), 0.5)


class TestPermutation:
    def test_strong_signal_small_p(self):
        table = tiny_table(n_hc=8, n_lbd=8, delta=6.0, seed=6)
        p = permutation_test(table, observed_bacc=1.0,
                             params=HyperParams(n_estimators=5, max_depth=2),
                             m=19, seed=0, k=4, repeats=1)
        assert p == pytest.approx(1 / 20)

    def test_p_never_zero_and_bounded(self):
        table = tiny_table(n_hc=8, n_lbd=8, seed=7)
        p = permutation_test(table, observed_bacc=0.0,
                             params=HyperParams(n_estimators=2),
                             m=9, seed=0, k=4, repeats=1)
        assert p == 1.0

    def test_requires_permutations(self):
        with pytest.raises(InvalidParams):
            permutation_test(tiny_table(), 0.5, HyperParams(), m=0)

    @pytest.mark.parametrize("observed,p", [(0.0, 1.0), (1e-6, 0.1)])
    def test_failed_fit_scores_zero(self, monkeypatch, observed, p):
        # every shuffle scores 0: counted against observed 0, not against
        # any positive score
        monkeypatch.setattr(gbt, "fit", failing_fit(NoUsableFeature("x")))
        assert permutation_test(tiny_table(), observed, HyperParams(),
                                m=9, seed=0, k=4, repeats=1) == p

    def test_program_errors_propagate(self, monkeypatch):
        monkeypatch.setattr(gbt, "fit", failing_fit(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            permutation_test(tiny_table(), 0.5, HyperParams(), m=9, seed=0,
                             k=4, repeats=1)


class TestEvaluateTask:
    def test_end_to_end_on_separable_data(self):
        table = tiny_table(n_hc=8, n_lbd=8, delta=6.0, seed=8)
        report = evaluate_task(table, task="demo",
                               grids={"max_depth": (1, 2),
                                      "n_estimators": (10,)},
                               iterations=2, permutations=9, k=4, repeats=1)
        assert report.metrics["BACC"] == 1.0
        assert report.search_bacc == 1.0
        assert report.permutation_p <= 0.2
        assert 0.0 < report.threshold < 1.0
        assert report.threshold_tuned

    def test_constant_probabilities_fall_back_to_half(self, monkeypatch):
        # split-free models give every subject the same held-out
        # probability; tune_threshold raises on them, evaluate_task must not
        monkeypatch.setattr(pipeline, "cv_probabilities",
                            lambda X, y, params, splits: np.full(len(y), 0.3))
        table = tiny_table(n_hc=8, n_lbd=8, delta=6.0, seed=8)
        report = evaluate_task(table, task="demo",
                               grids={"max_depth": (1,),
                                      "n_estimators": (5,)},
                               iterations=1, permutations=3, k=4, repeats=1)
        assert report.threshold == 0.5
        assert report.threshold_tuned is False
        at_half = loocv_evaluate(table, report.params, 0.5, task="demo")
        assert report.confusion == at_half.confusion
        assert 0.0 < report.permutation_p <= 1.0
