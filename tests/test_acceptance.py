"""Acceptance suite: nine end-to-end criteria, each printing a single
PASS/FAIL line with its runtime.

Heavy criteria (null calibration, signal recovery) run the full synthetic
pipeline; everything else is oracle-based and fast.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from graphokit.features import extract_features
from graphokit.features.events import count_intersections, count_pen_stops
from graphokit.features.spiral import spiral_features, unwrap_polar
from graphokit.gbt import HyperParams, PAPER_GRIDS, fit, log_loss
from graphokit.ink import (on_surface_strokes, segment_strokes,
                           validate_recording)
from graphokit.pipeline import (ConfusionMatrix, auc_score, cv_scores,
                                evaluate_task, loocv_evaluate, metrics,
                                permutation_test, stratified_kfold)
from graphokit.stats import (_exact_p, _normal_p, analyze_features,
                             mann_whitney_u, spearman_rho)
from graphokit.svcio import load_cohort
from graphokit.synth import (STRONG_DELTA, ImpairmentDelta,
                             ImpairmentProfile, gen_cohort, gen_spiral)
from graphokit.table import FeatureTable, combine_tasks
from graphokit.cli import RunConfig, run_json_payload

from builders import make_recording
from test_features_events import oracle_intersections, scripted_recording


def report(capsys, label, ok, t0):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[{label}] {verdict} ({time.perf_counter() - t0:.1f}s)",
              flush=True)
    assert ok, label


def tables_from_cohort(out_dir, n_hc, n_lbd, delta, seed):
    manifest = gen_cohort(n_hc, n_lbd, delta=delta, seed=seed,
                          out_dir=out_dir)
    per_task, problems = load_cohort(manifest, strict=False)
    assert not problems, problems
    tables = {}
    for task, rows in per_task.items():
        trs = [(sid, label,
                extract_features(validate_recording(rec, strict=False),
                                 task=task))
               for sid, label, rec in rows]
        tables[task] = FeatureTable.from_rows(trs)
    tables["combined"] = combine_tasks(dict(tables))
    return tables


def test_ac1_confusion_metrics(capsys):
    t0 = time.perf_counter()
    m = metrics(ConfusionMatrix(tp=8, fn=2, tn=6, fp=4))
    expected = {"SEN": 0.8, "SPE": 0.6, "BACC": 0.7, "PRE": 2 / 3,
                "F1": 8 / 11, "MCC": 0.4082482904638630}
    ok = all(abs(m[k] - v) <= 1e-9 for k, v in expected.items())
    # balanced accuracy must be the arithmetic mean of SEN and SPE
    ok = ok and abs(0.5 * (0.9783 + 0.4783) - 0.7283) <= 1e-12
    report(capsys, "AC1 confusion metrics", ok, t0)


def test_ac2_mann_whitney_exact_oracle(capsys):
    t0 = time.perf_counter()
    res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    ok = abs(res.p_value - 0.1) <= 1e-12

    # balanced samples at the exact-path size boundary; below 5 per group
    # the normal approximation is provably outside the band at some U
    rng = np.random.default_rng(20260823)
    n1 = n2 = 5
    worst = 0.0
    for case in range(200):
        pooled = rng.normal(size=n1 + n2)  # continuous draws: tie-free
        ranks = rankdata(pooled)
        u1 = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2)
        u = min(u1, n1 * n2 - u1)
        exact = _exact_p(n1, n2, u)
        approx = _normal_p(n1, n2, u, np.ones(n1 + n2, dtype=int))
        worst = max(worst, abs(exact - approx))
    ok = ok and worst <= 0.02
    report(capsys, f"AC2 Mann-Whitney normal vs exact (max diff "
                   f"{worst:.4f})", ok, t0)


def test_ac3_spiral_analytics(capsys):
    t0 = time.perf_counter()
    rec = gen_spiral(b=5.0, turns=3.0, rate_hz=130.0)
    f = spiral_features(unwrap_polar(rec), rec)
    ok = (abs(f["tightness"] - 0.2) <= 0.002 and f["dos"] <= 1e-6
          and f["width_var"] <= 1e-6 and f["spi"] >= 99.9)

    sigmas = (0.0, 1.0, 2.0, 4.0)
    names = ("dos", "smoothness2", "zcr1", "width_var")
    means = {name: [] for name in names}
    for sigma in sigmas:
        acc = {name: [] for name in names}
        for seed in range(20):
            prof = ImpairmentProfile(radial_noise_sigma=sigma, seed=seed)
            r = gen_spiral(profile=prof)
            feats = spiral_features(unwrap_polar(r), r)
            for name in names:
                acc[name].append(feats[name])
        for name in names:
            means[name].append(float(np.mean(acc[name])))
    for name in names:
        rho = spearman_rho(list(sigmas), means[name]).statistic
        ok = ok and rho == 1.0
    report(capsys, "AC3 spiral analytics + noise monotonicity", ok, t0)


def test_ac4_geometry_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    for case in range(50):
        n_strokes = int(rng.integers(1, 5))
        pen = []
        for s in range(2 * n_strokes):
            pen.extend([s % 2] * int(rng.integers(3, 52)))
        pen = np.asarray(pen[:401], dtype=np.int8)  # <= 200 segments/stroke
        n = len(pen)
        rec = make_recording(rng.integers(0, 40, n).astype(float),
                             rng.integers(0, 40, n).astype(float), pen=pen)
        strokes = on_surface_strokes(segment_strokes(rec))
        for mode in ("intra", "inter"):
            got, _ = count_intersections(strokes, mode)
            ok = ok and got == oracle_intersections(strokes, mode)

    # scripted holds on fast constructed trajectories: exact at defaults
    for holds in ([], [0.05], [0.1, 0.02, 0.031], [0.029, 0.03, 0.2]):
        rec, expected = scripted_recording(holds)
        ok = ok and count_pen_stops(rec) == expected
    # generator-inserted holds duplicate samples: exact at zero tolerance
    for count in (0, 3, 6):
        rec = gen_spiral(profile=ImpairmentProfile(pen_stop_count=count,
                                                   seed=1))
        ok = ok and count_pen_stops(rec, radius=1e-6) == count
    report(capsys, "AC4 intersections + pen stops vs brute force", ok, t0)


def test_ac5_boosting_properties(capsys):
    t0 = time.perf_counter()
    ok = True
    for seed in range(5):
        r = np.random.default_rng(seed)
        X = r.normal(size=(60, 6))
        y = (X[:, 0] + 0.5 * X[:, 1] + r.normal(0, 0.5, 60) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        params = HyperParams(n_estimators=100, subsample=1.0,
                             colsample_bytree=1.0, colsample_bylevel=1.0,
                             seed=seed)
        model = fit(X, y, params)
        margin = np.zeros(60)
        prev = log_loss(y, 1 / (1 + np.exp(-margin)))
        for tree in model.trees:
            margin += params.learning_rate * tree.predict(X)
            cur = log_loss(y, 1 / (1 + np.exp(-margin)))
            ok = ok and cur <= prev + 1e-12
            prev = cur

    r = np.random.default_rng(0)
    centers = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    X = np.repeat(centers, 25, axis=0) + r.normal(0, 0.05, (100, 2))
    y = np.repeat([0, 1, 1, 0], 25)
    xor = fit(X, y, HyperParams(n_estimators=50, max_depth=2,
                                learning_rate=0.3))
    ok = ok and np.array_equal(xor.predict(X), y)

    params = HyperParams(n_estimators=20, subsample=0.8,
                         colsample_bytree=0.7, seed=9)
    ok = ok and fit(X, y, params).to_json() == fit(X, y, params).to_json()
    report(capsys, "AC5 boosting monotone loss / XOR / determinism", ok, t0)


def test_ac6_auc_u_statistic_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        n_pos = int(rng.integers(3, 30))
        n_neg = int(rng.integers(3, 30))
        probs = rng.permutation(n_pos + n_neg) / (n_pos + n_neg + 1.0)
        labels = np.concatenate((np.ones(n_pos, int), np.zeros(n_neg, int)))
        u_pos = sum(x > v for x in probs[:n_pos] for v in probs[n_pos:])
        worst = max(worst, abs(auc_score(labels, probs)
                               - u_pos / (n_pos * n_neg)))
    report(capsys, f"AC6 AUC == U/(n_pos*n_neg) (max diff {worst:.1e})",
           worst <= 1e-12, t0)


def test_ac7_null_calibration(capsys, tmp_path):
    t0 = time.perf_counter()
    params = HyperParams(n_estimators=30, max_depth=2, colsample_bytree=0.3,
                         min_child_weight=3.0, seed=0)
    auc_ok = p_ok = 0
    for s in range(20):
        tables = tables_from_cohort(tmp_path / f"c{s}", 30, 30,
                                    ImpairmentDelta(), seed=1000 + s)
        table = tables["combined"]
        splits = stratified_kfold(table.labels, k=5, repeats=1, seed=s)
        observed = cv_scores(table.values, table.labels, params, splits)
        rep = loocv_evaluate(table, params, threshold=0.5, task="combined")
        p = permutation_test(table, observed, params, m=99, seed=s, k=5,
                             repeats=1)
        auc_ok += 0.3 <= rep.auc <= 0.7
        p_ok += p > 0.05
    elapsed = time.perf_counter() - t0
    ok = auc_ok >= 18 and p_ok >= 18 and elapsed < 600
    report(capsys, f"AC7 null calibration (AUC in band {auc_ok}/20, "
                   f"p>0.05 {p_ok}/20)", ok, t0)


def test_ac8_signal_recovery(capsys, tmp_path):
    t0 = time.perf_counter()
    tables = tables_from_cohort(tmp_path, 15, 15, STRONG_DELTA, seed=42)
    grids = dict(PAPER_GRIDS)
    grids["n_estimators"] = (30,)
    rep = evaluate_task(tables["combined"], task="combined", grids=grids,
                        iterations=50, permutations=99, k=5, repeats=2,
                        seed=0)
    screen = analyze_features(tables["sentence"])
    top5 = [row["feature"] for row in screen[:5]]
    injected = ("pen_stops", "velocity_vert", "width")
    hit = any(tag in name for name in top5 for tag in injected)
    elapsed = time.perf_counter() - t0
    ok = (rep.metrics["BACC"] >= 0.85 and rep.permutation_p <= 0.01
          and hit and elapsed < 900)
    report(capsys, f"AC8 signal recovery (BACC {rep.metrics['BACC']:.3f}, "
                   f"p {rep.permutation_p:.3g}, injected in top5: {hit})",
           ok, t0)


def test_ac9_protocol_fidelity(capsys):
    t0 = time.perf_counter()
    payload = run_json_payload(RunConfig(profile="paper"))
    grids = payload["hyperparameter_grids"]
    proto = payload["protocol"]
    ok = (grids["learning_rate"] == [0.001, 0.01, 0.1, 0.2, 0.3]
          and len(grids["gamma"]) == 7
          and grids["max_depth"] == [6, 8, 10, 12, 15]
          and proto["search_iterations"] == 1000
          and proto["cv_folds"] == 5
          and proto["cv_repetitions"] == 10
          and proto["permutations"] == 1000)
    report(capsys, "AC9 recorded protocol matches published grids", ok, t0)
