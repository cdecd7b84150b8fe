"""Boosted-tree training and inference, checked against an independent
recursive tree walker and closed-form leaf math."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphokit import gbt
from graphokit.errors import (DimensionMismatch, InvalidParams,
                              NoUsableFeature, SingleClass)
from graphokit.gbt import (PAPER_GRIDS, BoostedEnsemble, HyperParams, Tree,
                           fit, log_loss)


def walk(tree, row):
    """Oracle: per-row recursive descent over the flat node arrays."""
    node = 0
    while tree.feature[node] >= 0:
        v = row[tree.feature[node]]
        if math.isnan(v):
            left = tree.missing_left[node]
        else:
            left = v < tree.threshold[node]
        node = tree.left[node] if left else tree.right[node]
    return tree.value[node]


def tree_depth(tree, node=0):
    """Longest root-to-leaf path, in splits, of the flat node arrays."""
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]),
                   tree_depth(tree, tree.right[node]))


def oracle_margin(model, X):
    out = np.zeros(len(X))
    for tree in model.trees:
        out += model.params.learning_rate * np.array(
            [walk(tree, row) for row in X])
    return out


# Slow reference: the node-by-node split search as it stood before the
# column presort (per-node argsort of the node's sub-matrix), kept verbatim
# so the fast path can be held to identical trees.
def reference_fit(X, y, params):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    rng = np.random.default_rng(params.seed)
    w = np.where(y == 1, params.scale_pos_weight, 1.0)
    margin = np.zeros(n)
    trees = []
    n_sub = max(1, round(params.subsample * n))
    n_cols_tree = max(1, round(params.colsample_bytree * p))

    for _ in range(params.n_estimators):
        prob = gbt._sigmoid(margin)
        g = w * (prob - y)
        h = w * prob * (1 - prob)
        rows = (np.sort(rng.choice(n, size=n_sub, replace=False))
                if n_sub < n else np.arange(n))
        cols = (np.sort(rng.choice(p, size=n_cols_tree, replace=False))
                if n_cols_tree < p else np.arange(p))
        tree = reference_grow_tree(X, g, h, rows, cols, params, rng)
        trees.append(tree)
        margin += params.learning_rate * tree.predict(X)

    return BoostedEnsemble(trees=trees, params=params,
                           feature_names=tuple(f"f{j}" for j in range(p)))


def reference_grow_tree(X, g, h, rows, tree_cols, params, rng) -> Tree:
    """Level-synchronous growth so colsample_bylevel draws once per level."""
    tree = Tree()
    lam, gamma, mcw = params.lambda_l2, params.gamma, params.min_child_weight
    n_cols_level = max(1, round(params.colsample_bylevel * len(tree_cols)))
    root = tree.add_leaf(0.0)
    frontier = [(root, rows)]
    for depth in range(params.max_depth):
        if not frontier:
            break
        cols = (np.sort(rng.choice(tree_cols, size=n_cols_level,
                                   replace=False))
                if n_cols_level < len(tree_cols) else tree_cols)
        next_frontier = []
        for node, idx in frontier:
            gn, hn = g[idx], h[idx]
            G, H = gn.sum(), hn.sum()
            if len(idx) < 2:
                tree.value[node] = -G / (H + lam)
                continue
            found = reference_best_split(X[np.ix_(idx, cols)], gn, hn, lam, gamma, mcw)
            if found is None:
                tree.value[node] = -G / (H + lam)
                continue
            local_col, thr, miss_left, _gain = found
            feat = int(cols[local_col])
            colv = X[idx, feat]
            nan = np.isnan(colv)
            go_left = (colv < thr) | (nan & miss_left)
            tree.feature[node] = feat
            tree.threshold[node] = thr
            tree.missing_left[node] = miss_left
            tree.value[node] = 0.0
            lt = tree.add_leaf(0.0)
            rt = tree.add_leaf(0.0)
            tree.left[node], tree.right[node] = lt, rt
            next_frontier.append((lt, idx[go_left]))
            next_frontier.append((rt, idx[~go_left]))
        frontier = next_frontier
    # any nodes left unexpanded at max depth become leaves
    for node, idx in frontier:
        gn, hn = g[idx], h[idx]
        tree.value[node] = -gn.sum() / (hn.sum() + lam)
    return tree


def reference_best_split(Xn, gn, hn, lam, gamma, mcw):
    """Exact greedy search over all columns of a node, vectorized.

    Returns (column, threshold, missing_left, gain) for the best positive
    gain, or None. Ties resolve to the lowest flat index (deterministic).
    """
    m, c = Xn.shape
    G, H = gn.sum(), hn.sum()
    parent = G * G / (H + lam)
    nanmask = np.isnan(Xn)
    order = np.argsort(Xn, axis=0, kind="stable")  # NaN sorts last
    xs = np.take_along_axis(Xn, order, axis=0)
    nan_s = np.take_along_axis(nanmask, order, axis=0)
    gs, hs = gn[order], hn[order]
    gz = np.where(nan_s, 0.0, gs)
    hz = np.where(nan_s, 0.0, hs)
    cg = np.cumsum(gz, axis=0)
    ch = np.cumsum(hz, axis=0)
    GL, HL = cg[:-1], ch[:-1]
    Gm = G - cg[-1]  # per-column sums over missing rows
    Hm = H - ch[-1]
    valid = (~nan_s[1:]) & (xs[1:] > xs[:-1])
    if not np.any(valid):
        return None

    best = None  # (gain, flat_index, scenario)
    candidates = []
    for miss_left in (True, False):
        GLa = GL + (Gm if miss_left else 0.0)
        HLa = HL + (Hm if miss_left else 0.0)
        GRa = G - GLa
        HRa = H - HLa
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (GLa ** 2 / (HLa + lam) + GRa ** 2 / (HRa + lam)
                          - parent) - gamma
        gain = np.where(valid & (HLa >= mcw) & (HRa >= mcw), gain, -np.inf)
        candidates.append(gain)

    for scenario, gain in enumerate(candidates):
        flat = int(np.argmax(gain))
        val = gain.ravel()[flat]
        if best is None or val > best[0]:
            best = (val, flat, scenario)
    gain_val, flat, scenario = best
    if not np.isfinite(gain_val) or gain_val <= 0:
        return None
    i, col = np.unravel_index(flat, GL.shape)
    thr = 0.5 * (xs[i, col] + xs[i + 1, col])
    return int(col), float(thr), scenario == 0, float(gain_val)


def two_moons(n=200, seed=0):
    r = np.random.default_rng(seed)
    y = r.integers(0, 2, n)
    ang = np.pi * r.random(n)
    x1 = np.where(y == 1, 1 - np.cos(ang), np.cos(ang)) + r.normal(0, .1, n)
    x2 = np.where(y == 1, 0.5 - np.sin(ang), np.sin(ang)) + r.normal(0, .1, n)
    return np.column_stack((x1, x2)), y


class TestTree:
    def test_manual_tree_routing(self):
        t = Tree()
        root = t.add_split(0, 5.0, missing_left=True)
        lt = t.add_leaf(-1.0)
        rt = t.add_leaf(2.0)
        t.left[root], t.right[root] = lt, rt
        X = np.array([[1.0], [9.0], [np.nan], [5.0]])
        np.testing.assert_array_equal(t.predict(X), [-1.0, 2.0, -1.0, 2.0])

    def test_missing_direction_right(self):
        t = Tree()
        root = t.add_split(0, 5.0, missing_left=False)
        t.left[root], t.right[root] = t.add_leaf(-1.0), t.add_leaf(2.0)
        assert t.predict(np.array([[np.nan]]))[0] == 2.0

    def test_depth(self):
        t = Tree()
        t.add_leaf(0.0)
        assert tree_depth(t) == 0
        t2 = Tree()
        root = t2.add_split(0, 1.0, False)
        t2.left[root], t2.right[root] = t2.add_leaf(0.0), t2.add_leaf(1.0)
        assert tree_depth(t2) == 1
        right = t2.add_split(0, 2.0, False)
        t2.right[root] = right
        t2.left[right], t2.right[right] = t2.add_leaf(0.0), t2.add_leaf(1.0)
        assert tree_depth(t2) == 2


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(learning_rate=0.0), dict(gamma=-0.1), dict(max_depth=0),
        dict(subsample=0.0), dict(subsample=1.5), dict(colsample_bytree=0.0),
        dict(min_child_weight=-1.0), dict(n_estimators=0),
        dict(scale_pos_weight=0.0), dict(lambda_l2=0.0),
        dict(lambda_l2=-1.0)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidParams):
            HyperParams(**bad)

    def test_with_seed(self):
        p = HyperParams(seed=0).with_seed(7)
        assert p.seed == 7

    def test_grid_values_all_construct(self):
        for name, values in PAPER_GRIDS.items():
            for v in values:
                HyperParams(**{name: v})


class TestFitErrors:
    def test_single_class(self):
        with pytest.raises(SingleClass):
            fit(np.zeros((4, 2)), [1, 1, 1, 1], HyperParams())

    def test_no_usable_feature(self):
        with pytest.raises(NoUsableFeature):
            fit(np.full((4, 2), np.nan), [0, 1, 0, 1], HyperParams())

    def test_dimension_mismatch_at_predict(self):
        X, y = two_moons(40)
        model = fit(X, y, HyperParams(n_estimators=2))
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.zeros((3, 5)))


class TestTraining:
    def test_predictions_match_tree_walk_oracle(self):
        X, y = two_moons(200, seed=3)
        X = X.copy()
        X[::17, 0] = np.nan  # exercise learned missing directions
        model = fit(X, y, HyperParams(n_estimators=25, max_depth=4,
                                      subsample=0.8, colsample_bylevel=0.7,
                                      seed=11))
        np.testing.assert_allclose(model.predict_margin(X),
                                   oracle_margin(model, X),
                                   rtol=1e-12, atol=1e-12)

    def test_single_round_leaf_weight_closed_form(self):
        # one depth-1 tree on perfectly split data: leaf = -G/(H+lam)
        # with p=0.5 everywhere: g = 0.5 - y, h = 0.25
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(X, y, HyperParams(n_estimators=1, max_depth=1,
                                      learning_rate=1.0, lambda_l2=1.0,
                                      min_child_weight=0.0))
        tree = model.trees[0]
        assert tree.feature[0] == 0 and tree.threshold[0] == 1.5
        left = walk(tree, [0.0])
        right = walk(tree, [3.0])
        assert left == pytest.approx(-1.0 / 1.5)   # G=1, H=0.5
        assert right == pytest.approx(1.0 / 1.5)

    def test_separable_1d_perfect_accuracy(self):
        X = np.linspace(0, 1, 30).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(int)
        model = fit(X, y, HyperParams(n_estimators=20, max_depth=1))
        assert np.array_equal(model.predict(X), y)

    def test_xor_clusters_need_depth_two(self):
        # four quadrant clusters with opposite-corner labels: depth-1
        # stumps cannot separate them, depth 2 can
        r = np.random.default_rng(0)
        centers = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = np.repeat(centers, 25, axis=0) + r.normal(0, 0.05, (100, 2))
        y = np.repeat([0, 1, 1, 0], 25)
        deep = fit(X, y, HyperParams(n_estimators=50, max_depth=2,
                                     learning_rate=0.3))
        assert np.array_equal(deep.predict(X), y)
        shallow = fit(X, y, HyperParams(n_estimators=50, max_depth=1,
                                        learning_rate=0.3))
        assert not np.array_equal(shallow.predict(X), y)

    def test_training_loss_decreases(self):
        X, y = two_moons(150, seed=5)
        losses = []
        for rounds in (1, 5, 20, 60):
            model = fit(X, y, HyperParams(n_estimators=rounds))
            losses.append(log_loss(y, model.predict_proba(X)))
        assert losses == sorted(losses, reverse=True)

    def test_max_depth_respected(self):
        X, y = two_moons(120, seed=8)
        for depth in (1, 2, 4):
            model = fit(X, y, HyperParams(n_estimators=10, max_depth=depth))
            assert all(tree_depth(t) <= depth for t in model.trees)

    def test_probabilities_bounded(self):
        X, y = two_moons(100, seed=2)
        p = fit(X, y, HyperParams(n_estimators=30)).predict_proba(X)
        assert np.all((p > 0) & (p < 1))

    def test_scale_pos_weight_shifts_probabilities(self):
        X, y = two_moons(100, seed=6)
        lo = fit(X, y, HyperParams(n_estimators=10, max_depth=2))
        hi = fit(X, y, HyperParams(n_estimators=10, max_depth=2,
                                   scale_pos_weight=4.0))
        assert hi.predict_proba(X).mean() > lo.predict_proba(X).mean()

    def test_deterministic_and_serializable(self):
        X, y = two_moons(80, seed=9)
        params = HyperParams(n_estimators=12, subsample=0.7,
                             colsample_bytree=0.8, colsample_bylevel=0.8,
                             seed=4)
        a = fit(X, y, params).to_json()
        b = fit(X, y, params).to_json()
        assert a == b
        other = fit(X, y, params.with_seed(5)).to_json()
        assert a != other

    def test_default_feature_names(self):
        X, y = two_moons(40)
        model = fit(X, y, HyperParams(n_estimators=1))
        assert model.feature_names == ("f0", "f1")


class TestSerialization:
    def _model(self):
        X, y = two_moons(80, seed=1)
        X[::13, 1] = np.nan
        return fit(X, y, HyperParams(n_estimators=8, max_depth=3)), X

    def test_format_marker(self):
        model, _ = self._model()
        assert json.loads(model.to_json())["format"] == "graphokit-gbt-1"

    def test_empty_ensemble_predicts_half(self):
        empty = BoostedEnsemble(trees=[], params=HyperParams(),
                                feature_names=("a",))
        assert empty.predict_proba(np.array([[3.0]]))[0] == 0.5

    def test_single_leaf_sigmoid(self):
        t = Tree()
        t.add_leaf(2.0)
        model = BoostedEnsemble(trees=[t],
                                params=HyperParams(learning_rate=0.3),
                                feature_names=("a",))
        expect = 1.0 / (1.0 + math.exp(-0.6))
        assert model.predict_proba(np.array([[0.0]]))[0] == \
            pytest.approx(expect)


class TestLogLoss:
    def test_matches_manual_formula(self):
        y = np.array([0, 1, 1, 0])
        p = np.array([0.2, 0.7, 0.9, 0.4])
        expect = -np.mean([np.log(0.8), np.log(0.7),
                           np.log(0.9), np.log(0.6)])
        assert log_loss(y, p) == pytest.approx(expect)

    def test_clipping_keeps_finite(self):
        assert np.isfinite(log_loss([1], [0.0]))


# few distinct values make tied thresholds and tied gains common
GRID_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, np.nan)


@st.composite
def boosting_cases(draw):
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 6))
    values = draw(st.lists(
        st.one_of(st.sampled_from(GRID_VALUES), st.floats(-3.0, 3.0)),
        min_size=n * p, max_size=n * p))
    X = np.array(values).reshape(n, p)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if y.min() == y.max():
        y[0] = 1 - y[0]
    params = HyperParams(
        learning_rate=draw(st.sampled_from(PAPER_GRIDS["learning_rate"])),
        gamma=draw(st.sampled_from(PAPER_GRIDS["gamma"])),
        max_depth=draw(st.integers(1, 5)),
        subsample=draw(st.sampled_from(PAPER_GRIDS["subsample"])),
        colsample_bylevel=draw(st.sampled_from(
            PAPER_GRIDS["colsample_bylevel"])),
        colsample_bytree=draw(st.sampled_from(
            PAPER_GRIDS["colsample_bytree"])),
        min_child_weight=draw(st.sampled_from((0.0, 0.1, 0.5, 1.0, 3.0))),
        scale_pos_weight=draw(st.sampled_from(
            PAPER_GRIDS["scale_pos_weight"])),
        lambda_l2=draw(st.sampled_from((0.01, 1.0))),
        n_estimators=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2 ** 16)))
    return X, y, params


class TestPresortedSearchMatchesReference:
    @given(boosting_cases())
    @settings(max_examples=150, deadline=None)
    def test_identical_trees(self, case):
        X, y, params = case
        if not np.any(np.isfinite(X)):
            return  # fit refuses a matrix without finite values
        assert fit(X, y, params).to_json() == \
            reference_fit(X, y, params).to_json()

    def test_identical_trees_on_wide_nan_heavy_table(self):
        # the shape of a cohort feature table: many columns, some mostly
        # missing, rounded values with ties, a few hundred boosting rounds
        r = np.random.default_rng(7)
        X = np.round(r.normal(size=(48, 60)), 1)
        X[r.random((48, 60)) < np.linspace(0.0, 0.8, 60)] = np.nan
        y = r.integers(0, 2, 48)
        for seed in range(3):
            params = HyperParams(n_estimators=30, max_depth=3,
                                 colsample_bytree=0.3, subsample=0.9,
                                 colsample_bylevel=0.7, min_child_weight=1.0,
                                 seed=seed)
            assert fit(X, y, params).to_json() == \
                reference_fit(X, y, params).to_json()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # H + lam = 0
    @given(st.integers(2, 12), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_split_search_matches_reference(self, m, c, data):
        # zero g and h with lambda_l2 = 0 give 0/0 gains: the NaN rules of
        # the two-scenario argmax must carry over as well as the tie order
        X = np.array(data.draw(st.lists(st.sampled_from(GRID_VALUES),
                                        min_size=m * c, max_size=m * c)))
        X = X.reshape(m, c)
        g = np.array(data.draw(st.lists(st.sampled_from(
            (-1.0, -0.5, 0.0, 0.5, 1.0)), min_size=m, max_size=m)))
        h = np.array(data.draw(st.lists(st.sampled_from((0.0, 0.25, 0.5)),
                                        min_size=m, max_size=m)))
        lam = data.draw(st.sampled_from((0.0, 1.0)))
        gamma = data.draw(st.sampled_from((0.0, 0.1)))
        mcw = data.draw(st.sampled_from((0.0, 0.25, 1.0)))
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0).T
        ghs = (g + 1j * h)[order].T
        assert gbt._best_split(xs, ghs, g.sum(), h.sum(), lam, gamma, mcw) \
            == reference_best_split(X, g, h, lam, gamma, mcw)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_gain_with_missing_right_is_ignored(self):
        # below x = 2 only rows with g = h = 0: with lambda_l2 = 0 the
        # missing-right gains there are 0/0, while missing-left splits gain 2
        X = np.array([[1.0], [2.0], [3.0], [np.nan]])
        g = np.array([0.0, 0.0, 1.0, -1.0])
        h = np.array([0.0, 0.0, 0.5, 0.5])
        expected = (0, 1.5, True, 2.0)
        assert reference_best_split(X, g, h, 0.0, 0.0, 0.0) == expected
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0).T
        ghs = (g + 1j * h)[order].T
        assert gbt._best_split(xs, ghs, g.sum(), h.sum(), 0.0, 0.0, 0.0) \
            == expected

