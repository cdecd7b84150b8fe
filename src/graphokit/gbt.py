"""Gradient-boosted regression trees for binary classification.

Newton boosting on logistic loss: per round g = p - y, h = p(1 - p) (both
scaled by the positive-class weight), exact greedy split search over sorted
values, split gain

    1/2 [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - (G_L+G_R)^2/(H_L+H_R+lam)] - gamma

and leaf weight -G/(H+lam). Missing values learn a default direction per
split (whichever side gains more). Row subsampling is per tree, column
subsampling per tree and per level (multiplicative), all driven by the seed;
fitting is fully deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NoUsableFeature, SingleClass

PAPER_GRIDS = {
    "learning_rate": (0.001, 0.01, 0.1, 0.2, 0.3),
    "gamma": (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.5),
    "max_depth": (6, 8, 10, 12, 15),
    "subsample": (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "colsample_bylevel": (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "colsample_bytree": (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "min_child_weight": (0.5, 1.0, 3.0, 5.0, 7.0, 10.0),
    "scale_pos_weight": (1.0, 2.0, 3.0, 4.0),
}


@dataclass(frozen=True)
class HyperParams:
    learning_rate: float = 0.1
    gamma: float = 0.0
    max_depth: int = 6
    subsample: float = 1.0
    colsample_bylevel: float = 1.0
    colsample_bytree: float = 1.0
    min_child_weight: float = 1.0
    scale_pos_weight: float = 1.0
    n_estimators: int = 100
    lambda_l2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidParams("learning_rate must be > 0")
        if self.gamma < 0 or self.min_child_weight < 0:
            raise InvalidParams("gamma and min_child_weight must be >= 0")
        if self.max_depth < 1 or self.n_estimators < 1:
            raise InvalidParams("max_depth and n_estimators must be >= 1")
        for name in ("subsample", "colsample_bylevel", "colsample_bytree"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise InvalidParams(f"{name} must be in (0, 1]")
        if self.scale_pos_weight <= 0 or self.lambda_l2 <= 0:
            raise InvalidParams("scale_pos_weight and lambda_l2 must be > 0")

    def with_seed(self, seed: int) -> "HyperParams":
        return replace(self, seed=seed)


class Tree:
    """Flat-array regression tree. feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "missing_left", "left", "right",
                 "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.missing_left: list[bool] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add_leaf(self, value: float) -> int:
        return self._add(-1, 0.0, False, -1, -1, float(value))

    def add_split(self, feature: int, threshold: float,
                  missing_left: bool) -> int:
        return self._add(int(feature), float(threshold), bool(missing_left),
                         -1, -1, 0.0)

    def _add(self, f, thr, ml, lt, rt, val) -> int:
        self.feature.append(f)
        self.threshold.append(thr)
        self.missing_left.append(ml)
        self.left.append(lt)
        self.right.append(rt)
        self.value.append(val)
        return len(self.feature) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        self._route(0, np.arange(len(X)), X, out)
        return out

    def _route(self, node, rows, X, out):
        if self.feature[node] < 0:
            out[rows] = self.value[node]
            return
        col = X[rows, self.feature[node]]
        nan = np.isnan(col)
        go_left = (col < self.threshold[node]) | (nan & self.missing_left[node])
        self._route(self.left[node], rows[go_left], X, out)
        self._route(self.right[node], rows[~go_left], X, out)

    def to_dict(self) -> dict:
        return {"feature": self.feature, "threshold": self.threshold,
                "missing_left": self.missing_left, "left": self.left,
                "right": self.right, "value": self.value}


@dataclass
class BoostedEnsemble:
    trees: list
    params: HyperParams
    feature_names: tuple

    def predict_margin(self, X) -> np.ndarray:
        X = _as_matrix(X, len(self.feature_names))
        margin = np.zeros(len(X))
        for tree in self.trees:
            margin += self.params.learning_rate * tree.predict(X)
        return margin

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.predict_margin(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)

    @property
    def split_free(self) -> bool:
        """No tree has a split node: the model ignores its inputs."""
        return not any(f >= 0 for tree in self.trees for f in tree.feature)

    def to_json(self) -> str:
        doc = {"format": "graphokit-gbt-1",
               "params": asdict(self.params),
               "feature_names": list(self.feature_names),
               "trees": [t.to_dict() for t in self.trees]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _as_matrix(X, n_features):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != n_features:
        raise DimensionMismatch(
            f"expected {n_features} features, got {X.shape[1]}")
    return X


def log_loss(y, prob) -> float:
    prob = np.clip(prob, 1e-12, 1 - 1e-12)
    y = np.asarray(y, dtype=float)
    return float(-np.mean(y * np.log(prob) + (1 - y) * np.log(1 - prob)))


def fit(X, y, params: HyperParams) -> BoostedEnsemble:
    """Train an ensemble; deterministic given (X, y, params)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidParams("X must be 2-dimensional")
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < 2:
        raise InvalidParams("need at least 2 samples")
    if len(np.unique(y)) < 2:
        raise SingleClass("both classes must be present")
    if p == 0 or not np.any(np.isfinite(X)):
        raise NoUsableFeature("no finite feature values")

    rng = np.random.default_rng(params.seed)
    w = np.where(y == 1, params.scale_pos_weight, 1.0)
    margin = np.zeros(n)
    trees = []
    n_sub = max(1, round(params.subsample * n))
    n_cols_tree = max(1, round(params.colsample_bytree * p))
    # column presort, once per fit (XGBoost's column block, Chen & Guestrin
    # 2016 sec. 4.1): row j of `order` lists the rows by feature j's value
    order = np.argsort(X.T, axis=1, kind="stable")
    sorted_x = np.take_along_axis(X.T, order, axis=1)

    for _ in range(params.n_estimators):
        prob = _sigmoid(margin)
        g = w * (prob - y)
        h = w * prob * (1 - prob)
        rows = (np.sort(rng.choice(n, size=n_sub, replace=False))
                if n_sub < n else np.arange(n))
        cols = (np.sort(rng.choice(p, size=n_cols_tree, replace=False))
                if n_cols_tree < p else np.arange(p))
        tree = _grow_tree(X, order, sorted_x, g, h, rows, cols, params, rng)
        trees.append(tree)
        margin += params.learning_rate * tree.predict(X)

    return BoostedEnsemble(trees=trees, params=params,
                           feature_names=tuple(f"f{j}" for j in range(p)))


def _grow_tree(X, order, sorted_x, g, h, rows, tree_cols,
               params: HyperParams, rng) -> Tree:
    """Level-synchronous growth so colsample_bylevel draws once per level."""
    tree = Tree()
    lam, gamma, mcw = params.lambda_l2, params.gamma, params.min_child_weight
    n = len(X)
    # g and h ride together as real and imaginary parts: one gather and one
    # cumsum serve both, with the same per-part additions
    gh = g + 1j * h
    n_cols_level = max(1, round(params.colsample_bylevel * len(tree_cols)))
    root = tree.add_leaf(0.0)
    frontier = [(root, rows)]
    for depth in range(params.max_depth):
        if not frontier:
            break
        cols = (np.sort(rng.choice(tree_cols, size=n_cols_level,
                                   replace=False))
                if n_cols_level < len(tree_cols) else tree_cols)
        level = None  # the presorted columns, gathered on first use
        next_frontier = []
        for node, idx in frontier:
            G, H = g[idx].sum(), h[idx].sum()
            # a split needs H >= mcw on both sides, which H < 2 mcw rules
            # out even in floating point: H - HL is exact (Sterbenz) wherever
            # HL >= H / 2
            if len(idx) < 2 or H < 2 * mcw:
                tree.value[node] = -G / (H + lam)
                continue
            if level is None:
                level = order[cols], sorted_x[cols]
            node_rows, node_x = level
            if len(idx) < n:
                # node rows ascend, so filtering the presorted order equals
                # a stable argsort of the node's own values
                member = np.zeros(n, dtype=bool)
                member[idx] = True
                keep = np.flatnonzero(member[node_rows])
                shape = (len(cols), len(idx))
                node_rows = node_rows.take(keep).reshape(shape)
                node_x = node_x.take(keep).reshape(shape)
            found = _best_split(node_x, gh[node_rows], G, H, lam, gamma, mcw)
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


def _best_split(xs, ghs, G, H, lam, gamma, mcw):
    """Exact greedy search over all columns of a node, vectorized.

    Row j of ``xs`` holds the node's values of its j-th candidate column in
    stable ascending order (NaN last), and row j of ``ghs`` the matching
    ``g + 1j * h``; ``G``, ``H`` are the node's gradient and hessian sums.
    Returns (column, threshold, missing_left, gain) for the best positive
    gain, or None. Ties resolve to missing-left first, then the lowest
    position in sort order, then the lowest column (deterministic).
    """
    c, m = xs.shape
    if np.isnan(xs[:, -1]).any():  # NaN sorts last: zero its rows' g and h
        ghs = np.where(np.isnan(xs), 0.0, ghs)
    cgh = np.cumsum(ghs, axis=1)
    cg, ch = cgh.real, cgh.imag
    # scenario 0 sends missing rows left (adds their per-column sums),
    # scenario 1 sends them right (adds 0.0)
    Gm = np.zeros((2, c, 1))
    Hm = np.zeros((2, c, 1))
    Gm[0, :, 0] = G - cg[:, -1]
    Hm[0, :, 0] = H - ch[:, -1]
    HLa = ch[:, :-1] + Hm
    HRa = H - HLa
    ok = (HLa >= mcw) & (HRa >= mcw) & (xs[:, 1:] > xs[:, :-1])
    # gains only where a split is allowed (NaN is never a valid threshold)
    cand = np.flatnonzero(ok)
    if not cand.size:
        return None
    GLa = (cg[:, :-1] + Gm).take(cand)
    HLa = HLa.take(cand)
    GRa = G - GLa
    HRa = HRa.take(cand)
    parent = G * G / (H + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (GLa ** 2 / (HLa + lam) + GRa ** 2 / (HRa + lam)
                      - parent) - gamma
    k = int(np.argmax(gain))
    if np.isnan(gain[k]):
        # a NaN gain with missing rows sent right never beats the
        # missing-left best; one with missing rows sent left ends the search
        n_left = int(np.searchsorted(cand, ok[0].size))
        if not n_left:
            return None
        cand, gain = cand[:n_left], gain[:n_left]
        k = int(np.argmax(gain))
    gain_val = gain[k]
    if not np.isfinite(gain_val) or gain_val <= 0:
        return None
    # candidates run column by column; ties go to the lowest position first
    scenario, col, i = np.unravel_index(cand[gain == gain_val], ok.shape)
    first = np.argmin((scenario * (m - 1) + i) * c + col)
    scenario, col, i = int(scenario[first]), int(col[first]), int(i[first])
    thr = 0.5 * (xs[col, i] + xs[col, i + 1])
    return col, float(thr), scenario == 0, float(gain_val)
