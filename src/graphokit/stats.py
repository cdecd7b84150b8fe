"""Nonparametric screening statistics: Mann-Whitney U, Spearman's rho,
Benjamini-Hochberg adjustment.

The U test switches between full enumeration (small tie-free samples) and a
tie-corrected, continuity-corrected normal approximation; both are
two-sided.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb

import numpy as np

from .errors import ConstantInput, EmptyGroup, LengthMismatch

EXACT_LIMIT = 12  # max n1+n2 for exhaustive labeling enumeration


class Method(str, Enum):
    EXACT = "exact"
    NORMAL_APPROX = "normal_approx"
    T_DIST_APPROX = "t_dist_approx"


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n1: int
    n2: int
    method: Method


def rankdata(a) -> np.ndarray:
    """Average ranks, 1-based: a tie group at sorted positions start..end-1
    shares ``0.5 * (start + end + 1)``. Equal to ``scipy.stats.rankdata(a)``
    bit for bit, including its default that any NaN makes every rank NaN."""
    x = np.asarray(a, dtype=float)
    n = len(x)
    if np.isnan(x).any():
        return np.full(n, np.nan)
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def mann_whitney_u(a, b) -> TestResult:
    """Two-sided Mann-Whitney U test; U = min(U_a, U_b) with average ranks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise EmptyGroup("both groups must be non-empty")
    pooled = np.concatenate((a, b))
    ranks = rankdata(pooled)
    u1 = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2)
    u = min(u1, n1 * n2 - u1)

    _, tie_counts = np.unique(pooled, return_counts=True)
    has_ties = np.any(tie_counts > 1)

    if n1 + n2 <= EXACT_LIMIT and not has_ties:
        p = _exact_p(n1, n2, u)
        method = Method.EXACT
    else:
        p = _normal_p(n1, n2, u, tie_counts)
        method = Method.NORMAL_APPROX
    return TestResult(statistic=u, p_value=p, n1=n1, n2=n2, method=method)


def _exact_p(n1: int, n2: int, u_obs: float) -> float:
    """P(min(U1, U2) <= observed) over all C(n, n1) rank labelings."""
    n = n1 + n2
    total = comb(n, n1)
    base = n1 * (n1 + 1) // 2
    hits = 0
    for subset in combinations(range(1, n + 1), n1):
        u1 = sum(subset) - base
        if min(u1, n1 * n2 - u1) <= u_obs + 1e-9:
            hits += 1
    return hits / total


def _normal_p(n1: int, n2: int, u: float, tie_counts) -> float:
    from scipy.special import ndtr  # deferred: scipy loads only in screening

    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = (u - mu + 0.5) / np.sqrt(var)  # continuity correction; u <= mu
    return float(min(1.0, 2.0 * ndtr(min(z, 0.0))))


def spearman_rho(x, y) -> TestResult:
    """Spearman's rho with a two-sided t-approximation p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise LengthMismatch("need at least 3 pairs")
    rx, ry = rankdata(x), rankdata(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise ConstantInput("constant input after ranking")
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    rho = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        from scipy.special import stdtr
        t = rho * np.sqrt((n - 2) / (1.0 - rho ** 2))
        p = float(2.0 * stdtr(n - 2, -abs(t)))
    return TestResult(statistic=rho, p_value=p, n1=n, n2=n,
                      method=Method.T_DIST_APPROX)


def bh_adjust(pvals) -> np.ndarray:
    """Benjamini-Hochberg adjusted q-values (reported, never gating)."""
    p = np.asarray(pvals, dtype=float)
    m = len(p)
    order = np.argsort(p, kind="stable")
    q = np.empty(m)
    running = 1.0
    for rank_from_end, i in enumerate(order[::-1]):
        rank = m - rank_from_end
        running = min(running, p[i] * m / rank)
        q[i] = running
    return q


def analyze_features(table) -> list[dict]:
    """Per-feature screening rows, sorted by the U-test p-value.

    Each row: feature, p_u, rho, p_rho, q (BH-adjusted p_u), n_hc, n_lbd.
    Features with fewer than 3 finite values in either group are skipped.
    """
    labels = table.labels
    rows = []
    for j, name in enumerate(table.feature_names):
        col = table.values[:, j]
        ok = np.isfinite(col)
        a = col[ok & (labels == 0)]
        b = col[ok & (labels == 1)]
        if len(a) < 3 or len(b) < 3:
            continue
        try:
            u = mann_whitney_u(a, b)
            rho = spearman_rho(col[ok], labels[ok])
        except ConstantInput:
            continue
        rows.append({"feature": name, "p_u": u.p_value,
                     "rho": rho.statistic, "p_rho": rho.p_value,
                     "n_hc": len(a), "n_lbd": len(b)})
    if rows:
        q = bh_adjust([r["p_u"] for r in rows])
        for r, qi in zip(rows, q):
            r["q"] = float(qi)
    rows.sort(key=lambda r: (r["p_u"], r["feature"]))
    return rows
