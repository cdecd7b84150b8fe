"""Rank statistics: exact/normal Mann-Whitney, Spearman correlation,
Benjamini-Hochberg, and the feature-screening table."""

import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphokit.errors import ConstantInput, EmptyGroup, LengthMismatch
from graphokit.stats import (Method, analyze_features, bh_adjust,
                             mann_whitney_u, rankdata, spearman_rho)
from graphokit.table import FeatureTable


def enumerate_exact_p(a, b):
    """Oracle: two-sided exact p by enumerating all group assignments."""
    pooled = list(a) + list(b)
    n1 = len(a)
    idx = range(len(pooled))

    def u_stat(sel):
        xs = [pooled[i] for i in sel]
        ys = [pooled[i] for i in idx if i not in sel]
        u1 = sum((x > y) + 0.5 * (x == y) for x in xs for y in ys)
        return min(u1, n1 * len(ys) - u1)

    observed = u_stat(set(range(n1)))
    hits = total = 0
    for sel in itertools.combinations(idx, n1):
        total += 1
        if u_stat(set(sel)) <= observed + 1e-9:
            hits += 1
    return hits / total


class TestRankdata:
    # a small pool makes ties likely; -0.0 ties with 0.0
    @given(st.lists(st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf)),
        st.floats(allow_nan=True)), max_size=40))
    @example([])
    @example([7.0])
    @example([0.0, 2.0, 3.0, 2.0])
    @example([1.0, np.nan, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_bit_for_bit(self, values):
        ours, theirs = rankdata(values), scipy.stats.rankdata(values)
        assert ours.dtype == theirs.dtype == np.float64
        assert ours.shape == theirs.shape == (len(values),)
        assert ours.tobytes() == theirs.tobytes()


class TestMannWhitney:
    def test_fully_separated_triples(self):
        res = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(0.1)
        assert res.method is Method.EXACT

    def test_identical_multisets(self):
        res = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.p_value >= 0.95

    def test_symmetry(self):
        a = [1.0, 5.0, 2.0, 8.0]
        b = [3.0, 9.0, 4.0]
        ra = mann_whitney_u(a, b)
        rb = mann_whitney_u(b, a)
        assert ra.p_value == pytest.approx(rb.p_value)
        assert ra.statistic == pytest.approx(rb.statistic)
        assert (ra.n1, ra.n2) == (rb.n2, rb.n1)

    def test_large_samples_use_normal(self):
        r = np.random.default_rng(0)
        res = mann_whitney_u(r.normal(size=13), r.normal(size=13))
        assert res.method is Method.NORMAL_APPROX

    def test_ties_force_normal(self):
        res = mann_whitney_u([1.0, 2.0, 2.0], [3.0, 4.0, 5.0])
        assert res.method is Method.NORMAL_APPROX

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroup):
            mann_whitney_u([], [1.0])

    def test_all_equal_has_no_evidence(self):
        res = mann_whitney_u([2.0, 2.0], [2.0, 2.0])
        assert res.p_value == 1.0

    @given(st.lists(st.integers(0, 50), min_size=3, max_size=5),
           st.lists(st.integers(0, 50), min_size=3, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_exact_matches_enumeration(self, a, b):
        a = [float(v) for v in a]
        b = [float(v) for v in b]
        if len(set(a + b)) < len(a) + len(b):
            return  # ties route to the normal approximation
        res = mann_whitney_u(a, b)
        assert res.method is Method.EXACT
        assert res.p_value == pytest.approx(enumerate_exact_p(a, b))

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=6,
                    unique=True),
           st.lists(st.floats(-100, 100), min_size=3, max_size=6,
                    unique=True),
           st.floats(0.1, 10.0), st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, a, b, scale, shift):
        ta = [scale * v + shift for v in a]
        tb = [scale * v + shift for v in b]
        if len(set(a + b)) < len(a) + len(b) or \
                len(set(ta + tb)) < len(ta) + len(tb):
            return  # rounding created ties; both calls must be tie-free
        r1 = mann_whitney_u(a, b)
        r2 = mann_whitney_u(ta, tb)
        assert r1.statistic == pytest.approx(r2.statistic)
        assert r1.p_value == pytest.approx(r2.p_value)

    def test_p_bounded(self):
        r = np.random.default_rng(7)
        for _ in range(30):
            res = mann_whitney_u(r.normal(size=r.integers(3, 20)),
                                 r.normal(size=r.integers(3, 20)))
            assert 0.0 < res.p_value <= 1.0


class TestSpearman:
    def test_hand_computed_example(self):
        # sum of squared rank differences is 4: rho = 1 - 6*4/(5*24) = 0.8
        res = spearman_rho([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert res.statistic == pytest.approx(0.8)
        # t = 0.8*sqrt(3/0.36), df=3, two-sided
        from scipy.special import stdtr
        t = 0.8 * np.sqrt(3 / 0.36)
        assert res.p_value == pytest.approx(float(2 * stdtr(3, -t)))

    def test_perfect_monotone(self):
        res = spearman_rho([1, 2, 3, 4], [10, 100, 1000, 10000])
        assert res.statistic == 1.0 and res.p_value == 0.0
        res = spearman_rho([1, 2, 3, 4], [5, 4, 3, 2])
        assert res.statistic == -1.0 and res.p_value == 0.0

    def test_ties_average_ranks(self):
        res = spearman_rho([1, 2, 2, 4], [1, 3, 3, 9])
        assert res.statistic == pytest.approx(1.0)

    def test_independent_is_near_zero(self):
        r = np.random.default_rng(11)
        res = spearman_rho(r.normal(size=500), r.normal(size=500))
        assert abs(res.statistic) < 0.1 and res.p_value > 0.05

    def test_degenerate(self):
        with pytest.raises(LengthMismatch):
            spearman_rho([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(LengthMismatch):
            spearman_rho([1.0, 2.0, 3.0], [3.0, 4.0])
        with pytest.raises(ConstantInput):
            spearman_rho([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    @given(st.integers(4, 40), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric_under_reflection(self, n, seed):
        r = np.random.default_rng(seed)
        x, y = r.normal(size=n), r.normal(size=n)
        a = spearman_rho(x, y)
        b = spearman_rho(x, -y)
        assert a.statistic == pytest.approx(-b.statistic)
        assert a.p_value == pytest.approx(b.p_value)


class TestBHAdjust:
    def test_single_p_unchanged(self):
        assert bh_adjust([0.03]).tolist() == [pytest.approx(0.03)]

    def test_textbook_example(self):
        p = [0.01, 0.04, 0.03, 0.005]
        # sorted: .005, .01, .03, .04 -> q: .02, .02, .04, .04
        assert bh_adjust(p).tolist() == pytest.approx([0.02, 0.04, 0.04, 0.02])

    def test_monotone_and_bounded(self):
        r = np.random.default_rng(4)
        p = r.random(60)
        q = bh_adjust(p)
        assert np.all(q >= p - 1e-12) and np.all(q <= 1.0)
        order = np.argsort(p)
        assert np.all(np.diff(q[order]) >= -1e-12)

    def test_empty(self):
        assert bh_adjust([]).size == 0


class TestNormalApproximation:
    def test_boundary_agreement_six_vs_six(self):
        # at the largest exact-path size, the tie-corrected continuity-
        # corrected normal p stays within 0.02 of enumeration for every U
        from graphokit.stats import _exact_p, _normal_p
        ones = np.ones(12, dtype=int)
        worst = max(abs(_exact_p(6, 6, u) - _normal_p(6, 6, u, ones))
                    for u in range(0, 19))
        assert worst <= 0.02


class TestNullCalibration:
    def test_exact_p_uniformity_under_null(self):
        # exact p-values are super-uniform: P(p <= a) <= a
        r = np.random.default_rng(99)
        ps = np.array(
            [mann_whitney_u(r.normal(size=5), r.normal(size=5)).p_value
             for _ in range(400)])
        for alpha in (0.05, 0.1, 0.25):
            assert np.mean(ps <= alpha) <= alpha + 0.05


class TestAnalyzeFeatures:
    def _table(self):
        r = np.random.default_rng(21)
        rows = []
        for i in range(8):
            rows.append((f"h{i}", 0, {"sep": float(i), "flat": 1.0,
                                      "noise": r.normal()}))
        for i in range(8):
            rows.append((f"p{i}", 1, {"sep": float(i) + 100.0, "flat": 1.0,
                                      "noise": r.normal()}))
        return FeatureTable.from_rows(rows)

    def test_separated_feature_ranks_first(self):
        rows = analyze_features(self._table())
        assert rows[0]["feature"] == "sep"
        assert rows[0]["p_u"] < 0.001
        # heavy ties in the binary label cap |rho| below 1 even under
        # perfect separation
        assert abs(rows[0]["rho"]) > 0.8

    def test_constant_feature_skipped(self):
        names = [row["feature"] for row in analyze_features(self._table())]
        assert "flat" not in names
        assert "noise" in names

    def test_q_values_attached(self):
        rows = analyze_features(self._table())
        p = [row["p_u"] for row in rows]
        q = [row["q"] for row in rows]
        assert q == pytest.approx(bh_adjust(p))

    def test_group_sizes_reported(self):
        row = analyze_features(self._table())[0]
        assert row["n_hc"] == 8 and row["n_lbd"] == 8
