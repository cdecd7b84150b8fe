"""Temporal/kinematic/dynamic/spatial features and the aggregations,
checked against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from graphokit.errors import (DegenerateRecording, EmptyScope, EmptyVector,
                              NoOnSurfaceSamples)
from graphokit.features.basic import (Aggregation, Projection, SurfaceScope,
                                      _aggregations, aggregate, aggregate_all,
                                      dynamic_features, kinematic_profile,
                                      kinematic_vector, path_length,
                                      spatial_features, temporal_features)
from graphokit.ink import on_surface_strokes, segment_strokes

from builders import make_recording


# Slow reference: the aggregations as they stood before the hand-made
# partitions, through np.median and np.percentile, kept verbatim so the fast
# path can be held to the same bits.
def reference_aggregations(v, hows=tuple(Aggregation)) -> dict:
    out = {}
    if Aggregation.MEDIAN in hows or Aggregation.NCV in hows:
        med = np.median(v)
    if Aggregation.NCV in hows or Aggregation.P95 in hows:
        q25, q75, q95 = np.percentile(v, [25, 75, 95])
    for how in hows:
        if how is Aggregation.MEDIAN:
            out[how] = float(med)
        elif how is Aggregation.P95:
            out[how] = float(q95)
        elif how is Aggregation.NCV:
            out[how] = float("nan") if med == 0 else float((q75 - q25) / med)
        elif v.size < 2:
            out[how] = float("nan")
        else:  # slope: OLS of v against its 0-based index
            idx = np.arange(v.size, dtype=float)
            idx -= idx.mean()
            out[how] = float(idx @ (v - v.mean()) / (idx @ idx))
    return out


# signed zeros, infinities, subnormals and the extremes, drawn often enough
# to tie; the ordinary values are mostly small integers for the same reason
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, -2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
AGG_VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                       st.integers(-3, 3).map(float),
                       st.floats(allow_nan=False))


class TestAggregate:
    @given(st.one_of(st.lists(AGG_VALUES, min_size=1, max_size=2),
                     st.lists(AGG_VALUES, min_size=1, max_size=40)))
    # numpy's P95 of [-0.0] is -0.0: at the last index its weight is 1
    @example([-0.0])
    # the sign of a ±0 upper neighbour depends on numpy's partition
    @example([-1.0, -0.0, -1.0, 0.0, -1.0, -0.0])
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_reference_bit_for_bit(self, v):
        v = np.array(v)
        got = _aggregations(v)
        expect = reference_aggregations(v)
        assert {how: np.float64(x).tobytes() for how, x in got.items()} == \
            {how: np.float64(x).tobytes() for how, x in expect.items()}


    def test_reference_vector(self):
        v = [1.0, 2.0, 3.0, 4.0]
        assert aggregate(v, Aggregation.MEDIAN) == 2.5
        # linear-interpolation quantiles at p*(n-1)
        assert aggregate(v, Aggregation.P95) == pytest.approx(3.85)
        assert aggregate(v, Aggregation.NCV) == pytest.approx(0.6)
        assert aggregate(v, Aggregation.SLOPE) == pytest.approx(1.0)

    def test_slope_matches_polyfit(self, rng):
        v = rng.normal(size=37)
        expect = np.polyfit(np.arange(37), v, 1)[0]
        assert aggregate(v, Aggregation.SLOPE) == pytest.approx(expect)

    def test_zero_median_ncv_is_missing(self):
        assert np.isnan(aggregate([-1.0, 0.0, 1.0], Aggregation.NCV))

    def test_single_point_slope_is_missing(self):
        assert np.isnan(aggregate([5.0], Aggregation.SLOPE))

    def test_empty_raises(self):
        with pytest.raises(EmptyVector):
            aggregate([], Aggregation.MEDIAN)

    def test_nan_entries_dropped(self):
        assert aggregate([1.0, np.nan, 3.0], Aggregation.MEDIAN) == 2.0

    def test_aggregate_all_emits_four_keys(self):
        out = {}
        aggregate_all([1.0, 2.0], "pfx", out)
        assert sorted(out) == ["pfx_median", "pfx_ncv", "pfx_p95", "pfx_slope"]

    def test_aggregate_all_empty_vector_is_missing(self):
        out = {}
        aggregate_all([], "pfx", out)
        assert all(np.isnan(v) for v in out.values())

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(-100.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_median_p95_shift_equivariance(self, v, c):
        for how in (Aggregation.MEDIAN, Aggregation.P95):
            a = aggregate(np.asarray(v) + c, how)
            b = aggregate(v, how) + c
            assert a == pytest.approx(b, abs=1e-6)


class TestTemporal:
    def test_known_durations(self):
        # 130 Hz; pen pattern: 3 on, 2 air, 4 on
        pen = [1, 1, 1, 0, 0, 1, 1, 1, 1]
        rec = make_recording(np.arange(9), np.zeros(9), pen=pen)
        tf = temporal_features(rec)
        dt = 1.0 / 130.0
        assert tf["duration"] == pytest.approx(8 * dt)
        assert tf["duration_onsurf"] == pytest.approx(5 * dt)
        assert tf["duration_inair"] == pytest.approx(1 * dt)
        assert tf["duration_ratio"] == pytest.approx(5.0)
        assert tf["stroke_duration_onsurf"].tolist() == \
            pytest.approx([2 * dt, 3 * dt])
        assert tf["stroke_duration_ratio"].tolist() == pytest.approx([2.0])

    def test_no_air_ratio_missing(self):
        rec = make_recording([0, 1, 2], [0, 0, 0])
        tf = temporal_features(rec)
        assert np.isnan(tf["duration_ratio"])
        assert tf["stroke_duration_inair"].size == 0

    def test_too_short(self):
        with pytest.raises(DegenerateRecording):
            temporal_features(make_recording([1], [1]))

    def test_all_in_air(self):
        rec = make_recording([0, 1], [0, 0], pen=[0, 0])
        with pytest.raises(NoOnSurfaceSamples):
            temporal_features(rec)


class TestKinematic:
    def _stroke(self, x, y, t):
        rec = make_recording(x, y, t=t)
        return segment_strokes(rec)[0]

    def test_constant_velocity(self):
        t = np.linspace(0.0, 1.0, 14)
        s = self._stroke(300.0 * t, np.zeros(14), t)
        vel = kinematic_profile(s, Projection.GLOBAL, "velocity")
        np.testing.assert_allclose(vel, 300.0)

    def test_quadratic_position_gives_constant_acceleration(self):
        # x = t^2 has second derivative exactly 2 under the midpoint
        # stencil, for arbitrary (even irregular) time spacing
        t = np.sort(np.concatenate(([0.0, 1.0], 0.07 + 0.9
                                    * np.random.default_rng(3).random(20))))
        s = self._stroke(t ** 2, np.zeros(len(t)), t)
        acc = kinematic_profile(s, Projection.HORIZONTAL, "acceleration")
        np.testing.assert_allclose(acc, 2.0, rtol=1e-9)

    def test_projections_unsigned_by_default(self):
        t = np.arange(3) / 130.0
        s = self._stroke([0.0, 1.0, 0.0], [0.0, -2.0, 0.0], t)
        vh = kinematic_profile(s, Projection.HORIZONTAL, "velocity")
        vv = kinematic_profile(s, Projection.VERTICAL, "velocity")
        assert np.all(vh > 0) and np.all(vv > 0)

    def test_too_short_gives_empty(self):
        t = np.arange(2) / 130.0
        s = self._stroke([0.0, 1.0], [0.0, 0.0], t)
        assert kinematic_profile(s, Projection.GLOBAL, "acceleration").size == 0

    def test_vector_concatenates_strokes(self):
        pen = [1, 1, 1, 0, 1, 1, 1]
        rec = make_recording(np.arange(7.0), np.zeros(7), pen=pen)
        on = on_surface_strokes(segment_strokes(rec))
        v = kinematic_vector(on, Projection.GLOBAL, "velocity")
        assert v.size == 4  # 2 increments per 3-sample stroke

    @given(st.integers(3, 30), st.floats(0.1, 10.0), st.floats(-500, 500),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance_and_time_scaling(self, n, c, shift, seed):
        r = np.random.default_rng(seed)
        x, y = 100 * r.random(n), 100 * r.random(n)
        t = np.cumsum(0.001 + r.random(n))
        s1 = self._stroke(x, y, t)
        s2 = self._stroke(x + shift, y + shift, t)
        s3 = self._stroke(x, y, t * c)
        v1 = kinematic_vector([s1], Projection.GLOBAL, "velocity")
        v2 = kinematic_vector([s2], Projection.GLOBAL, "velocity")
        v3 = kinematic_vector([s3], Projection.GLOBAL, "velocity")
        np.testing.assert_allclose(v2, v1, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(v3, v1 / c, rtol=1e-6)

    @given(st.integers(3, 30), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_euclidean_velocity_dominates_projections(self, n, seed):
        r = np.random.default_rng(seed)
        s = self._stroke(100 * r.random(n), 100 * r.random(n),
                         np.cumsum(0.001 + r.random(n)))
        vg = kinematic_profile(s, Projection.GLOBAL, "velocity")
        vh = kinematic_profile(s, Projection.HORIZONTAL, "velocity")
        vv = kinematic_profile(s, Projection.VERTICAL, "velocity")
        assert np.all(vg >= np.maximum(vh, vv) - 1e-9)


class TestDynamic:
    def test_on_surface_mask(self):
        rec = make_recording(np.arange(4), np.zeros(4), pen=[1, 0, 1, 0],
                             pressure=[10, 20, 30, 40], tilt=[1, 2, 3, 4],
                             azimuth=[5, 6, 7, 8])
        dyn = dynamic_features(rec)
        assert dyn["pressure"].tolist() == [10.0, 30.0]
        assert dyn["tilt"].tolist() == [1.0, 3.0]
        assert dyn["azimuth"].tolist() == [5.0, 7.0]

    def test_no_surface_samples(self):
        rec = make_recording([0, 1], [0, 0], pen=[0, 0])
        with pytest.raises(NoOnSurfaceSamples):
            dynamic_features(rec)


class TestSpatial:
    def test_three_four_five(self):
        rec = make_recording([0.0, 3.0], [0.0, 4.0])
        sp = spatial_features(rec, SurfaceScope.ON_SURFACE)
        assert sp["width"] == 3.0
        assert sp["height"] == 4.0
        assert sp["length"] == 5.0

    def test_scopes_split_strokes(self):
        pen = [1, 1, 0, 0]
        rec = make_recording([0, 1, 10, 30], [0, 0, 0, 0], pen=pen)
        on = spatial_features(rec, SurfaceScope.ON_SURFACE)
        air = spatial_features(rec, SurfaceScope.IN_AIR)
        assert on["width"] == 1.0
        assert air["width"] == 20.0

    def test_empty_scope(self):
        rec = make_recording([0, 1], [0, 0])
        with pytest.raises(EmptyScope):
            spatial_features(rec, SurfaceScope.IN_AIR)

    def test_per_stroke_vectors(self):
        pen = [1, 1, 0, 1, 1, 1]
        x = [0, 2, 5, 10, 11, 14]
        rec = make_recording(x, np.zeros(6), pen=pen)
        sp = spatial_features(rec, SurfaceScope.ON_SURFACE)
        assert sp["stroke_width"].tolist() == [2.0, 4.0]
        assert sp["stroke_length"].tolist() == [2.0, 4.0]

    def test_spiral_arc_length_against_quadrature(self):
        b, theta_max = 5.0, 6 * np.pi
        theta = np.linspace(0.0, theta_max, 4000)
        x = b * theta * np.cos(theta)
        y = b * theta * np.sin(theta)
        analytic, _ = quad(lambda th: np.hypot(b, b * th), 0.0, theta_max)
        assert path_length(x, y) == pytest.approx(analytic, rel=5e-3)

    @given(st.integers(2, 40), st.floats(-1000, 1000),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, n, shift, seed):
        r = np.random.default_rng(seed)
        x, y = 100 * r.random(n), 100 * r.random(n)
        a = spatial_features(make_recording(x, y), SurfaceScope.ON_SURFACE)
        b = spatial_features(make_recording(x + shift, y + shift),
                             SurfaceScope.ON_SURFACE)
        for key in ("width", "height", "length"):
            assert a[key] == pytest.approx(b[key], abs=1e-6)
