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
from graphokit.features.basic import (AGGREGATIONS, _aggregations, aggregate,
                                      aggregate_all, dynamic_features,
                                      kinematic_vector, path_length,
                                      spatial_features, temporal_features)
from graphokit.features.events import velocity_profile_changes
from graphokit.features.extract import extract_features
from graphokit.ink import (in_air_strokes, on_surface_strokes,
                           segment_strokes)

from builders import make_recording


# Slow reference: the aggregations as they stood before the hand-made
# partitions, through np.median and np.percentile, kept verbatim so the fast
# path can be held to the same bits.
def reference_aggregations(v, hows=AGGREGATIONS) -> dict:
    out = {}
    if "median" in hows or "ncv" in hows:
        med = np.median(v)
    if "ncv" in hows or "p95" in hows:
        q25, q75, q95 = np.percentile(v, [25, 75, 95])
    for how in hows:
        if how == "median":
            out[how] = float(med)
        elif how == "p95":
            out[how] = float(q95)
        elif how == "ncv":
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
        assert aggregate(v, "median") == 2.5
        # linear-interpolation quantiles at p*(n-1)
        assert aggregate(v, "p95") == pytest.approx(3.85)
        assert aggregate(v, "ncv") == pytest.approx(0.6)
        assert aggregate(v, "slope") == pytest.approx(1.0)

    def test_slope_matches_polyfit(self, rng):
        v = rng.normal(size=37)
        expect = np.polyfit(np.arange(37), v, 1)[0]
        assert aggregate(v, "slope") == pytest.approx(expect)

    def test_zero_median_ncv_is_missing(self):
        assert np.isnan(aggregate([-1.0, 0.0, 1.0], "ncv"))

    def test_single_point_slope_is_missing(self):
        assert np.isnan(aggregate([5.0], "slope"))

    def test_empty_raises(self):
        with pytest.raises(EmptyVector):
            aggregate([], "median")

    def test_nan_entries_dropped(self):
        assert aggregate([1.0, np.nan, 3.0], "median") == 2.0

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
        for how in ("median", "p95"):
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


# Slow reference: the per-stroke, per-projection, per-order kinematics as
# they stood before the single pass, kept verbatim but for the projection
# enum, whose members compared equal to these strings.
def kinematic_profile(stroke, proj, order: str) -> np.ndarray:
    if order not in ("velocity", "acceleration"):
        raise ValueError(f"unknown order {order!r}")
    min_len = 2 if order == "velocity" else 3
    if stroke.n < min_len:
        return np.empty(0)
    t = stroke.t
    dt = np.diff(t)
    if proj == "glob":
        disp = np.hypot(np.diff(stroke.x), np.diff(stroke.y))
    elif proj == "horiz":
        disp = np.abs(np.diff(stroke.x))
    else:
        disp = np.abs(np.diff(stroke.y))
    vel = disp / dt
    if order == "velocity":
        return vel
    mid_dt = (t[2:] - t[:-2]) / 2.0
    return np.diff(vel) / mid_dt


def reference_kinematic_vector(strokes, proj, order: str) -> np.ndarray:
    parts = [kinematic_profile(s, proj, order) for s in strokes]
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else np.empty(0)


KINEMATIC_KEYS = ["velocity_glob", "acceleration_glob", "velocity_horiz",
                  "acceleration_horiz", "velocity_vert", "acceleration_vert"]


def run_recording(runs, seed):
    """Alternating on-surface/in-air runs of the given lengths, on-surface
    first, on a coarse grid so displacements tie and vanish."""
    pen = np.concatenate([np.full(n, (i + 1) % 2) for i, n in enumerate(runs)])
    r = np.random.default_rng(seed)
    n = len(pen)
    return make_recording(np.round(10 * r.random(n)), np.round(10 * r.random(n)),
                          t=np.cumsum(0.001 + r.random(n)), pen=pen)


RUN_LENGTHS = st.lists(st.integers(1, 6), min_size=1, max_size=10)
SEEDS = st.integers(0, 2 ** 31 - 1)


class TestKinematic:
    def _stroke(self, x, y, t):
        rec = make_recording(x, y, t=t)
        return segment_strokes(rec)[0]

    def test_constant_velocity(self):
        t = np.linspace(0.0, 1.0, 14)
        s = self._stroke(300.0 * t, np.zeros(14), t)
        vel = kinematic_vector([s])["velocity_glob"]
        np.testing.assert_allclose(vel, 300.0)

    def test_quadratic_position_gives_constant_acceleration(self):
        # x = t^2 has second derivative exactly 2 under the midpoint
        # stencil, for arbitrary (even irregular) time spacing
        t = np.sort(np.concatenate(([0.0, 1.0], 0.07 + 0.9
                                    * np.random.default_rng(3).random(20))))
        s = self._stroke(t ** 2, np.zeros(len(t)), t)
        acc = kinematic_vector([s])["acceleration_horiz"]
        np.testing.assert_allclose(acc, 2.0, rtol=1e-9)

    def test_projections_unsigned_by_default(self):
        t = np.arange(3) / 130.0
        s = self._stroke([0.0, 1.0, 0.0], [0.0, -2.0, 0.0], t)
        kin = kinematic_vector([s])
        vh, vv = kin["velocity_horiz"], kin["velocity_vert"]
        assert np.all(vh > 0) and np.all(vv > 0)

    def test_too_short_gives_empty(self):
        t = np.arange(2) / 130.0
        s = self._stroke([0.0, 1.0], [0.0, 0.0], t)
        assert kinematic_vector([s])["acceleration_glob"].size == 0

    def test_no_strokes_give_six_empty_vectors(self):
        kin = kinematic_vector([])
        assert list(kin) == KINEMATIC_KEYS
        assert all(v.size == 0 for v in kin.values())

    def test_vector_concatenates_strokes(self):
        pen = [1, 1, 1, 0, 1, 1, 1]
        rec = make_recording(np.arange(7.0), np.zeros(7), pen=pen)
        on = on_surface_strokes(segment_strokes(rec))
        v = kinematic_vector(on)["velocity_glob"]
        assert v.size == 4  # 2 increments per 3-sample stroke

    @given(RUN_LENGTHS, SEEDS)
    # strokes of 1, 2 and 3 samples in both scopes
    @example([1, 2, 3, 1, 2, 3], 0)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bit_for_bit(self, runs, seed):
        strokes = segment_strokes(run_recording(runs, seed))
        for scope in (on_surface_strokes(strokes), in_air_strokes(strokes)):
            kin = kinematic_vector(scope)
            assert list(kin) == KINEMATIC_KEYS
            for key, v in kin.items():
                order, proj = key.split("_")
                np.testing.assert_array_equal(
                    v, reference_kinematic_vector(scope, proj, order))

    # two runs or more: extract_features needs two samples
    @given(st.lists(st.integers(1, 8), min_size=2, max_size=10), SEEDS)
    @example([4, 1, 1, 2, 3, 1, 6], 0)
    @settings(max_examples=80, deadline=None)
    def test_velocity_changes_match_per_stroke_reference(self, runs, seed):
        rec = run_recording(runs, seed)
        changes, rels = [], []
        for s in on_surface_strokes(segment_strokes(rec)):
            vel = reference_kinematic_vector([s], "glob", "velocity")
            c, r = velocity_profile_changes(vel, s.duration)
            if not np.isnan(c):
                changes.append(c)
                rels.append(r)
        out = extract_features(rec)
        np.testing.assert_array_equal(
            [out["other.other.velocity_changes"],
             out["other.other.velocity_changes_rel"]],
            [float(np.sum(changes)) if changes else float("nan"),
             float(np.median(rels)) if rels else float("nan")])

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
        v1 = kinematic_vector([s1])["velocity_glob"]
        v2 = kinematic_vector([s2])["velocity_glob"]
        v3 = kinematic_vector([s3])["velocity_glob"]
        np.testing.assert_allclose(v2, v1, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(v3, v1 / c, rtol=1e-6)

    @given(st.integers(3, 30), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_euclidean_velocity_dominates_projections(self, n, seed):
        r = np.random.default_rng(seed)
        s = self._stroke(100 * r.random(n), 100 * r.random(n),
                         np.cumsum(0.001 + r.random(n)))
        kin = kinematic_vector([s])
        vg, vh, vv = (kin[f"velocity_{proj}"]
                      for proj in ("glob", "horiz", "vert"))
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
        sp = spatial_features(rec, True)
        assert sp["width"] == 3.0
        assert sp["height"] == 4.0
        assert sp["length"] == 5.0

    def test_scopes_split_strokes(self):
        pen = [1, 1, 0, 0]
        rec = make_recording([0, 1, 10, 30], [0, 0, 0, 0], pen=pen)
        on = spatial_features(rec, True)
        air = spatial_features(rec, False)
        assert on["width"] == 1.0
        assert air["width"] == 20.0

    def test_empty_scope(self):
        rec = make_recording([0, 1], [0, 0])
        with pytest.raises(EmptyScope):
            spatial_features(rec, False)

    def test_per_stroke_vectors(self):
        pen = [1, 1, 0, 1, 1, 1]
        x = [0, 2, 5, 10, 11, 14]
        rec = make_recording(x, np.zeros(6), pen=pen)
        sp = spatial_features(rec, True)
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
        a = spatial_features(make_recording(x, y), True)
        b = spatial_features(make_recording(x + shift, y + shift), True)
        for key in ("width", "height", "length"):
            assert a[key] == pytest.approx(b[key], abs=1e-6)
