"""Polar unwrapping and the seven spiral features."""

import numpy as np
import pytest

from graphokit.errors import DegenerateRadius, FitFailure, NotASpiral
from graphokit.features.spiral import (PolarTrace, spiral_features,
                                       unwrap_polar, zero_crossing_rate)
from graphokit.synth import ImpairmentProfile, gen_spiral

from builders import make_recording


def ideal_spiral(b=5.0, turns=3.0, n=1300, center=(500.0, 500.0),
                 clockwise=False, rate=130.0):
    theta = np.linspace(0.0, 2 * np.pi * turns, n)
    sign = -1.0 if clockwise else 1.0
    r = b * theta
    return make_recording(center[0] + r * np.cos(sign * theta),
                          center[1] + r * np.sin(sign * theta),
                          t=np.arange(n) / rate)


class TestUnwrap:
    def test_ideal_spiral_reconstruction(self):
        trace = unwrap_polar(ideal_spiral())
        span = trace.theta[-1] - trace.theta[0]
        assert span == pytest.approx(6 * np.pi, abs=1e-6)
        # r strictly increasing beyond the first turn
        beyond = trace.theta - trace.theta[0] > 2 * np.pi
        assert np.all(np.diff(trace.r[beyond]) > 0)

    def test_unwrap_steps_below_pi(self):
        trace = unwrap_polar(ideal_spiral())
        assert np.all(np.abs(np.diff(trace.theta)) < np.pi)

    def test_clockwise_normalizes_to_same_profile(self):
        ccw = unwrap_polar(ideal_spiral(clockwise=False))
        cw = unwrap_polar(ideal_spiral(clockwise=True))
        np.testing.assert_allclose(cw.r, ccw.r, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(np.diff(cw.theta), np.diff(ccw.theta),
                                   rtol=1e-6, atol=1e-9)
        assert cw.theta[-1] > cw.theta[0]

    def test_straight_line_rejected(self):
        rec = make_recording(np.linspace(0, 100, 60), np.zeros(60))
        with pytest.raises(NotASpiral):
            unwrap_polar(rec)

    def test_cluster_at_center_rejected(self):
        # almost all samples coincide with the centroid
        x = np.concatenate((np.full(60, 10.0), [10.0 + 1e-6]))
        with pytest.raises((DegenerateRadius, NotASpiral)):
            unwrap_polar(make_recording(x, np.full(61, 5.0)))

    def test_trace_invariant_enforced(self):
        with pytest.raises(ValueError):
            PolarTrace(theta=np.array([0.0, 4.0]), r=np.array([1.0, 2.0]),
                       t=np.array([0.0, 1.0]), center=(0.0, 0.0))
        with pytest.raises(ValueError):
            PolarTrace(theta=np.array([0.0, 1.0]), r=np.array([1.0, -2.0]),
                       t=np.array([0.0, 1.0]), center=(0.0, 0.0))


class TestFeatures:
    def _features(self, rec):
        return spiral_features(unwrap_polar(rec), rec)

    def test_noiseless_ideal_values(self):
        f = self._features(ideal_spiral(b=5.0))
        assert f["dos"] <= 1e-6
        assert f["tightness"] == pytest.approx(0.2, rel=0.01)
        assert f["width_var"] <= 1e-6
        assert f["spi"] >= 99.9
        assert f["smoothness2"] == pytest.approx(0.0, abs=1e-6)
        assert f["zcr1"] == 0.0

    def test_mean_speed_matches_arc_length(self):
        rec = gen_spiral(b=5.0, turns=3.0, duration_s=10.0)
        f = self._features(rec)
        expect = rec.meta["true_arc_length"] / rec.meta["true_duration"]
        assert f["mean_speed"] == pytest.approx(expect, rel=5e-3)

    def test_rotation_invariance(self):
        rec = gen_spiral(profile=ImpairmentProfile(radial_noise_sigma=1.0,
                                                   seed=5))
        base = self._features(rec)
        cx, cy = rec.x.mean(), rec.y.mean()
        a = 1.1
        x = cx + (rec.x - cx) * np.cos(a) - (rec.y - cy) * np.sin(a)
        y = cy + (rec.x - cx) * np.sin(a) + (rec.y - cy) * np.cos(a)
        rot = make_recording(x, y, t=rec.t)
        f = self._features(rot)
        # the refined centers agree only to optimizer precision (~1e-7), and
        # smoothness2/width_var make sorting decisions sensitive to that
        loose = {"smoothness2", "width_var"}
        for name, v in base.items():
            rel = 1e-3 if name in loose else 1e-5
            assert f[name] == pytest.approx(v, rel=rel, abs=1e-9), name

    def test_scale_covariance(self):
        rec = gen_spiral(profile=ImpairmentProfile(radial_noise_sigma=1.0,
                                                   seed=9))
        base = self._features(rec)
        c = 3.0
        scaled = make_recording(rec.x * c, rec.y * c, t=rec.t)
        f = self._features(scaled)
        assert f["tightness"] == pytest.approx(base["tightness"] / c, rel=1e-6)
        assert f["mean_speed"] == pytest.approx(base["mean_speed"] * c,
                                                rel=1e-6)
        # dimensionless features are scale invariant
        for name in ("dos", "spi", "width_var", "smoothness2", "zcr1"):
            assert f[name] == pytest.approx(base[name], rel=1e-6), name

    def test_shrinking_curve_rejected(self):
        # radius decreasing with angle gives a negative growth rate
        theta = np.linspace(0.0, 6 * np.pi, 800)
        r = 100.0 - 4.5 * theta
        rec = make_recording(500 + r * np.cos(theta), 500 + r * np.sin(theta))
        with pytest.raises(FitFailure):
            spiral_features(unwrap_polar(rec), rec)

    def test_zcr_increases_with_noise(self):
        quiet = unwrap_polar(gen_spiral(
            profile=ImpairmentProfile(radial_noise_sigma=0.5, seed=3)))
        loud = unwrap_polar(gen_spiral(
            profile=ImpairmentProfile(radial_noise_sigma=4.0, seed=3)))
        assert zero_crossing_rate(loud) > zero_crossing_rate(quiet)
