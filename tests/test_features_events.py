"""Pen stops, intersections, entropy and velocity-profile changes, checked
against slow brute-force oracles."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphokit.features.events import (count_intersections, count_pen_stops,
                                       shannon_entropy, stroke_summary,
                                       velocity_profile_changes)
from graphokit.ink import on_surface_strokes, segment_strokes

from builders import make_recording


def scripted_recording(holds, rate=130.0, speed=500.0):
    """Fast straight trajectory with stationary holds of given durations.

    Returns (recording, count of holds >= 30 ms).
    """
    dt = 1.0 / rate
    xs, ts = [0.0], [0.0]
    for k, dur in enumerate(holds + [None]):
        # move quickly for 20 samples, then hold
        for _ in range(20):
            xs.append(xs[-1] + speed * dt)
            ts.append(ts[-1] + dt)
        if dur is None:
            break
        reps = int(round(dur * rate))
        for _ in range(reps):
            xs.append(xs[-1])
            ts.append(ts[-1] + dt)
    rec = make_recording(xs, np.zeros(len(xs)), t=ts, rate=rate)
    expected = sum(1 for d in holds if round(d * rate) * dt >= 0.030 - 1e-12)
    return rec, expected


class TestPenStops:
    def test_scripted_holds_exact(self):
        rec, expected = scripted_recording([0.05, 0.1, 0.04])
        assert count_pen_stops(rec) == expected == 3

    def test_short_holds_ignored(self):
        rec, expected = scripted_recording([0.05, 0.015, 0.008])
        assert count_pen_stops(rec) == expected == 1

    def test_no_holds(self):
        rec, expected = scripted_recording([])
        assert count_pen_stops(rec) == 0 == expected

    def test_in_air_holds_not_counted(self):
        rec, _ = scripted_recording([0.05])
        airborne = make_recording(rec.x, rec.y, t=rec.t,
                                  pen=np.zeros(len(rec), dtype=np.int8))
        assert count_pen_stops(airborne) == 0

    def test_hold_split_across_strokes_not_merged(self):
        # 4 stationary samples split 2/2 by a pen lift: neither half
        # reaches 30 ms on its own
        x = [0, 1, 2, 2, 2, 2, 3, 4]
        pen = [1, 1, 1, 1, 0, 1, 1, 1]
        rec = make_recording(x, np.zeros(8), pen=pen)
        assert count_pen_stops(rec) == 0

    @given(st.lists(st.floats(0.001, 0.2), max_size=5),
           st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_scripted_matches_oracle(self, holds, salt):
        rec, expected = scripted_recording(holds)
        assert count_pen_stops(rec) == expected

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(0, 4),
           st.sampled_from((0.0, 0.01, 0.03, 0.06)),
           st.sampled_from((0.0, 0.5, 2.0, 5.0)))
    @settings(max_examples=80, deadline=None)
    def test_random_walk_matches_brute_force(self, seed, n_holds, n_lifts,
                                             min_duration, radius):
        rec = held_random_walk(seed, n_holds, n_lifts)
        expected = oracle_pen_stops(rec.x, rec.y, rec.t, rec.pen_status,
                                    min_duration, radius)
        assert count_pen_stops(rec, min_duration=min_duration,
                               radius=radius) == expected

    def test_monotone_in_parameters(self):
        rec, _ = scripted_recording([0.03, 0.05, 0.2, 0.01])
        durs = [0.01, 0.03, 0.05, 0.1, 0.5]
        counts = [count_pen_stops(rec, min_duration=d) for d in durs]
        assert counts == sorted(counts, reverse=True)
        radii = [0.01, 1.0, 5.0, 50.0]
        counts = [count_pen_stops(rec, radius=r) for r in radii]
        assert counts == sorted(counts)


def oracle_pen_stops(x, y, t, pen, min_duration, radius):
    """Brute force of the docstring: within each run of pen-down samples,
    start a run at every sample, extend it while samples stay within
    ``radius`` of its first one, and take qualifying runs greedily."""
    total = 0
    k = 0
    while k < len(pen):
        stop = k
        while stop < len(pen) and pen[stop] == pen[k]:
            stop += 1
        if pen[k] == 1:
            i = k
            while i < stop:
                j = i
                while j + 1 < stop and not (
                        np.hypot(x[j + 1] - x[i], y[j + 1] - y[i]) > radius):
                    j += 1
                if t[j] - t[i] >= min_duration:
                    total += 1
                    i = j + 1
                else:
                    i += 1
        k = stop
    return total


def held_random_walk(seed, n_holds, n_lifts, rate=130.0):
    """Jittered random walk with stationary holds (sub-radius tremor) and
    pen lifts inserted at random places."""
    r = np.random.default_rng(seed)
    steps = r.normal(0.0, r.uniform(0.5, 3.0), (int(r.integers(20, 300)), 2))
    for _ in range(n_holds):
        at = int(r.integers(0, len(steps)))
        hold = r.normal(0.0, r.uniform(0.05, 0.6),
                        (int(r.integers(1, 15)), 2))
        steps = np.concatenate((steps[:at], hold, steps[at:]))
    xy = 100.0 + np.cumsum(steps, axis=0)
    n = len(xy)
    t = np.cumsum(r.uniform(0.5, 1.5, n)) / rate
    pen = np.ones(n, dtype=np.int8)
    for _ in range(n_lifts):
        at = int(r.integers(0, n))
        pen[at:at + int(r.integers(1, 10))] = 0
    return make_recording(xy[:, 0], xy[:, 1], t=t, pen=pen, rate=rate)


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_of(stroke):
    pts = list(zip(stroke.x, stroke.y))
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)
            if pts[i] != pts[i + 1]]


def _crosses(s1, s2):
    """Oracle: proper crossing, or collinear with positive overlap."""
    p1, p2 = s1
    q1, q2 = s2
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if d1 == d2 == d3 == d4 == 0:
        if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]):
            axis = 0
        else:
            axis = 1
        lo1, hi1 = sorted((p1[axis], p2[axis]))
        lo2, hi2 = sorted((q1[axis], q2[axis]))
        return min(hi1, hi2) - max(lo1, lo2) > 0
    return d1 * d2 < 0 and d3 * d4 < 0


def oracle_intersections(strokes, mode):
    segs = [_segments_of(s) for s in strokes]
    count = 0
    if mode == "intra":
        for seg in segs:
            # skip-adjacent pairs, with adjacency on original positions
            pos = []
            k = 0
            for s in seg:
                pos.append(k)
                k += 1
            # recompute original positions including degenerate segments
        for stroke in strokes:
            pts = list(zip(stroke.x, stroke.y))
            keep = [(i, (pts[i], pts[i + 1])) for i in range(len(pts) - 1)
                    if pts[i] != pts[i + 1]]
            for a in range(len(keep)):
                for b in range(a + 1, len(keep)):
                    if keep[b][0] - keep[a][0] >= 2 and \
                            _crosses(keep[a][1], keep[b][1]):
                        count += 1
    else:
        for a in range(len(segs)):
            for b in range(a + 1, len(segs)):
                for s1 in segs[a]:
                    for s2 in segs[b]:
                        if _crosses(s1, s2):
                            count += 1
    return count


class TestIntersections:
    def test_plus_sign_crosses_once(self):
        rec = make_recording([0, 10, 5, 5], [5, 5, 0, 10],
                             pen=[1, 1, 1, 1])
        # one stroke, segments 0 and 2 cross; segment 1 is the bridge
        count, rel = count_intersections(
            on_surface_strokes(segment_strokes(rec)), "intra")
        assert count == 1 and rel == 1.0

    def test_adjacent_segments_sharing_endpoint_not_counted(self):
        rec = make_recording([0, 5, 10], [0, 5, 0])
        count, _ = count_intersections(
            on_surface_strokes(segment_strokes(rec)), "intra")
        assert count == 0

    def test_tangency_excluded(self):
        # second stroke touches the first at one point without crossing
        rec = make_recording([0, 10, 5, 10], [0, 0, 0, 5],
                             pen=[1, 1, 0, 0])
        strokes = segment_strokes(rec)
        count, _ = count_intersections([strokes[0], strokes[1]], "inter")
        assert count == 0

    def test_collinear_overlap_counted_once(self):
        rec = make_recording([0, 10, 5, 15], [0, 0, 0, 0], pen=[1, 1, 0, 0])
        strokes = segment_strokes(rec)
        count, _ = count_intersections([strokes[0], strokes[1]], "inter")
        assert count == 1

    def test_two_crossing_strokes(self):
        rec = make_recording([0, 10, 5, 5], [5, 5, 0, 10], pen=[1, 1, 0, 0])
        strokes = segment_strokes(rec)
        count, rel = count_intersections(strokes, "inter")
        assert count == 1 and rel == 0.5

    def test_rel_nan_without_strokes(self):
        count, rel = count_intersections([], "inter")
        assert count == 0 and math.isnan(rel)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            count_intersections([], "sideways")

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4),
           st.integers(2, 25))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_oracle(self, seed, n_strokes, pts_per):
        r = np.random.default_rng(seed)
        pen = np.concatenate([
            np.full(pts_per, i % 2, dtype=np.int8)
            for i in range(2 * n_strokes)])
        n = len(pen)
        # small integer grid makes collinear/tangent cases common
        rec = make_recording(r.integers(0, 12, n).astype(float),
                             r.integers(0, 12, n).astype(float), pen=pen)
        strokes = on_surface_strokes(segment_strokes(rec))
        for mode in ("intra", "inter"):
            got, _ = count_intersections(strokes, mode)
            assert got == oracle_intersections(strokes, mode), mode


# Slow reference: shannon_entropy as it stood before its histogram counts
# were taken without np.histogram's wrapper, kept verbatim.
def reference_shannon_entropy(series, bins: int = 16) -> float:
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("empty series")
    lo, hi = float(series.min()), float(series.max())
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(series, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / series.size
    return float(-(p * np.log2(p)).sum())


def entropy_outcome(entropy, series, bins):
    try:
        return np.float64(entropy(series, bins=bins)).tobytes()
    except ValueError as exc:
        return type(exc)


ENTROPY_VALUES = st.one_of(
    st.floats(-1e3, 1e3), st.integers(-3, 3).map(float), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]))


class TestEntropy:
    @given(series=st.lists(ENTROPY_VALUES, min_size=1, max_size=120),
           bins=st.sampled_from([2, 3, 7, 16, 32]))
    # the bins' width underflows to 0: numpy rejects that range
    @example(series=[0.0, 5e-324], bins=16)
    # the width overflows: np.histogram rejects it as well
    @example(series=[-1e308, 1e308], bins=16)
    @example(series=[1.0, math.inf], bins=16)
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_reference_bit_for_bit(self, series, bins):
        assert entropy_outcome(shannon_entropy, series, bins) == \
            entropy_outcome(reference_shannon_entropy, series, bins)

    def test_constant_series_zero(self):
        assert shannon_entropy([3.0, 3.0, 3.0]) == 0.0

    def test_uniform_two_level(self):
        assert shannon_entropy([0.0] * 8 + [1.0] * 8, bins=2) == \
            pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            shannon_entropy([])

    @given(series=st.lists(st.floats(-100, 100), min_size=2, max_size=200),
           bins=st.integers(2, 32))
    # within rounding of the edge 0.0: (v - lo) / width rounds up to bin 1
    @example(series=[0.0, 1.0, -1.0, -1.2081715068811922e-150], bins=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_counter_oracle(self, series, bins):
        lo, hi = min(series), max(series)
        if lo == hi:
            assert shannon_entropy(series, bins=bins) == 0.0
            return
        # numpy's documented rule: bin i is [edges[i], edges[i + 1]), the
        # last bin also holds hi
        edges = np.linspace(lo, hi, bins + 1)
        counts = Counter(
            next(i for i in range(bins) if v < edges[i + 1] or i == bins - 1)
            for v in series)
        n = len(series)
        expect = -sum((c / n) * math.log2(c / n) for c in counts.values())
        assert shannon_entropy(series, bins=bins) == pytest.approx(expect)


class TestVelocityChanges:
    def test_single_peak(self):
        count, rel = velocity_profile_changes([1, 2, 3, 2, 1], duration=2.0)
        assert count == 1 and rel == 0.5

    def test_plateau_collapses(self):
        count, _ = velocity_profile_changes([1, 2, 2, 3], duration=1.0)
        assert count == 0

    def test_alternating(self):
        count, _ = velocity_profile_changes([1, 2, 1, 2, 1], duration=1.0)
        assert count == 3

    def test_too_short_is_missing(self):
        count, rel = velocity_profile_changes([1, 2], duration=1.0)
        assert math.isnan(count) and math.isnan(rel)

    def test_monotone_has_no_extrema(self):
        count, _ = velocity_profile_changes([1, 2, 3, 4], duration=1.0)
        assert count == 0


class TestStrokeSummary:
    def test_interruptions_and_tempo(self):
        pen = [1, 1, 0, 1, 0, 0, 1, 1]
        rec = make_recording(np.arange(8), np.zeros(8), pen=pen)
        s = stroke_summary(rec)
        assert s["interruptions"] == 2
        assert s["tempo"] == pytest.approx(3 / rec.duration)

    def test_trailing_lift_counts(self):
        pen = [1, 1, 0]
        rec = make_recording(np.arange(3), np.zeros(3), pen=pen)
        assert stroke_summary(rec)["interruptions"] == 1
