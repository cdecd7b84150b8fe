"""Data model, validation and stroke segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphokit.errors import (ChannelOutOfRange, EmptyRecording,
                              NonMonotoneTime)
from graphokit.ink import (InkRecording, Task, in_air_strokes,
                           on_surface_strokes, segment_strokes,
                           validate_recording)

from builders import make_recording


class TestRecording:
    def test_immutability(self):
        rec = make_recording([1, 2], [3, 4])
        with pytest.raises(AttributeError):
            rec.x = np.zeros(2)
        with pytest.raises(ValueError):
            rec.x[0] = 99.0

    def test_channel_length_mismatch(self):
        with pytest.raises(ValueError):
            make_recording([1, 2, 3], [4, 5])

    def test_duration(self):
        rec = make_recording([0, 1, 2], [0, 0, 0], t=[0.0, 0.5, 1.25])
        assert rec.duration == 1.25
        assert len(rec) == 3

    def test_default_channels_are_zero(self):
        rec = make_recording([1, 2], [3, 4])
        assert rec.pressure.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [256.0, 0.7, 1.9, 256, np.nan])
    def test_pen_status_the_int8_cast_would_change_rejected(self, bad):
        with pytest.raises(ChannelOutOfRange):
            InkRecording([0, 1, 2], [0, 0, 0], [0.0, 0.1, 0.2], [1, bad, 0])

    def test_integer_pen_status_left_to_validation(self):
        rec = InkRecording([0, 1, 2], [0, 0, 0], [0.0, 0.1, 0.2], [2, 0, 1])
        assert rec.pen_status.tolist() == [2, 0, 1]
        with pytest.warns(UserWarning):
            assert validate_recording(rec).pen_status.tolist() == [1, 0, 1]
        with pytest.raises(ChannelOutOfRange):
            validate_recording(rec, strict=True)


class TestValidation:
    def test_empty_recording_rejected(self):
        rec = make_recording([], [])
        with pytest.raises(EmptyRecording):
            validate_recording(rec)

    def test_metadata_preserved(self):
        rec = make_recording([1, 2, 3], [4, 5, 6], t=[0.0, 0.1, 0.1],
                             pen=[1, 1, 0], task=Task.SPIRAL,
                             subject_id="s1", meta={"k": 1})
        clean = validate_recording(rec)
        assert len(clean) == 2
        assert clean.x.tolist() == [1.0, 3.0]
        assert clean.pen_status.tolist() == [1, 0]
        assert clean.task is Task.SPIRAL
        assert clean.subject_id == "s1"
        assert clean.meta == {"k": 1}

    def test_duplicate_timestamps_keep_last(self):
        rec = make_recording([1, 2, 3], [0, 0, 0], t=[0.0, 0.1, 0.1])
        clean = validate_recording(rec)
        assert clean.t.tolist() == [0.0, 0.1]
        assert clean.x.tolist() == [1.0, 3.0]

    def test_non_monotone_lenient_sorts_stably(self):
        rec = make_recording([1, 2, 3], [0, 0, 0], t=[0.2, 0.0, 0.1])
        with pytest.warns(UserWarning):
            clean = validate_recording(rec)
        assert clean.t.tolist() == [0.0, 0.1, 0.2]
        assert clean.x.tolist() == [2.0, 3.0, 1.0]

    def test_non_monotone_strict_raises(self):
        rec = make_recording([1, 2], [0, 0], t=[0.2, 0.1])
        with pytest.raises(NonMonotoneTime):
            validate_recording(rec, strict=True)

    def test_out_of_range_clamped_lenient(self):
        rec = make_recording([1, 2], [0, 0], pressure=[-5.0, 10.0],
                             tilt=[95.0, 45.0], azimuth=[370.0, 10.0])
        with pytest.warns(UserWarning):
            clean = validate_recording(rec)
        assert clean.pressure.tolist() == [0.0, 10.0]
        assert clean.tilt.tolist() == [90.0, 45.0]
        assert clean.azimuth.tolist() == [10.0, 10.0]

    def test_out_of_range_strict_raises(self):
        rec = make_recording([1, 2], [0, 0], tilt=[95.0, 45.0])
        with pytest.raises(ChannelOutOfRange):
            validate_recording(rec, strict=True)

    def test_clean_input_unchanged(self):
        rec = make_recording([1, 2, 3], [4, 5, 6], pressure=[1, 2, 3],
                             tilt=[10, 20, 30], azimuth=[0, 90, 359])
        assert validate_recording(rec, strict=True) == rec

    @given(t=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_output_times_always_strictly_increasing(self, t):
        rec = make_recording(np.arange(len(t)), np.zeros(len(t)), t=t)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clean = validate_recording(rec)
        assert np.all(np.diff(clean.t) > 0)


class TestSegmentation:
    def test_empty(self):
        assert segment_strokes(make_recording([], [])) == []

    def test_single_stroke(self):
        rec = make_recording([1, 2, 3], [0, 0, 0])
        strokes = segment_strokes(rec)
        assert len(strokes) == 1
        assert strokes[0].on_surface is True
        assert strokes[0].n == 3

    def test_alternating_runs(self):
        pen = [1, 1, 0, 0, 0, 1, 0, 1, 1]
        rec = make_recording(np.arange(9), np.zeros(9), pen=pen)
        strokes = segment_strokes(rec)
        assert [s.n for s in strokes] == [2, 3, 1, 1, 2]
        assert [s.on_surface for s in strokes] == [True, False, True,
                                                   False, True]
        # strokes partition the recording in order
        assert strokes[0].start == 0
        for a, b in zip(strokes, strokes[1:]):
            assert a.stop == b.start
        assert strokes[-1].stop == len(rec)

    def test_surface_filters(self):
        pen = [1, 0, 1, 0]
        rec = make_recording(np.arange(4), np.zeros(4), pen=pen)
        strokes = segment_strokes(rec)
        assert len(on_surface_strokes(strokes)) == 2
        assert len(in_air_strokes(strokes)) == 2

    def test_stroke_views_match_recording(self):
        rec = make_recording([1, 2, 3, 4], [5, 6, 7, 8], pen=[0, 1, 1, 0])
        s = on_surface_strokes(segment_strokes(rec))[0]
        assert s.x.tolist() == [2.0, 3.0]
        assert s.y.tolist() == [6.0, 7.0]
        assert s.t.tolist() == rec.t[1:3].tolist()
        assert s.duration == pytest.approx(1.0 / 130.0)

    @given(pen=st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_runs_are_maximal_and_cover(self, pen):
        rec = make_recording(np.arange(len(pen)), np.zeros(len(pen)), pen=pen)
        strokes = segment_strokes(rec)
        covered = sum(s.n for s in strokes)
        assert covered == len(pen)
        for a, b in zip(strokes, strokes[1:]):
            assert a.on_surface != b.on_surface  # maximality
