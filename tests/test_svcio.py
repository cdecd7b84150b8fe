"""SVC parsing/serialization and cohort manifest handling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphokit import svcio
from graphokit.errors import (FieldCountMismatch, FileMissing,
                              GraphokitError, MalformedHeader, ManifestError,
                              NonNumericField, ParseError,
                              PenStatusOutOfRange, SampleCountMismatch)
from graphokit.ink import InkRecording, Task
from graphokit.svcio import (HC, LBD, SVC_FIELDS, CohortManifest,
                             ManifestEntry, load_cohort, load_manifest,
                             parse_svc, save_manifest, serialize_svc)

from builders import make_recording

GOOD = "2\n100 200 1000 1 1800 600 512\n101 201 1008 0 1810 590 0\n"


# Slow reference: parse_svc as it stood before the bulk conversion, one
# float() per field, kept verbatim so the fast path can be held to the same
# values and the same first-bad-line errors, plus the pen-status rule.
def reference_parse_svc(data, task=Task.OTHER, subject_id=""):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.replace("\r\n", "\n").strip("\n").split("\n")
    if not lines or not lines[0].strip():
        raise MalformedHeader("missing header line")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise MalformedHeader(f"header is not an integer: {lines[0]!r}")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise SampleCountMismatch(f"header says {n} samples, found {len(body)}")

    width = len(SVC_FIELDS)
    rows = [ln.split() for ln in body]
    if any(len(fields) != width for fields in rows):
        reference_raise_first_bad_line(rows, width)
    try:
        values = np.array(list(map(float, itertools.chain.from_iterable(
            rows)))).reshape(n, width)
    except ValueError:
        reference_raise_first_bad_line(rows, width)
    for i, status in enumerate(values[:, 3].tolist()):
        if status not in (0.0, 1.0):
            raise PenStatusOutOfRange(i + 2)
    cols = dict(zip(SVC_FIELDS, values.T))

    return InkRecording(
        x=cols["x"], y=cols["y"], t=cols["t"] / 1000.0,
        pen_status=cols["pen_status"].astype(np.int8),
        pressure=cols["pressure"],
        tilt=cols["tilt"] / 10.0,
        azimuth=cols["azimuth"] / 10.0,
        task=task, subject_id=subject_id)


def reference_raise_first_bad_line(rows, width):
    for i, fields in enumerate(rows):
        if len(fields) != width:
            raise FieldCountMismatch(i + 2)
        for raw in fields:
            try:
                float(raw)
            except ValueError:
                raise NonNumericField(i + 2, f"line {i + 2}: bad field {raw!r}")


def parse_outcome(parse, text):
    """Every channel's bytes, or the error class and its line number."""
    try:
        rec = parse(text)
    except GraphokitError as exc:
        return type(exc), getattr(exc, "line_no", None)
    return tuple(getattr(rec, chan).tobytes() for chan in (
        "x", "y", "t", "pen_status", "azimuth", "tilt", "pressure"))


def reference_serialize_svc(rec):
    """The per-sample formatter that serialize_svc vectorizes."""
    def fmt(v):
        v = float(v)
        return str(int(v)) if v.is_integer() else repr(v)

    out = [str(len(rec))]
    for i in range(len(rec)):
        out.append(" ".join((
            fmt(rec.x[i]), fmt(rec.y[i]),
            fmt(round(rec.t[i] * 1000.0, 9)), str(int(rec.pen_status[i])),
            fmt(round(rec.azimuth[i] * 10.0, 9)),
            fmt(round(rec.tilt[i] * 10.0, 9)), fmt(rec.pressure[i]))))
    return "\n".join(out) + "\n"


class TestParse:
    def test_basic(self):
        rec = parse_svc(GOOD, task=Task.SPIRAL, subject_id="s1")
        assert len(rec) == 2
        assert rec.x.tolist() == [100.0, 101.0]
        assert rec.t.tolist() == [1.0, 1.008]          # ms -> s
        assert rec.azimuth.tolist() == [180.0, 181.0]  # tenths -> degrees
        assert rec.tilt.tolist() == [60.0, 59.0]
        assert rec.pressure.tolist() == [512.0, 0.0]
        assert rec.pen_status.tolist() == [1, 0]
        assert rec.task is Task.SPIRAL
        assert rec.subject_id == "s1"

    def test_bytes_and_crlf(self):
        rec = parse_svc(GOOD.replace("\n", "\r\n").encode())
        assert len(rec) == 2

    def test_missing_header(self):
        with pytest.raises(MalformedHeader):
            parse_svc("")

    def test_non_integer_header(self):
        with pytest.raises(MalformedHeader):
            parse_svc("two\n1 2 3 1 4 5 6\n")

    def test_count_mismatch(self):
        with pytest.raises(SampleCountMismatch):
            parse_svc("3\n1 2 3 1 4 5 6\n")

    def test_field_count(self):
        with pytest.raises(FieldCountMismatch) as exc:
            parse_svc("1\n1 2 3 1 4 5\n")
        assert exc.value.line_no == 2

    def test_non_numeric(self):
        with pytest.raises(NonNumericField) as exc:
            parse_svc("2\n1 2 3 1 4 5 6\n1 2 oops 1 4 5 6\n")
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("body,error,line_no", [
        ("1 2 x 1 4 5 6\n1 2 3 1 4 5\n", NonNumericField, 2),
        ("1 2 3 1 4 5\n1 2 x 1 4 5 6\n", FieldCountMismatch, 2),
        ("1 2 3 1 4 5 6\n1 2 3 1 4 5 6 7\n", FieldCountMismatch, 3),
        ("1 2 x 1 4 5\n1 2 3 1 4 5 6\n", FieldCountMismatch, 2),
        ("1 2 3 1 4 5 6\n1 2 3 2 4 5 6\n", PenStatusOutOfRange, 3),
        # a bad pen status loses to any later field error
        ("1 2 3 2 4 5 6\n1 2 3 1 4 5\n", FieldCountMismatch, 3),
        ("1 2 3 2 4 5 6\n1 2 x 1 4 5 6\n", NonNumericField, 3)])
    def test_first_bad_line_reported(self, body, error, line_no):
        with pytest.raises(error) as exc:
            parse_svc("2\n" + body)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("status", ["256", "0.7", "nan", "-255", "1.9"])
    def test_pen_status_not_0_or_1_rejected(self, status):
        # both conversion paths: "1_0" sends the body to the per-line one
        for x in ("1", "1_0"):
            with pytest.raises(PenStatusOutOfRange) as exc:
                parse_svc(f"2\n{x} 2 3 1 4 5 6\n{x} 2 3 {status} 4 5 6\n")
            assert exc.value.line_no == 3

    def test_pen_status_equal_to_0_or_1_accepted(self):
        rec = parse_svc("2\n1 2 3 1.0 4 5 6\n1 2 4 -0 4 5 6\n")
        assert rec.pen_status.tolist() == [1, 0]


# tokens that float() reads but the bulk conversion rejects (underscores,
# non-ASCII digits), that nobody reads (#, hex, a bare sign), and edge values
ODD_TOKENS = ["1_0", "\u0661", "\u0663.\u0665", "#", "0x1", "-", "x", "nan",
              "-nan", "inf", "-Infinity", "-0", "+.5", "5.", "1e500",
              "4.9e-324", "1e-400"]
NUMBERS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
# separators str.split() splits on, "\r" among them (only "\r\n" is a
# line break to parse_svc)
SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\f", "\x0b", "\x1c",
                              "\xa0", "\u3000", "\r"])
BLANK_LINES = st.sampled_from(["", "  ", "\t", "\f", "\r", "\x0b"])
# pen statuses equal to 0 or 1, so that most bodies get past the status rule
PEN_TOKENS = st.sampled_from(["0", "1", "1.0", "-0", "+1", "0e9", "\u0661"])


@st.composite
def fuzzed_svc(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.sampled_from([7, 7, 7, 6, 8]))
        clean = draw(st.booleans())
        tokens = draw(st.lists(
            NUMBERS if clean else st.one_of(NUMBERS,
                                            st.sampled_from(ODD_TOKENS)),
            min_size=width, max_size=width))
        if draw(st.integers(0, 3)):
            tokens[3] = draw(PEN_TOKENS)
        seps = draw(st.lists(SEPARATORS, min_size=width + 1,
                             max_size=width + 1))
        lead, *inner, trail = seps
        if draw(st.booleans()):
            lead = trail = ""
        lines.append(lead + "".join(
            tok + sep for tok, sep in zip(tokens, inner + [""])) + trail)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(BLANK_LINES))
    n = sum(1 for ln in lines if ln.strip()) + draw(st.sampled_from(
        [0, 0, 0, 0, 1]))
    return "\n".join([str(n)] + lines) + draw(st.sampled_from(
        ["\n", "", "\r\n", "\n\n"]))


class TestBulkParse:
    @pytest.mark.parametrize("text", [
        "0\n", "0", "1\n1 2 3 1 4 5 6\n",
        "1\n1_0 2 3 1 4 5 6\n",                      # underscore digits
        "1\n\u0661 2 3 1 4 5 6\n",                   # Arabic-Indic digit
        "2\n1 2 3 1 4 5 6\n# 2 3 1 4 5 6\n",         # no comments
        "1\n1 2 3 1 4 5 6 # 8\n",
        "1\n1 2 3\r1 4 5 6\n",                       # \r inside a line
        "1\n1 2 3 1 4 5 6\r\n",
        "2\n1 2 3 1 4 5 6\n   \n\t\n7 8 9 0 1 2 3\n",  # blank lines
        "1\n1\f2\x0b3 1 4 5 6\n",                    # form feed, vtab
        "2\n1 2 3 1 4 5 6\n1 2 3 1 4 5 6 7\n",       # field count
        "2\n1 2 x 1 4 5 6\n1 2 3 1 4 5\n",           # first bad line
        "1\nnan inf -inf 1 -0 1e500 4.9e-324\n",
        "1\n1 2 3 nan 4 5 6\n",                      # pen status rule
        "1\n1_0 2 3 nan 4 5 6\n",
        "2\n1 2 3 1 4 5 6\n1 2 3 0.7 4 5 6\n"])
    # loadtxt warns on empty input, so parse_svc must not call it there; and
    # no NaN pen status may reach the int8 cast
    @pytest.mark.filterwarnings("error")
    def test_pinned_bodies_match_reference(self, text):
        assert parse_outcome(parse_svc, text) == \
            parse_outcome(reference_parse_svc, text)

    @given(fuzzed_svc())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_bodies_match_reference(self, text):
        assert parse_outcome(parse_svc, text) == \
            parse_outcome(reference_parse_svc, text)

    @given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_recordings_match_reference(self, n, seed):
        r = np.random.default_rng(seed)
        rec = make_recording(
            2000 * r.random(n), 2000 * r.random(n),
            t=np.sort(r.random(n)) + np.arange(n) * 1e-3,
            pen=r.integers(0, 2, n), pressure=1024 * r.random(n),
            tilt=90 * r.random(n), azimuth=360 * r.random(n) % 360)
        text = serialize_svc(rec)
        assert parse_outcome(parse_svc, text) == \
            parse_outcome(reference_parse_svc, text)

    def test_clean_body_takes_the_bulk_path(self, monkeypatch):
        def per_line(body, n):
            raise AssertionError("per-line path taken")

        monkeypatch.setattr(svcio, "_per_line_values", per_line)
        assert parse_outcome(parse_svc, GOOD) == \
            parse_outcome(reference_parse_svc, GOOD)
        body = GOOD.split("\n")[1:3]
        np.testing.assert_array_equal(
            svcio._bulk_values(body, 2),
            [[100, 200, 1000, 1, 1800, 600, 512],
             [101, 201, 1008, 0, 1810, 590, 0]])
        assert svcio._bulk_values(["1_0 2 3 1 4 5 6"], 1) is None
        assert svcio._bulk_values(["1 2 3 1 4 5"], 1) is None


class TestRoundTrip:
    def test_exact_round_trip(self):
        rec = parse_svc(GOOD)
        assert parse_svc(serialize_svc(rec)) == rec

    def test_text_round_trip_reproduces_tokens(self):
        # device values with <= 9 decimals come back token-for-token
        text = "2\n1.5 2.25 1008 1 1810 593 512\n3 4 1016.125 0 0 0 0\n"
        out = serialize_svc(parse_svc(text))
        orig = [ln.split() for ln in text.strip().split("\n")[1:]]
        back = [ln.split() for ln in out.strip().split("\n")[1:]]
        for a, b in zip(orig, back):
            assert [float(v) for v in a] == [float(v) for v in b]

    @given(st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_serialize_matches_per_sample_formatter(self, n, seed):
        r = np.random.default_rng(seed)

        def channel(scale):
            # integers, short decimals that the unit scaling blurs (0.1 ms,
            # 0.01 degree steps) and full-precision floats, mixed
            kind = r.integers(0, 3, n)
            return np.where(kind == 0, np.round(scale * r.random(n)),
                            np.where(kind == 1,
                                     np.round(scale * r.random(n), 2),
                                     scale * r.random(n)))

        rec = make_recording(
            channel(2000.0), channel(2000.0),
            t=np.sort(np.round(r.random(n) * 10.0, 4)),
            pen=r.integers(0, 2, n), pressure=channel(1024.0),
            tilt=channel(90.0), azimuth=channel(360.0) % 360.0)
        assert serialize_svc(rec) == reference_serialize_svc(rec)

    def test_serialize_keeps_numpy_rounding(self):
        # Python's round and np.round disagree in the 9th decimal on a few
        # in ten thousand full-precision values; the file keeps np.round
        r = np.random.default_rng(3)
        n = 20000
        rec = make_recording(np.round(2000 * r.random(n)),
                             np.round(2000 * r.random(n)),
                             t=np.cumsum(0.005 + 0.01 * r.random(n)),
                             tilt=90 * r.random(n), azimuth=360 * r.random(n))
        ms = (rec.t * 1000.0).tolist()
        assert any(round(v, 9) != np.round(v, 9) for v in ms)
        assert serialize_svc(rec) == reference_serialize_svc(rec)

    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_recordings_round_trip(self, n, seed):
        r = np.random.default_rng(seed)
        rec = make_recording(
            1000 * r.random(n), 1000 * r.random(n),
            t=np.sort(r.random(n)) + np.arange(n) * 1e-3,
            pen=r.integers(0, 2, n),
            pressure=1000 * r.random(n), tilt=90 * r.random(n),
            azimuth=360 * r.random(n) % 360)
        again = parse_svc(serialize_svc(rec))
        # unscaled channels are bit-exact; unit-converted ones are snapped
        # to 9 device decimals, so they round-trip to within 5e-11
        for chan in ("x", "y", "pressure"):
            np.testing.assert_array_equal(getattr(again, chan),
                                          getattr(rec, chan), err_msg=chan)
        for chan in ("t", "tilt", "azimuth"):
            np.testing.assert_allclose(getattr(again, chan),
                                       getattr(rec, chan), rtol=0,
                                       atol=1e-9, err_msg=chan)
        np.testing.assert_array_equal(again.pen_status, rec.pen_status)


class TestManifest:
    def _manifest(self, tmp_path, entries):
        m = CohortManifest(entries=tuple(entries), root=tmp_path)
        save_manifest(m, tmp_path / "manifest.json")
        return load_manifest(tmp_path / "manifest.json")

    def test_save_load(self, tmp_path):
        entries = [ManifestEntry("a", HC, {"spiral": "a.svc"}),
                   ManifestEntry("b", LBD, {"spiral": "b.svc"})]
        m = self._manifest(tmp_path, entries)
        assert [e.subject_id for e in m.entries] == ["a", "b"]
        assert [e.label for e in m.entries] == [HC, LBD]
        assert m.root == tmp_path

    def test_missing_file_raises(self):
        with pytest.raises(FileMissing):
            load_manifest("/nonexistent/manifest.json")

    def test_duplicate_subjects_rejected(self):
        with pytest.raises(ManifestError):
            CohortManifest(entries=(
                ManifestEntry("a", HC, {"spiral": "x"}),
                ManifestEntry("a", LBD, {"spiral": "y"})))

    def test_bad_label_rejected(self):
        with pytest.raises(ManifestError):
            CohortManifest(entries=(ManifestEntry("a", 7, {"s": "x"}),))

    def test_entry_without_files_rejected(self):
        with pytest.raises(ManifestError):
            CohortManifest(entries=(ManifestEntry("a", HC, {}),))


class TestLoadCohort:
    def _write(self, tmp_path, name, text=GOOD):
        (tmp_path / name).write_text(text)
        return name

    def test_loads_per_task(self, tmp_path):
        self._write(tmp_path, "a.svc")
        self._write(tmp_path, "b.svc")
        m = CohortManifest(entries=(
            ManifestEntry("a", HC, {"spiral": "a.svc"}),
            ManifestEntry("b", LBD, {"spiral": "b.svc"})), root=tmp_path)
        per_task, problems = load_cohort(m)
        assert problems == []
        assert [sid for sid, _, _ in per_task["spiral"]] == ["a", "b"]
        assert [lab for _, lab, _ in per_task["spiral"]] == [HC, LBD]
        assert per_task["spiral"][0][2].task is Task.SPIRAL

    def test_missing_file_lenient_skips_with_warning(self, tmp_path):
        self._write(tmp_path, "a.svc")
        m = CohortManifest(entries=(
            ManifestEntry("a", HC, {"spiral": "a.svc"}),
            ManifestEntry("b", LBD, {"spiral": "gone.svc"})), root=tmp_path)
        with pytest.warns(UserWarning):
            per_task, problems = load_cohort(m)
        assert len(per_task["spiral"]) == 1
        assert len(problems) == 1 and "gone.svc" in problems[0]

    def test_missing_file_strict_raises(self, tmp_path):
        m = CohortManifest(entries=(
            ManifestEntry("a", HC, {"spiral": "gone.svc"}),), root=tmp_path)
        with pytest.raises(FileMissing):
            load_cohort(m, strict=True)

    def test_malformed_file_lenient_becomes_a_problem(self, tmp_path):
        self._write(tmp_path, "a.svc")
        self._write(tmp_path, "bad.svc", "2\n1 2 3 1 4 5 6\n")
        m = CohortManifest(entries=(
            ManifestEntry("a", HC, {"spiral": "a.svc"}),
            ManifestEntry("b", LBD, {"spiral": "bad.svc"})), root=tmp_path)
        with pytest.warns(UserWarning):
            per_task, problems = load_cohort(m)
        assert [sid for sid, _, _ in per_task["spiral"]] == ["a"]
        assert len(problems) == 1
        assert problems[0].startswith("b/spiral: parse failed (")

    def test_bad_pen_status_lenient_becomes_a_problem(self, tmp_path):
        self._write(tmp_path, "bad.svc", "1\n1 2 3 256 4 5 6\n")
        m = CohortManifest(entries=(
            ManifestEntry("b", LBD, {"spiral": "bad.svc"}),), root=tmp_path)
        with pytest.warns(UserWarning, match="skipped"):
            per_task, problems = load_cohort(m)
        assert per_task == {}
        assert problems == ["b/spiral: parse failed (line 2: pen status "
                            "256.0 is not 0 or 1)"]

    def test_program_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        self._write(tmp_path, "a.svc")
        monkeypatch.setattr(svcio, "parse_svc", broken)
        m = CohortManifest(entries=(
            ManifestEntry("a", HC, {"spiral": "a.svc"}),), root=tmp_path)
        with pytest.raises(RuntimeError, match="bug"):
            load_cohort(m)

    def test_malformed_file_strict_raises(self, tmp_path):
        self._write(tmp_path, "bad.svc", "not an svc\n")
        m = CohortManifest(entries=(
            ManifestEntry("a", HC, {"spiral": "bad.svc"}),), root=tmp_path)
        with pytest.raises(ParseError):
            load_cohort(m, strict=True)
