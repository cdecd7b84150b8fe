"""Feature tables (CSV round trip, task combination) and the whole-recording
extraction naming contract."""

import numpy as np
import pytest

from graphokit.errors import EmptyIntersection, GraphokitError
from graphokit.features import extract_features
from graphokit.synth import ImpairmentProfile, gen_pentagons, gen_spiral
from graphokit.table import FeatureTable, combine_tasks


def small_table(prefix="a", sids=("s1", "s2", "s3"), labels=(0, 0, 1)):
    rows = [(sid, lab, {f"{prefix}.f1": float(i), f"{prefix}.f2": -float(i)})
            for i, (sid, lab) in enumerate(zip(sids, labels))]
    return FeatureTable.from_rows(rows)


class TestFeatureTable:
    def test_from_rows_union_of_keys(self):
        table = FeatureTable.from_rows([
            ("s1", 0, {"a": 1.0, "b": 2.0}),
            ("s2", 1, {"b": 3.0, "c": 4.0})])
        assert table.feature_names == ("a", "b", "c")
        assert np.isnan(table.values[0, 2]) and np.isnan(table.values[1, 0])
        assert table.values[1, 1] == 3.0
        assert table.n_subjects == 2 and table.n_features == 3

    def test_invariants(self):
        with pytest.raises(GraphokitError):
            FeatureTable(("a",), ("s1", "s2"), np.array([0, 1]),
                         np.zeros((1, 1)))
        with pytest.raises(GraphokitError):
            FeatureTable(("a", "a"), ("s1",), np.array([0]), np.zeros((1, 2)))

    def test_csv_round_trip(self, tmp_path):
        table = FeatureTable.from_rows([
            ("s1", 0, {"a": 1.25, "b": float("nan")}),
            ("s2", 1, {"a": -3.0, "b": 0.1})])
        path = tmp_path / "t.csv"
        table.to_csv(path)
        back = FeatureTable.from_csv(path)
        assert back.feature_names == table.feature_names
        assert back.subject_ids == table.subject_ids
        np.testing.assert_array_equal(back.labels, table.labels)
        np.testing.assert_array_equal(np.isnan(back.values),
                                      np.isnan(table.values))
        mask = ~np.isnan(table.values)
        np.testing.assert_array_equal(back.values[mask], table.values[mask])

    def test_from_csv_requires_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,cls,a\ns1,0,1.0\n")
        with pytest.raises(GraphokitError):
            FeatureTable.from_csv(path)


class TestCombineTasks:
    def test_intersection_in_first_table_order(self):
        a = small_table("a", sids=("s1", "s2", "s3"), labels=(0, 0, 1))
        b = small_table("b", sids=("s3", "s1"), labels=(1, 0))
        combined = combine_tasks({"a": a, "b": b})
        assert combined.subject_ids == ("s1", "s3")
        assert combined.feature_names == ("a.f1", "a.f2", "b.f1", "b.f2")
        assert combined.labels.tolist() == [0, 1]
        # b's rows are re-aligned to the shared subject order
        assert combined.values[0, 2] == b.values[1, 0]

    def test_conflicting_labels_rejected(self):
        a = small_table("a", labels=(0, 0, 1))
        b = small_table("b", labels=(1, 0, 1))
        with pytest.raises(GraphokitError):
            combine_tasks({"a": a, "b": b})

    def test_empty_cases(self):
        with pytest.raises(EmptyIntersection):
            combine_tasks({})
        a = small_table("a", sids=("s1", "s2", "s3"))
        b = small_table("b", sids=("x1", "x2", "x3"))
        with pytest.raises(EmptyIntersection):
            combine_tasks({"a": a, "b": b})


class TestExtraction:
    def test_naming_contract(self):
        feats = extract_features(gen_spiral(), task="spiral")
        families = {name.split(".")[1] for name in feats}
        assert families == {"temporal", "kinematic", "dynamic", "spatial",
                            "specific", "other"}
        assert all(name.startswith("spiral.") for name in feats)
        for name in ("spiral.specific.tightness", "spiral.other.pen_stops",
                     "spiral.kinematic.velocity_vert_onsurf_median",
                     "spiral.spatial.width_onsurf",
                     "spiral.temporal.duration"):
            assert name in feats

    def test_specific_family_only_for_spiral(self):
        feats = extract_features(gen_pentagons(), task="pentagons")
        assert not any(".specific." in name for name in feats)

    def test_task_defaults_to_recording_tag(self):
        feats = extract_features(gen_pentagons())
        assert all(name.startswith("pentagons.") for name in feats)

    def test_rectangular_across_subjects(self):
        # a no-lift spiral has no in-air strokes: in-air features are NaN,
        # but the key set must match a recording that has them
        plain = extract_features(gen_spiral(), task="spiral")
        lifted = extract_features(
            gen_spiral(profile=ImpairmentProfile(extra_lift_count=2, seed=1)),
            task="spiral")
        assert set(plain) == set(lifted)
        assert np.isnan(plain["spiral.kinematic.velocity_glob_inair_median"])
        assert np.isfinite(
            lifted["spiral.kinematic.velocity_glob_inair_median"])

    def test_values_finite_or_nan(self):
        feats = extract_features(gen_scribble_like())
        assert all(isinstance(v, (int, float)) for v in feats.values())


def gen_scribble_like():
    from graphokit.synth import gen_scribble
    return gen_scribble(profile=ImpairmentProfile(radial_noise_sigma=1.0,
                                                  seed=2))
