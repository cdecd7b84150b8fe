"""End-to-end command-line workflow on a tiny synthetic cohort."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import graphokit
from graphokit import __version__, cli, pipeline
from graphokit.cli import (ALL_TASKS, PROFILES, RunConfig, main,
                           run_json_payload, run_training)
from graphokit.gbt import PAPER_GRIDS
from graphokit.pipeline import METRIC_NAMES
from graphokit.table import FeatureTable


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort")
    result = CliRunner().invoke(main, [
        "synth", "--out", str(path), "--hc", "5", "--lbd", "5",
        "--delta", "strong", "--seed", "13"])
    assert result.exit_code == 0, result.output
    return path


@pytest.fixture(scope="module")
def features_dir(cohort_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("features")
    result = CliRunner().invoke(main, [
        "extract", "--manifest", str(cohort_dir / "manifest.json"),
        "--out", str(path)])
    assert result.exit_code == 0, result.output
    return path


class TestSynth:
    def test_writes_manifest_and_files(self, cohort_dir):
        manifest = json.loads((cohort_dir / "manifest.json").read_text())
        assert len(manifest["subjects"]) == 10
        svc = list(cohort_dir.glob("*.svc"))
        assert len(svc) == 30  # 3 tasks x 10 subjects

    def test_reruns_are_byte_identical(self, cohort_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "synth", "--out", str(tmp_path), "--hc", "5", "--lbd", "5",
            "--delta", "strong", "--seed", "13"])
        assert result.exit_code == 0
        for f in sorted(cohort_dir.glob("*.svc")):
            assert (tmp_path / f.name).read_text() == f.read_text()


class TestExtract:
    def test_writes_per_task_and_combined(self, features_dir):
        names = {p.name for p in features_dir.glob("*.csv")}
        assert names == {"features_spiral.csv", "features_sentence.csv",
                         "features_pentagons.csv", "features_combined.csv"}

    def test_tables_load_back(self, features_dir):
        spiral = FeatureTable.from_csv(features_dir / "features_spiral.csv")
        assert spiral.n_subjects == 10
        assert spiral.n_features > 100
        combined = FeatureTable.from_csv(
            features_dir / "features_combined.csv")
        assert combined.n_features > spiral.n_features

    def test_missing_manifest_fails_cleanly(self, tmp_path):
        result = CliRunner().invoke(main, [
            "extract", "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path)])
        assert result.exit_code != 0


class TestAnalyze:
    def test_screening_csv(self, features_dir, tmp_path):
        out = tmp_path / "screen.csv"
        result = CliRunner().invoke(main, [
            "analyze", "--features",
            str(features_dir / "features_spiral.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"feature", "p_u", "rho", "p_rho", "q"}
        ps = [float(r["p_u"]) for r in rows]
        assert ps == sorted(ps)


class TestTrain:
    def test_tiny_run_produces_artifacts(self, cohort_dir, tmp_path):
        out = tmp_path / "run"
        result = CliRunner().invoke(main, [
            "train", "--manifest", str(cohort_dir / "manifest.json"),
            "--out", str(out), "--tasks", "spiral", "--profile", "desk",
            "--iterations", "2", "--permutations", "9", "--cv-repeats", "1",
            "--n-estimators", "5", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert (out / "run.json").exists()
        assert (out / "roc_spiral.csv").exists()
        assert (out / "roc_spiral.svg").exists()
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["task"] for r in rows] == ["spiral"]
        assert 0.0 <= float(rows[0]["BACC"]) <= 1.0
        payload = json.loads((out / "run.json").read_text())
        assert payload["protocol"]["search_iterations"] == 2

    def test_untuned_threshold_is_a_warning(self, cohort_dir, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(pipeline, "cv_probabilities",
                            lambda X, y, params, splits: np.full(len(y), 0.5))
        out = tmp_path / "run"
        result = CliRunner().invoke(main, [
            "train", "--manifest", str(cohort_dir / "manifest.json"),
            "--out", str(out), "--tasks", "spiral", "--iterations", "1",
            "--permutations", "1", "--cv-repeats", "1", "--n-estimators",
            "2"])
        assert result.exit_code == 0, result.output
        assert "1 warnings -> warnings.txt" in result.output
        assert (out / "warnings.txt").read_text() == (
            "spiral: all cross-validated probabilities equal, threshold not "
            "tuned (0.5 used)\n")
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["task", *METRIC_NAMES, "threshold", "p",
                                 "AUC"]
        assert rows[0]["threshold"] == "0.5000"

    def test_evaluate_alias(self, cohort_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "evaluate", "--manifest", str(cohort_dir / "manifest.json"),
            "--out", str(tmp_path / "run"), "--tasks", "spiral",
            "--iterations", "1", "--permutations", "1", "--cv-repeats", "1",
            "--n-estimators", "2"])
        assert result.exit_code == 0, result.output

    def test_invalid_protocol_rejected(self, cohort_dir, tmp_path):
        result = CliRunner().invoke(main, [
            "train", "--manifest", str(cohort_dir / "manifest.json"),
            "--out", str(tmp_path), "--iterations", "0"])
        assert result.exit_code != 0

    def test_skipped_files_written_as_extract_writes_them(self, cohort_dir,
                                                          tmp_path):
        doc = json.loads((cohort_dir / "manifest.json").read_text())
        for subject in doc["subjects"]:
            subject["files"] = {task: str(cohort_dir / rel)
                                for task, rel in subject["files"].items()}
        doc["subjects"].append({"subject_id": "ghost", "label": "HC",
                                "files": {"spiral": "ghost.svc"}})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        runner = CliRunner()
        with pytest.warns(UserWarning, match="skipped"):
            result = runner.invoke(main, [
                "extract", "--manifest", str(manifest), "--out",
                str(tmp_path / "features"), "--tasks", "spiral"])
        assert result.exit_code == 0, result.output
        with pytest.warns(UserWarning, match="skipped"):
            result = runner.invoke(main, [
                "train", "--manifest", str(manifest), "--out",
                str(tmp_path / "run"), "--tasks", "spiral", "--iterations",
                "1", "--permutations", "1", "--cv-repeats", "1",
                "--n-estimators", "2"])
        assert result.exit_code == 0, result.output
        assert "1 warnings -> warnings.txt" in result.output
        warned = (tmp_path / "run" / "warnings.txt").read_text()
        assert warned.startswith("ghost/spiral: missing file ")
        assert warned == (tmp_path / "features" / "warnings.txt").read_text()

    def test_trains_on_the_tables_extract_writes(self, cohort_dir,
                                                 features_dir, tmp_path,
                                                 monkeypatch):
        seen = {}

        def fake_evaluate(table, task, **kwargs):
            seen[task] = table
            return SimpleNamespace(
                roc=[(0.5, 1.0, 1.0), (1.5, 0.0, 0.0)], auc=0.5,
                metrics=dict.fromkeys(METRIC_NAMES, 0.5), threshold=0.5,
                threshold_tuned=True, permutation_p=1.0)

        monkeypatch.setattr(cli, "evaluate_task", fake_evaluate)
        run_training(RunConfig(manifest=str(cohort_dir / "manifest.json"),
                               out=str(tmp_path)))
        assert sorted(seen) == sorted((*ALL_TASKS, "combined"))
        for task, table in seen.items():
            written = FeatureTable.from_csv(features_dir /
                                            f"features_{task}.csv")
            assert table.feature_names == written.feature_names
            assert table.subject_ids == written.subject_ids
            np.testing.assert_array_equal(table.labels, written.labels)
            # NaN where the CSV has NaN, every other value bit for bit
            np.testing.assert_array_equal(table.values, written.values)


class TestRunPayload:
    def test_paper_profile_records_grids(self):
        payload = run_json_payload(RunConfig(profile="paper"))
        assert payload["version"] == __version__
        proto = payload["protocol"]
        assert proto["search_iterations"] == 1000
        assert proto["permutations"] == 1000
        assert proto["cv_repetitions"] == 10
        assert proto["cv_folds"] == 5
        assert proto["n_estimators"] == 100
        grids = payload["hyperparameter_grids"]
        assert grids == {k: list(v) for k, v in PAPER_GRIDS.items()}

    def test_overrides_take_precedence(self):
        payload = run_json_payload(RunConfig(profile="paper", iterations=7))
        assert payload["protocol"]["search_iterations"] == 7

    def test_desk_profile(self):
        assert PROFILES["desk"]["permutations"] == 99
        payload = run_json_payload(RunConfig(profile="desk"))
        assert payload["protocol"]["permutations"] == 99


# Run in a fresh interpreter, since this one has imported scipy already.
STARTUP_PROBE = """
import json, sys
import graphokit.cli
at_start = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import numpy as np
from graphokit.features.spiral import unwrap_polar
from graphokit.ink import InkRecording
theta = np.linspace(0.0, 6 * np.pi, 1300)
n = len(theta)
unwrap_polar(InkRecording(500.0 + 5.0 * theta * np.cos(theta),
                          500.0 + 5.0 * theta * np.sin(theta),
                          np.arange(n) / 130.0, np.ones(n, dtype=np.int8)))
print(json.dumps([at_start, "scipy.optimize" in sys.modules]))
"""


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # every command pays the import of graphokit.cli; scipy loads only
        # where a command calls it, here when a spiral is unwrapped
        src = str(Path(graphokit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        at_start, optimize_loaded = json.loads(out.stdout)
        assert at_start == []
        assert optimize_loaded
