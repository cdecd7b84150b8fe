"""The benchmark's three workloads, each as three stages (synth, extract and
a final stage) that the worker repeats and times in its own process.

- ``desk``: the north star's desk case, ``synth --hc 15 --lbd 15 --delta
  strong --seed 42``, ``extract`` and ``train --profile desk``, trimmed to
  the ``combined`` task so that one run stays repeatable. Training does
  nearly all the work.
- ``null``: AC7's null-calibration loop on its first two cohorts (30+30,
  ``--delta none``, seeds 1000 and 1001) with AC7's fixed parameters: a 5x1
  CV score, LOOCV and a 99-permutation test per cohort.
- ``ingest``: synth, extract and analyze on a 60+60 STRONG cohort whose seed
  is the benchmark's ``--seed``; no fitting at all.

``desk`` and ``null`` keep their inputs whatever ``--seed`` says: desk's
training time depends on which hyperparameters win the search, and null's
checks are statistical (a calibrated test gives p <= 0.05 on one null
cohort in twenty), so other cohorts would make the time or the verdict
depend on the seed rather than on the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import click

import checks
from graphokit import cli as gcli
from graphokit import gbt, pipeline
from graphokit.errors import GraphokitError
from graphokit.table import FeatureTable

TASKS = ("spiral", "sentence", "pentagons")
PERMUTATIONS_DESK = 99  # the desk profile's permutation count


def run_cli(*args) -> None:
    """One graphokit command through its own click command function."""
    with contextlib.redirect_stdout(io.StringIO()):
        gcli.main.main([str(a) for a in args], prog_name="graphokit",
                       standalone_mode=False)


def tree_digest(root: Path, extra: str = "", patterns=("**/*",)) -> str:
    """SHA-256 over the output files under ``root`` that match ``patterns``,
    by relative path, except ``run.json``, which records the output paths."""
    h = hashlib.sha256(extra.encode())
    paths = {p for pattern in patterns for p in root.glob(pattern)}
    for path in sorted(p for p in paths if p.is_file()):
        if path.name == "run.json":
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


STAGES = ("synth", "extract", "final_stage")


class Workload:
    """Three stages on one output directory. A run repeats each stage, in
    order, on the previous stage's outputs; every stage method returns the
    (attempted, failed) operations it adds."""
    name = ""
    fit_calls = 0  # gbt.fit calls one final stage implies
    # the files each stage writes, as glob patterns under the output dir
    outputs = {"synth": ("cohort/*",), "extract": ("features/*",),
               "final_stage": ("run/*",)}

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.results: dict = {}  # in-memory outputs of the last final stage

    def summary(self) -> str:
        """In-memory outputs that the digest covers besides the files."""
        return ""

    def check(self) -> None:
        raise NotImplementedError


class Desk(Workload):
    """Operation: one task evaluated by ``train``."""
    name = "desk"
    tasks = ("combined",)
    # per task: 50 search draws x 10 folds, 10 CV-probability fits, 30
    # LOOCV fits, 99 permutations x 10 folds
    fit_calls = len(tasks) * (50 * 10 + 10 + 30 + 99 * 10)

    def synth(self):
        run_cli("synth", "--out", self.out / "cohort", "--hc", 15, "--lbd",
                15, "--delta", "strong", "--seed", 42)
        return 0, 0

    def extract(self):
        run_cli("extract", "--manifest", self.out / "cohort" / "manifest.json",
                "--out", self.out / "features")
        return 0, 0

    def final_stage(self):
        try:
            run_cli("train", "--manifest",
                    self.out / "cohort" / "manifest.json", "--out",
                    self.out / "run", "--profile", "desk", "--tasks",
                    ",".join(self.tasks), "--seed", 0)
        except (GraphokitError, click.ClickException):
            return len(self.tasks), len(self.tasks)
        return len(self.tasks), 0

    def check(self):
        labels = [lab for _, lab, _ in checks.read_manifest(
            self.out / "cohort" / "manifest.json")]
        n_pos, n_neg = sum(labels), len(labels) - sum(labels)
        report = checks.read_report(self.out / "run" / "report.csv")
        checks.require(sorted(report) == sorted(self.tasks),
                       f"report tasks {sorted(report)}")
        for task, row in report.items():
            checks.check_report_row(row, n_pos, n_neg, PERMUTATIONS_DESK)
            checks.check_roc(checks.read_roc(self.out / "run" /
                                             f"roc_{task}.csv"), row["AUC"])
        # AC8's bounds on the combined task
        row = report["combined"]
        checks.require(row["BACC"] >= 0.85 and row["p"] <= 0.01,
                       f"combined BACC {row['BACC']} p {row['p']} miss "
                       f"BACC >= 0.85, p <= 0.01")


AC7_PARAMS = dict(n_estimators=30, max_depth=2, colsample_bytree=0.3,
                  min_child_weight=3.0, seed=0)
AC7_PERMUTATIONS = 99


def ac7_protocol(features_csv, s: int) -> dict:
    """AC7's per-cohort protocol through the library functions AC7 calls,
    looked up on their modules so that a traced run sees them."""
    params = gbt.HyperParams(**AC7_PARAMS)
    table = FeatureTable.from_csv(features_csv)
    splits = pipeline.stratified_kfold(table.labels, k=5, repeats=1, seed=s)
    observed = pipeline.cv_scores(table.values, table.labels, params, splits)
    rep = pipeline.loocv_evaluate(table, params, threshold=0.5,
                                  task="combined")
    p = pipeline.permutation_test(table, observed, params,
                                  m=AC7_PERMUTATIONS, seed=s, k=5, repeats=1)
    return {"observed": observed, "auc": rep.auc, "p": p,
            "labels": table.labels, "probs": rep.probs}


class Null(Workload):
    """Operation: one null cohort evaluated by AC7's protocol."""
    name = "null"
    cohorts = (0, 1)  # AC7's s; the cohort seed is 1000 + s
    # per cohort: 5 CV fits, 60 LOOCV fits, 99 permutations x 5 folds
    fit_calls = len(cohorts) * (5 + 60 + 99 * 5)
    outputs = {"synth": ("cohort*/*",), "extract": ("features*/*",),
               "final_stage": ()}

    def synth(self):
        for s in self.cohorts:
            run_cli("synth", "--out", self.out / f"cohort{s}", "--hc", 30,
                    "--lbd", 30, "--delta", "none", "--seed", 1000 + s)
        return 0, 0

    def extract(self):
        for s in self.cohorts:
            run_cli("extract", "--manifest",
                    self.out / f"cohort{s}" / "manifest.json",
                    "--out", self.out / f"features{s}")
        return 0, 0

    def final_stage(self):
        self.results = {}
        for s in self.cohorts:
            try:
                self.results[s] = ac7_protocol(
                    self.out / f"features{s}" / "features_combined.csv", s)
            except GraphokitError:
                pass
        return len(self.cohorts), len(self.cohorts) - len(self.results)

    def summary(self):
        return "\n".join(f"{s} {r['observed']!r} {r['auc']!r} {r['p']!r} "
                         f"{r['probs'].tolist()!r}"
                         for s, r in self.results.items())

    def check(self):
        for res in self.results.values():
            checks.check_auc_identity(res["labels"], res["probs"], res["auc"])
            checks.check_p_value(res["p"], AC7_PERMUTATIONS)
        checks.check_null_share([r["auc"] for r in self.results.values()],
                                [r["p"] for r in self.results.values()])


class Ingest(Workload):
    """Operation: one recording ingested into a feature table."""
    name = "ingest"
    per_group = 60
    injected = ("pen_stops", "velocity_vert", "width")
    outputs = {"synth": ("cohort/*",), "extract": ("features/*",),
               "final_stage": ("screen_*.csv",)}

    def synth(self):
        run_cli("synth", "--out", self.out / "cohort", "--hc", self.per_group,
                "--lbd", self.per_group, "--delta", "strong", "--seed",
                self.seed)
        return 0, 0

    def extract(self):
        feats = self.out / "features"
        run_cli("extract", "--manifest", self.out / "cohort" / "manifest.json",
                "--out", feats)
        attempted = 2 * self.per_group * len(TASKS)
        ingested = sum(len(checks.read_table(feats / f"features_{t}.csv")[1])
                       for t in TASKS)
        return attempted, attempted - ingested

    def final_stage(self):
        for task in (*TASKS, "combined"):
            run_cli("analyze", "--features",
                    self.out / "features" / f"features_{task}.csv",
                    "--out", self.out / f"screen_{task}.csv")
        return 0, 0

    def check(self):
        facts = checks.cohort_facts(self.out / "cohort" / "manifest.json")
        for task in (*TASKS, "combined"):
            table = checks.read_table(self.out / "features" /
                                      f"features_{task}.csv")
            for t in (TASKS if task == "combined" else (task,)):
                checks.check_table_facts(table, t, facts)
            screen = checks.read_screen(self.out / f"screen_{task}.csv")
            checks.check_screen(table, screen)
            if task == "sentence":
                checks.check_top5(screen, self.injected)


WORKLOADS = {w.name: w for w in (Desk, Null, Ingest)}
