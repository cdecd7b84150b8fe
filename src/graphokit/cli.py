"""Command-line surface: synth, extract, analyze, train/evaluate."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import GraphokitError, InvalidParams
from .features import extract_features
from .gbt import PAPER_GRIDS
from .pipeline import evaluate_task
from .stats import analyze_features
from .svcio import load_cohort, load_manifest
from .synth import STRONG_DELTA, ImpairmentDelta, gen_cohort
from .table import FeatureTable, combine_tasks
from .ink import validate_recording

ALL_TASKS = ("spiral", "sentence", "pentagons")
CV_FOLDS = 5

PROFILES = {
    "paper": {"iterations": 1000, "permutations": 1000, "cv_repeats": 10,
              "n_estimators": 100},
    "desk": {"iterations": 50, "permutations": 99, "cv_repeats": 2,
             "n_estimators": 30},
}


@dataclass
class RunConfig:
    manifest: str = ""
    out: str = "out"
    tasks: tuple = ("spiral", "sentence", "pentagons", "combined")
    profile: str = "desk"
    iterations: int | None = None
    permutations: int | None = None
    cv_repeats: int | None = None
    n_estimators: int | None = None
    seed: int = 0
    strict: bool = False
    threshold_objective: str = "youden"

    def resolved(self) -> dict:
        base = dict(PROFILES[self.profile])
        for key in ("iterations", "permutations", "cv_repeats",
                    "n_estimators"):
            if getattr(self, key) is not None:
                base[key] = getattr(self, key)
        if base["iterations"] < 1 or base["permutations"] < 1:
            raise InvalidParams("iterations and permutations must be >= 1")
        return base


def run_json_payload(config: RunConfig) -> dict:
    """Reproducibility record: full config, protocol constants and grids."""
    r = config.resolved()
    return {
        "version": __version__,
        "config": asdict(config),
        "protocol": {
            "search_iterations": r["iterations"],
            "cv_folds": CV_FOLDS,
            "cv_repetitions": r["cv_repeats"],
            "permutations": r["permutations"],
            "n_estimators": r["n_estimators"],
            "threshold_objective": config.threshold_objective,
            "seed": config.seed,
        },
        "hyperparameter_grids": {k: list(v) for k, v in PAPER_GRIDS.items()},
    }


def _seed_default() -> int:
    return int(os.environ.get("GRAPHOKIT_SEED", "0"))


def _load_tables(manifest_path, tasks, strict):
    manifest = load_manifest(manifest_path)
    per_task, problems = load_cohort(manifest, strict=strict)
    tables = {}
    for task in tasks:
        rows = []
        for sid, label, rec in per_task.get(task, []):
            rec = validate_recording(rec, strict=strict)
            feats = extract_features(rec, task=task)
            rows.append((sid, label, feats))
        if rows:
            tables[task] = FeatureTable.from_rows(rows)
    return tables, problems


def _write_warnings(out: Path, problems, echo) -> None:
    """Record the skipped subject-task files, and the tasks whose threshold
    could not be tuned, in ``<out>/warnings.txt``."""
    if problems:
        (out / "warnings.txt").write_text("\n".join(problems) + "\n")
        echo(f"{len(problems)} warnings -> warnings.txt")


@click.group()
@click.version_option(__version__)
def main():
    """Handwriting/graphomotor analysis toolkit."""


@main.command()
@click.option("--out", required=True, type=click.Path())
@click.option("--hc", default=10, show_default=True)
@click.option("--lbd", default=10, show_default=True)
@click.option("--delta", type=click.Choice(["none", "strong"]),
              default="none", show_default=True)
@click.option("--seed", type=int, default=_seed_default)
def synth(out, hc, lbd, delta, seed):
    """Generate a synthetic cohort (svc files + manifest.json)."""
    d = STRONG_DELTA if delta == "strong" else ImpairmentDelta()
    manifest = gen_cohort(hc, lbd, delta=d, seed=seed, out_dir=out)
    click.echo(f"wrote {len(manifest.entries)} subjects to {out}")


@main.command()
@click.option("--manifest", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--tasks", default=",".join(ALL_TASKS), show_default=True)
@click.option("--strict", is_flag=True)
def extract(manifest, out, tasks, strict):
    """Extract per-task feature CSVs plus the combined table."""
    task_list = [t for t in tasks.split(",") if t]
    out = Path(out)
    try:
        tables, problems = _load_tables(manifest, task_list, strict)
    except GraphokitError as exc:
        raise click.ClickException(str(exc))
    if not tables:
        raise click.ClickException("no recordings could be extracted")
    out.mkdir(parents=True, exist_ok=True)
    for task, table in tables.items():
        table.to_csv(out / f"features_{task}.csv")
        click.echo(f"features_{task}.csv: {table.n_subjects} subjects, "
                   f"{table.n_features} features")
    if len(tables) > 1:
        combined = combine_tasks(tables)
        combined.to_csv(out / "features_combined.csv")
        click.echo(f"features_combined.csv: {combined.n_subjects} subjects, "
                   f"{combined.n_features} features")
    _write_warnings(out, problems, click.echo)


@main.command()
@click.option("--features", "features_csv", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
def analyze(features_csv, out):
    """Per-feature screening: Mann-Whitney U, Spearman rho, BH q-values."""
    table = FeatureTable.from_csv(features_csv)
    rows = analyze_features(table)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["feature", "p_u", "rho", "p_rho", "q"])
        for r in rows:
            w.writerow([r["feature"], f"{r['p_u']:.6g}", f"{r['rho']:.6g}",
                        f"{r['p_rho']:.6g}", f"{r['q']:.6g}"])
    click.echo(f"{len(rows)} features -> {out}")


def run_training(config: RunConfig, echo=lambda s: None) -> dict:
    """Execute the full protocol; returns report rows keyed by task."""
    r = config.resolved()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.json").write_text(
        json.dumps(run_json_payload(config), indent=2, sort_keys=True) + "\n")

    base_tasks = [t for t in config.tasks if t != "combined"]
    tables, problems = _load_tables(config.manifest,
                                    base_tasks or list(ALL_TASKS),
                                    config.strict)
    if "combined" in config.tasks and len(tables) > 1:
        tables["combined"] = combine_tasks(tables)
    tables = {t: tables[t] for t in config.tasks if t in tables}

    grids = dict(PAPER_GRIDS)
    grids["n_estimators"] = (r["n_estimators"],)
    results = {}
    for task, table in tables.items():
        echo(f"[{task}] search x{r['iterations']}, "
             f"CV {CV_FOLDS}x{r['cv_repeats']}, "
             f"perm x{r['permutations']}")
        report = evaluate_task(
            table, task=task, grids=grids, iterations=r["iterations"],
            permutations=r["permutations"], k=CV_FOLDS,
            repeats=r["cv_repeats"], seed=config.seed,
            objective=config.threshold_objective)
        results[task] = report
        if not report.threshold_tuned:
            problems.append(f"{task}: all cross-validated probabilities "
                            f"equal, threshold not tuned (0.5 used)")
        with open(out / f"roc_{task}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["threshold", "fpr", "tpr"])
            for thr, fpr, tpr in report.roc:
                w.writerow([f"{thr:.10g}", f"{fpr:.10g}", f"{tpr:.10g}"])
        _write_roc_svg(out / f"roc_{task}.svg", report.roc)
        echo(f"[{task}] BACC={report.metrics['BACC']:.4f} "
             f"AUC={report.auc:.4f} p={report.permutation_p:.4g}")
    _write_warnings(out, problems, echo)

    with open(out / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["task", "MCC", "BACC", "SEN", "SPE", "PRE", "F1",
                    "threshold", "p", "AUC"])
        for task, rep in results.items():
            m = rep.metrics
            w.writerow([task] + [f"{m[k]:.4f}" for k in
                                 ("MCC", "BACC", "SEN", "SPE", "PRE", "F1")]
                       + [f"{rep.threshold:.4f}", f"{rep.permutation_p:.6g}",
                          f"{rep.auc:.4f}"])
    return results


def _write_roc_svg(path, points, size=320):
    pad = 24
    scale = size - 2 * pad
    pts = sorted(((p[1], p[2]) for p in points))
    poly = " ".join(f"{pad + fpr * scale:.1f},{pad + (1 - tpr) * scale:.1f}"
                    for fpr, tpr in pts)
    Path(path).write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}"><rect width="{size}" height="{size}" fill="white"/>'
        f'<line x1="{pad}" y1="{size - pad}" x2="{size - pad}" y2="{pad}" '
        f'stroke="#bbb" stroke-dasharray="4"/>'
        f'<polyline points="{poly}" fill="none" stroke="#1f6feb" '
        f'stroke-width="2"/></svg>\n')


@main.command()
@click.option("--manifest", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path())
@click.option("--tasks", default="spiral,sentence,pentagons,combined",
              show_default=True)
@click.option("--profile", type=click.Choice(sorted(PROFILES)),
              default="desk", show_default=True)
@click.option("--iterations", type=int, default=None)
@click.option("--permutations", type=int, default=None)
@click.option("--cv-repeats", type=int, default=None)
@click.option("--n-estimators", type=int, default=None)
@click.option("--seed", type=int, default=_seed_default)
@click.option("--strict", is_flag=True)
@click.option("--threshold-objective", type=click.Choice(["youden", "f1"]),
              default="youden", show_default=True)
def train(manifest, out, tasks, profile, iterations, permutations, cv_repeats,
          n_estimators, seed, strict, threshold_objective):
    """Search, tune, LOOCV-evaluate and permutation-test each task model."""
    config = RunConfig(manifest=manifest, out=out,
                       tasks=tuple(t for t in tasks.split(",") if t),
                       profile=profile, iterations=iterations,
                       permutations=permutations, cv_repeats=cv_repeats,
                       n_estimators=n_estimators, seed=seed, strict=strict,
                       threshold_objective=threshold_objective)
    try:
        config.resolved()
    except GraphokitError as exc:
        raise click.ClickException(str(exc))
    run_training(config, echo=click.echo)


main.add_command(train, name="evaluate")


if __name__ == "__main__":
    main()
