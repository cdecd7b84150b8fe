"""Each output check accepts a good output of the program and rejects a
corrupted copy of it."""

import contextlib
import csv
import io
import shutil

import numpy as np
import pytest

import checks
from checks import CheckFailed
from graphokit import cli
from graphokit.pipeline import (ConfusionMatrix, auc_from_roc, metrics,
                                roc_points)


def run_cli(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main([str(a) for a in args], standalone_mode=False)


@pytest.fixture(scope="module")
def ingest_out(tmp_path_factory):
    """synth 8+8 STRONG, extract, and analyze of the sentence table."""
    out = tmp_path_factory.mktemp("ingest")
    run_cli("synth", "--out", out / "cohort", "--hc", 8, "--lbd", 8,
            "--delta", "strong", "--seed", 5)
    run_cli("extract", "--manifest", out / "cohort" / "manifest.json",
            "--out", out / "features")
    run_cli("analyze", "--features",
            out / "features" / "features_sentence.csv",
            "--out", out / "screen.csv")
    return out


@pytest.fixture
def work(ingest_out, tmp_path):
    """A scratch copy of the good ingest output, free to corrupt."""
    dst = tmp_path / "out"
    shutil.copytree(ingest_out, dst)
    return dst


def svc_path(out):
    return out / "cohort" / "hc000_sentence.svc"


def edit_svc(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


def set_field(line, j, value):
    fields = line.split()
    fields[j] = value
    return " ".join(fields)


def sentence_checks(out):
    facts = checks.cohort_facts(out / "cohort" / "manifest.json")
    table = checks.read_table(out / "features" / "features_sentence.csv")
    checks.check_table_facts(table, "sentence", facts)
    checks.check_screen(table, checks.read_screen(out / "screen.csv"))


def test_good_ingest_output_passes(ingest_out):
    sentence_checks(ingest_out)


@pytest.mark.parametrize("corrupt", [
    lambda ls: [ls[0]] + [set_field(ls[1], 3, "2")] + ls[2:],  # pen status 2
    lambda ls: [ls[0], ls[2], ls[1]] + ls[3:],                 # time reversed
    lambda ls: [str(int(ls[0]) + 1)] + ls[1:],                 # header count
    lambda ls: [ls[0]] + [ls[1] + " 7"] + ls[2:],              # 8 fields
    lambda ls: [ls[0]] + [set_field(ls[1], 0, "x1")] + ls[2:],  # non-numeric
])
def test_svc_reader_rejects_corrupt_file(work, corrupt):
    edit_svc(svc_path(work), corrupt)
    with pytest.raises(CheckFailed):
        checks.cohort_facts(work / "cohort" / "manifest.json")


def test_flipped_pen_status_changes_interruptions(work):
    # an on-surface sample inside a stroke lifted to 0 adds one pen lift
    def lift(lines):
        pens = [ln.split()[3] for ln in lines[1:]]
        i = next(k for k in range(1, len(pens) - 1)
                 if pens[k - 1] == pens[k] == pens[k + 1] == "1")
        lines[i + 1] = set_field(lines[i + 1], 3, "0")
        return lines
    edit_svc(svc_path(work), lift)
    with pytest.raises(CheckFailed, match="interruptions"):
        sentence_checks(work)


def rewrite_csv(path, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_perturbed_duration_is_rejected(work):
    path = work / "features" / "features_sentence.csv"

    def bump(rows):
        j = rows[0].index("sentence.temporal.duration")
        rows[1][j] = repr(float(rows[1][j]) * (1 + 1e-9))
    rewrite_csv(path, bump)
    with pytest.raises(CheckFailed, match="duration"):
        sentence_checks(work)


@pytest.mark.parametrize("column, change, message", [
    ("p_u", lambda v: f"{float(v) * 1.001:.6g}", "scipy"),
    ("q", lambda v: "0", "outside"),
])
def test_perturbed_screen_is_rejected(work, column, change, message):
    def perturb(rows):
        j = rows[0].index(column)
        i = 1 + next(k for k, r in enumerate(rows[1:])
                     if 0 < float(r[rows[0].index("p_u")]) < 1)
        rows[i][j] = change(rows[i][j])
    rewrite_csv(work / "screen.csv", perturb)
    with pytest.raises(CheckFailed, match=message):
        sentence_checks(work)


def test_bh_order_violation_is_rejected(work):
    def raise_first_q(rows):
        rows[1][rows[0].index("q")] = "1"  # the smallest p gets q = 1
    rewrite_csv(work / "screen.csv", raise_first_q)
    with pytest.raises(CheckFailed, match="decreases"):
        sentence_checks(work)


def test_top5_needs_an_injected_feature():
    good = [{"feature": f"sentence.other.{n}"}
            for n in ("tempo", "pen_stops", "a", "b", "c", "d")]
    checks.check_top5(good, ("pen_stops",))
    with pytest.raises(CheckFailed):
        checks.check_top5(good[:1] + good[2:], ("pen_stops",))


def report_row(tp, fn, tn, fp, p=0.01, auc=0.9):
    """A report.csv row printed as ``train`` prints it, parsed back."""
    m = metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
    row = {k: float(f"{m[k]:.4f}") for k in m}
    row.update(threshold=0.5, p=float(f"{p:.6g}"), AUC=auc)
    return row


@pytest.mark.parametrize("counts", [(13, 2, 14, 1), (15, 0, 15, 0),
                                    (0, 15, 15, 0), (7, 8, 4, 11)])
def test_good_report_rows_pass(counts):
    checks.check_report_row(report_row(*counts), 15, 15, 99)


@pytest.mark.parametrize("key, value", [
    ("BACC", 0.95), ("MCC", 0.8001), ("PRE", 0.9), ("F1", 0.9),
    ("SEN", 0.8), ("p", 0.015), ("p", 0.0), ("p", 1.01)])
def test_corrupt_report_row_is_rejected(key, value):
    row = report_row(13, 2, 14, 1)
    row[key] = value
    with pytest.raises(CheckFailed):
        checks.check_report_row(row, 15, 15, 99)


def good_roc(seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], 15)
    probs = np.round(rng.random(30) * 0.6 + 0.3 * labels, 2)  # with ties
    pts = roc_points(labels, probs)
    roc = np.array([[float(f"{v:.10g}") for v in p] for p in pts])
    return roc, float(f"{auc_from_roc(pts):.4f}")


def test_good_roc_passes():
    for seed in range(5):
        checks.check_roc(*good_roc(seed))


def test_roc_point_out_of_order_is_rejected():
    roc, auc = good_roc()
    roc[[3, 4]] = roc[[4, 3]]
    with pytest.raises(CheckFailed, match="ascend"):
        checks.check_roc(roc, auc)


def test_non_monotone_roc_is_rejected():
    roc, auc = good_roc()
    roc[3, 2] = roc[4, 2] + 0.2  # tpr rises as the threshold rises
    with pytest.raises(CheckFailed):
        checks.check_roc(roc, auc)


def test_roc_area_mismatch_is_rejected():
    roc, auc = good_roc()
    with pytest.raises(CheckFailed, match="area"):
        checks.check_roc(roc, auc + 0.001)


def test_auc_identity():
    rng = np.random.default_rng(1)
    labels = np.repeat([0, 1], 30)
    probs = np.round(rng.random(60), 1)  # many ties
    auc = auc_from_roc(roc_points(labels, probs))
    checks.check_auc_identity(labels, probs, auc)
    with pytest.raises(CheckFailed):
        checks.check_auc_identity(labels, probs, auc + 1e-9)


def test_null_share_follows_ac7():
    checks.check_null_share([0.5] * 18 + [0.8, 0.1], [0.5] * 20)
    checks.check_null_share([0.5, 0.4], [0.3, 0.9])
    with pytest.raises(CheckFailed, match="AUC"):
        checks.check_null_share([0.5, 0.2], [0.3, 0.9])
    with pytest.raises(CheckFailed, match="p > 0.05"):
        checks.check_null_share([0.5, 0.4], [0.3, 0.04])
