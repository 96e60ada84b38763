"""Checks that one operation's outputs are correct.

Invariants hold for any seed: counts add up in metrics.csv, every
detection is a well-formed box inside the mosaic in score order, the grid
search covers all 24 cells and names a best cell of maximum F1, and the
crossmatch classes partition the scored detections. For the default seed at
full size, detections_global.csv, metrics.csv, gridsearch.csv and
crossmatch.csv are also compared with SHA-256 digests pinned in digests.json
from the code before any optimisation; summary.txt and manifest.json are not
pinned, because they may gain funnels and timings.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import DELTA_SET, M_SET, Inputs

DETECTION_HEADER = ["x1_m", "y1_m", "x2_m", "y2_m", "score", "patch_id", "px1", "py1", "px2", "py2"]
CROSSMATCH_CLASSES = ("known", "confirmed_new", "unverified")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_digests(workload: str) -> dict[str, str]:
    return json.loads(Path(__file__).with_name("digests.json").read_text())[workload]


def check_outputs(workload: str, inputs: Inputs, pinned: dict[str, str] | None) -> tuple[list[str], float | None]:
    """Return (problems found, F1 reported). No problems means correct."""
    out = inputs.out_dir
    problems: list[str] = []
    f1 = None
    try:
        if workload == "gridsearch_sweep":
            f1 = _check_grid(out, inputs.n_truth, problems)
        else:
            dets = _check_detections(out / "detections_global.csv", inputs.extent_m, problems)
            metrics = _check_metrics(out / "metrics.csv", inputs.n_truth, len(dets), problems)
            f1 = metrics["f1"]
            if workload == "external_crossmatch":
                _check_crossmatch(out / "crossmatch.csv", dets, metrics["tp"], problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    for name, digest in (pinned or {}).items():
        path = out / name
        if not path.is_file() or sha256(path) != digest:
            problems.append(f"{name}: differs from the pinned digest")
    return problems, f1


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _check_scores(where: str, tp: int, fp: int, fn: int, p: float, r: float, f1: float, problems: list[str]) -> None:
    want_p = tp / (tp + fp) if tp + fp else 0.0
    want_r = tp / (tp + fn) if tp + fn else 0.0
    want_f1 = 2.0 * want_p * want_r / (want_p + want_r) if want_p + want_r else 0.0
    for name, got, want in (("precision", p, want_p), ("recall", r, want_r), ("f1", f1, want_f1)):
        if abs(got - want) > 1e-12:
            problems.append(f"{where}: {name} {got!r} does not follow from the counts ({want!r})")


def _check_metrics(path: Path, n_truth: int, n_rows: int, problems: list[str]) -> dict:
    header, values = _rows(path)
    rec = dict(zip(header, values))
    tp, fp, fn, fn_raw, n_det, n_tr = (
        int(rec[k]) for k in ("tp", "fp", "fn", "fn_raw", "n_detections", "n_truth")
    )
    if tp + fp != n_det:
        problems.append(f"metrics.csv: tp + fp = {tp + fp}, n_detections = {n_det}")
    if fn_raw != n_tr - tp:
        problems.append(f"metrics.csv: fn_raw = {fn_raw}, n_truth - tp = {n_tr - tp}")
    if fn != max(0, fn_raw):
        problems.append(f"metrics.csv: fn = {fn}, max(0, fn_raw) = {max(0, fn_raw)}")
    if n_tr != n_truth:
        problems.append(f"metrics.csv: n_truth = {n_tr}, the truth catalog holds {n_truth}")
    if n_det != n_rows:
        problems.append(f"metrics.csv: n_detections = {n_det}, detections_global.csv holds {n_rows}")
    f1 = float(rec["f1"])
    _check_scores("metrics.csv", tp, fp, fn, float(rec["precision"]), float(rec["recall"]), f1, problems)
    return {"tp": tp, "f1": f1}


def _check_detections(path: Path, extent_m, problems: list[str]) -> list[tuple[str, float]]:
    """Well-formed boxes inside the mosaic, in non-increasing score order.
    Returns (patch_id, score) per detection."""
    rows = _rows(path)
    if rows[0] != DETECTION_HEADER:
        problems.append(f"{path.name}: header {rows[0]}")
    x_min, y_min, x_max, y_max = extent_m
    eps = 1e-6
    out = []
    last = float("inf")
    for lineno, row in enumerate(rows[1:], start=2):
        x1, y1, x2, y2, score = (float(v) for v in row[:5])
        if not (x_min - eps <= x1 < x2 <= x_max + eps and y_min - eps <= y1 < y2 <= y_max + eps):
            problems.append(f"{path.name}:{lineno}: box outside the mosaic or degenerate")
        if not 0.0 <= score <= last:
            problems.append(f"{path.name}:{lineno}: score {score!r} out of range or out of order")
        last = score
        out.append((row[5], score))
    return out


def _check_crossmatch(path: Path, dets: list[tuple[str, float]], tp: int, problems: list[str]) -> None:
    """The three classes partition the scored detections, and 'known' agrees
    with the true positives of the same run."""
    rows = _rows(path)
    if rows[0] != ["class", "detection_index", "patch_id", "score"]:
        problems.append(f"{path.name}: header {rows[0]}")
    seen = []
    known = 0
    for cls, index, patch_id, score in rows[1:]:
        i = int(index)
        seen.append(i)
        known += cls == "known"
        if cls not in CROSSMATCH_CLASSES:
            problems.append(f"{path.name}: unknown class {cls!r}")
        elif not 0 <= i < len(dets) or dets[i] != (patch_id, float(score)):
            problems.append(f"{path.name}: row for detection {i} does not match detections_global.csv")
    if sorted(seen) != list(range(len(dets))):
        problems.append(f"{path.name}: classes do not partition the {len(dets)} detections")
    if known != tp:
        problems.append(f"{path.name}: {known} known detections, metrics.csv has tp = {tp}")


def _check_grid(out: Path, n_truth: int, problems: list[str]) -> float:
    """All 24 cells with consistent scores; the best cell has maximum F1
    under the documented tie rule. Returns the best cell's F1."""
    rows = _rows(out / "gridsearch.csv")
    if rows[0] != ["m", "delta", "tp", "fp", "fn", "precision", "recall", "f1"]:
        problems.append(f"gridsearch.csv: header {rows[0]}")
    cells = {}
    for m, delta, tp, fp, fn, p, r, f1 in rows[1:]:
        tp, fp, fn = int(tp), int(fp), int(fn)
        key = (int(m), None if delta == "none" else float(delta))
        cells[key] = (tp, fp, float(f1))
        if fn != max(0, n_truth - tp):
            problems.append(f"gridsearch.csv: cell {key}: fn = {fn} with tp = {tp} of {n_truth}")
        _check_scores(f"gridsearch.csv: cell {key}", tp, fp, fn, float(p), float(r), float(f1), problems)
    want = {(m, d) for m in M_SET for d in list(DELTA_SET) + [None]}
    if set(cells) != want or len(rows) - 1 != len(want):
        problems.append(f"gridsearch.csv: {len(rows) - 1} cells, expected the {len(want)} of the m x delta grid")
        return 0.0
    for m in M_SET:
        raw = sum(cells[(m, None)][:2])
        if any(sum(cells[(m, d)][:2]) > raw for d in DELTA_SET):
            problems.append(f"gridsearch.csv: m = {m}: NMS kept more detections than the no-NMS column")

    best = dict(line.split(" = ") for line in (out / "gridsearch.csv.best.txt").read_text().splitlines())
    best_key = (int(best["best_m"]), None if best["best_delta"] == "none" else float(best["best_delta"]))

    def rank(key):
        m, delta = key
        return cells[key][2], m, -(float("inf") if delta is None else delta)

    if best_key != max(cells, key=rank):
        problems.append(f"gridsearch.csv.best.txt: {best_key} is not the best cell {max(cells, key=rank)}")
    return cells.get(best_key, (0, 0, 0.0))[2]
