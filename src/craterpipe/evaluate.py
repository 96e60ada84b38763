"""Catalog-based evaluation: IOU metrics, size gating, grid search,
localization statistics and cross-catalog verification of new detections.

Counting is set-level: a detection is a true positive when its best IOU
against any truth box reaches the threshold u, false positives are the
rest, and false negatives are truth boxes left over. No one-to-one
assignment is attempted; with NMS applied upstream, multiple detections
matching one truth box are rare, and the raw (possibly negative) FN is kept
alongside the clamped value so the effect stays visible.

Detections arrive as a postprocess.DetectionSet, raw per-patch detections
for grid search as a detector.PatchDetections, and truth as an (M, 4) box
array. Each detection's best IOU comes from the sparse
postprocess.overlap_pairs, never from a dense N x M matrix.

Everything here is pure; grid-search cells are independent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .detector import PatchDetections
from .errors import EvalError
from .geo import GeoTransform
from .postprocess import BoundaryFilterConfig, DetectionSet, NmsConfig, overlap_pairs, run_pipeline

__all__ = [
    "EvalConfig",
    "MetricsReport",
    "LocalizationReport",
    "GridCell",
    "GridSearchResult",
    "CrossVerifyReport",
    "iou",
    "metrics_from_counts",
    "match_and_count",
    "size_gate",
    "localization_stats",
    "grid_search",
    "cross_verify",
    "write_metrics",
    "write_gridsearch",
]


@dataclass(frozen=True)
class EvalConfig:
    """IOU threshold and optional diameter gate for counting."""

    u: float = 0.3
    size_floor_km: float | None = None
    size_ceiling_km: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.u <= 1.0:
            raise EvalError(f"u must be in [0, 1], got {self.u}")


@dataclass(frozen=True)
class MetricsReport:
    """Counts and scores at one threshold.

    fn is clamped at zero (the raw value can go negative when several
    detections match one truth box); fn_raw preserves it. When a denominator
    is zero the score is reported as 0.0 with its *_defined flag False.
    """

    tp: int
    fp: int
    fn: int
    fn_raw: int
    precision: float
    recall: float
    f1: float
    u: float
    n_detections: int
    n_truth: int
    precision_defined: bool = True
    recall_defined: bool = True
    f1_defined: bool = True


@dataclass(frozen=True)
class LocalizationReport:
    """Mean and population std of percentage IOU over matched detections."""

    mean_iou_pct: float | None
    std_iou_pct: float | None
    n_matched: int


@dataclass(frozen=True)
class GridCell:
    m: int
    delta: float | None  # None marks the NMS-disabled column
    report: MetricsReport


@dataclass(frozen=True)
class GridSearchResult:
    cells: tuple[GridCell, ...]
    best_m: int
    best_delta: float | None


@dataclass(frozen=True)
class CrossVerifyReport:
    """Detections classified against a primary and a verification catalog.

    Indices refer to the gated detection list; the three classes partition
    it. A detection matching both catalogs is "known" (the primary wins).
    """

    known: tuple[int, ...]
    confirmed_new: tuple[int, ...]
    unverified: tuple[int, ...]
    u: float

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.known), len(self.confirmed_new), len(self.unverified)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two axis-aligned boxes; 0 when disjoint."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if area_a <= 0 or area_b <= 0:
        raise EvalError(f"degenerate box in IOU: {a if area_a <= 0 else b}")
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def metrics_from_counts(
    tp: int, fp: int, fn: int, u: float, n_detections: int, n_truth: int, fn_raw: int | None = None
) -> MetricsReport:
    """Precision, recall and F1 from counts, flagging empty denominators."""
    p_def = (tp + fp) > 0
    r_def = (tp + fn) > 0
    precision = tp / (tp + fp) if p_def else 0.0
    recall = tp / (tp + fn) if r_def else 0.0
    f_def = p_def and r_def and (precision + recall) > 0
    f1 = 2.0 * precision * recall / (precision + recall) if f_def else 0.0
    return MetricsReport(
        tp=tp,
        fp=fp,
        fn=fn,
        fn_raw=fn if fn_raw is None else fn_raw,
        precision=precision,
        recall=recall,
        f1=f1,
        u=u,
        n_detections=n_detections,
        n_truth=n_truth,
        precision_defined=p_def,
        recall_defined=r_def,
        f1_defined=f_def,
    )


def _max_ious(dets: DetectionSet, truth_boxes: np.ndarray) -> np.ndarray:
    """Each detection's best IOU against the truth boxes; 0 where none overlaps."""
    best = np.zeros(len(dets))
    i, _, v = overlap_pairs(dets.boxes, truth_boxes)
    np.maximum.at(best, i, v)
    return best


def match_and_count(
    dets: DetectionSet,
    truth_boxes: np.ndarray,
    cfg: EvalConfig,
) -> MetricsReport:
    """Count TP/FP/FN at threshold cfg.u. Apply size_gate first if needed."""
    best = _max_ious(dets, truth_boxes)
    n, m = best.shape[0], np.asarray(truth_boxes).reshape(-1, 4).shape[0]
    tp = int((best >= cfg.u).sum())
    return metrics_from_counts(tp, n - tp, max(0, m - tp), cfg.u, n, m, fn_raw=m - tp)


def size_gate(dets: DetectionSet, cfg: EvalConfig) -> DetectionSet:
    """Drop detections outside [size_floor_km, size_ceiling_km).

    The equivalent diameter of a box is the mean of its width and height in
    kilometers. With no bounds configured every detection is kept.
    """
    boxes = dets.boxes
    diam_km = ((boxes[:, 2] - boxes[:, 0]) + (boxes[:, 3] - boxes[:, 1])) / 2.0 / 1000.0
    keep = np.ones(diam_km.shape[0], dtype=bool)
    if cfg.size_floor_km is not None:
        keep &= diam_km >= cfg.size_floor_km
    if cfg.size_ceiling_km is not None:
        keep &= diam_km < cfg.size_ceiling_km
    return dets.take(np.flatnonzero(keep))


def localization_stats(
    dets: DetectionSet,
    truth_boxes: np.ndarray,
    cfg: EvalConfig,
) -> LocalizationReport:
    """Mean/std percentage IOU over detections counted as true positives."""
    best = _max_ious(dets, truth_boxes)
    matched = best[best >= cfg.u] * 100.0
    if matched.size == 0:
        return LocalizationReport(mean_iou_pct=None, std_iou_pct=None, n_matched=0)
    return LocalizationReport(
        mean_iou_pct=float(matched.mean()),
        std_iou_pct=float(matched.std()),  # population std
        n_matched=int(matched.size),
    )


def grid_search(
    per_patch: PatchDetections,
    patch_index: Mapping[str, tuple[int, int, float]],
    gt: GeoTransform,
    truth_boxes: np.ndarray,
    ps_r: int,
    m_set: Sequence[int],
    delta_set: Sequence[float],
    cfg: EvalConfig,
    include_no_nms: bool = True,
) -> GridSearchResult:
    """Joint sweep of the boundary threshold and the NMS threshold.

    Every (m, delta) cell, plus an NMS-disabled column per m when
    include_no_nms is set, runs the full post-processing pipeline on
    per_patch and is scored against the truth. The
    best cell maximizes F1; ties prefer larger m, then smaller delta, with
    the disabled column ranked after any real delta.
    """
    if not m_set:
        raise EvalError("grid search needs a non-empty m set")
    if not delta_set:
        raise EvalError("grid search needs a non-empty delta set")

    deltas: list[float | None] = list(delta_set) + ([None] if include_no_nms else [])
    cells = []
    for m in m_set:
        bcfg = BoundaryFilterConfig(int(m))
        for delta in deltas:
            ncfg = NmsConfig(delta=delta if delta is not None else 0.0, enabled=delta is not None)
            survivors = run_pipeline(per_patch, patch_index, gt, ps_r, bcfg, ncfg)
            gated = size_gate(survivors, cfg)
            cells.append(GridCell(m=int(m), delta=delta, report=match_and_count(gated, truth_boxes, cfg)))

    def rank(cell: GridCell) -> tuple[float, int, float]:
        delta_key = cell.delta if cell.delta is not None else float("inf")
        return (cell.report.f1, cell.m, -delta_key)

    best = max(cells, key=rank)
    return GridSearchResult(cells=tuple(cells), best_m=best.m, best_delta=best.delta)


def cross_verify(
    dets: DetectionSet,
    catalog_a_boxes: np.ndarray,
    catalog_b_boxes: np.ndarray,
    cfg: EvalConfig,
) -> CrossVerifyReport:
    """Classify detections as known (in A), confirmed new (only in B), or
    unverified (in neither), matching at IOU >= u."""
    best_a = _max_ious(dets, catalog_a_boxes)
    best_b = _max_ious(dets, catalog_b_boxes)
    known = best_a >= cfg.u
    confirmed = ~known & (best_b >= cfg.u)
    return CrossVerifyReport(
        known=tuple(np.flatnonzero(known).tolist()),
        confirmed_new=tuple(np.flatnonzero(confirmed).tolist()),
        unverified=tuple(np.flatnonzero(~known & ~confirmed).tolist()),
        u=cfg.u,
    )


# ---------------------------------------------------------------------------
# report files


def write_metrics(report: MetricsReport, path: str | Path, extra: dict | None = None) -> None:
    """One CSV record of the counting result, plus any extra fields."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = {
        "u": repr(report.u),
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "fn_raw": report.fn_raw,
        "precision": repr(report.precision),
        "recall": repr(report.recall),
        "f1": repr(report.f1),
        "n_detections": report.n_detections,
        "n_truth": report.n_truth,
        "precision_defined": report.precision_defined,
        "recall_defined": report.recall_defined,
        "f1_defined": report.f1_defined,
    }
    if extra:
        fields.update(extra)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(fields))
        writer.writerow([str(v) for v in fields.values()])


def write_gridsearch(result: GridSearchResult, path: str | Path) -> None:
    """One line per grid cell: m, delta, TP, FP, FN, P, R, F1."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "delta", "tp", "fp", "fn", "precision", "recall", "f1"])
        for cell in result.cells:
            r = cell.report
            delta = "none" if cell.delta is None else repr(cell.delta)
            writer.writerow([cell.m, delta, r.tp, r.fp, r.fn, repr(r.precision), repr(r.recall), repr(r.f1)])
    best_delta = "none" if result.best_delta is None else repr(result.best_delta)
    Path(str(path) + ".best.txt").write_text(
        f"best_m = {result.best_m}\nbest_delta = {best_delta}\n"
    )
