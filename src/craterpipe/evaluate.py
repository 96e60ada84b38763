"""Catalog-based evaluation: counting metrics, size gating, grid search,
localization statistics and cross-catalog verification of new detections.

Counting is set-level: a detection is a true positive when its best IOU
against any truth box reaches the threshold u, false positives are the
rest, and false negatives are truth boxes left over. No one-to-one
assignment is attempted; with NMS applied upstream, multiple detections
matching one truth box are rare, and the raw (possibly negative) FN is kept
alongside the clamped value so the effect stays visible.

Detections arrive as a postprocess.DetectionSet, raw per-patch detections
for grid search as a detector.PatchDetections, and truth as an (M, 4) box
array. Each detection's best IOU comes from the pairs at IOU >= u (or NaN)
of the sparse postprocess.overlap_pairs, never from a dense N x M matrix;
there is no other box-overlap primitive.

Everything here is pure; a grid-search cell's result depends on its own
(m, delta) alone. A cell makes the post-processing call run makes,
postprocess.run_pipeline with its own (m, delta), delta None for the
no-NMS column. A sweep merges once, at the smallest m, and ranks and
self-joins that set once, at the smallest positive delta; the cells of
each m pass run_pipeline that graph restricted to the rows alive at m
(postprocess.restrict), so no cell merges or joins again. A raw row's
global box, and so its size gate and best truth IOU, depend on that row
alone, and every row a cell keeps is alive at the smallest m, so both are
settled once for the rows alive there and each cell is counted from the
raw rows (DetectionSet.rows) it keeps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import in_size_range
from .detector import PatchDetections
from .errors import EvalError
from .geo import GeoTransform
from .postprocess import (DetectionSet, edge_distance, filter_and_globalize, overlap_pairs, ranked_edges, restrict,
                          run_pipeline)
from .textcols import csv_text, write_csv

__all__ = [
    "EvalConfig",
    "MetricsReport",
    "LocalizationReport",
    "GridCell",
    "GridSearchResult",
    "CrossVerifyReport",
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
        lo, hi = self.size_floor_km, self.size_ceiling_km
        if not (-np.inf if lo is None else lo) < (np.inf if hi is None else hi):  # NaN fails too
            raise EvalError(f"size_floor_km ({lo}) must be below size_ceiling_km ({hi})")


@dataclass(frozen=True)
class MetricsReport:
    """Counts and scores at one threshold, in metrics.csv's column order.

    fn is clamped at zero (the raw value can go negative when several
    detections match one truth box); fn_raw preserves it. When a denominator
    is zero the score is reported as 0.0 with its *_defined flag False.
    """

    u: float
    tp: int
    fp: int
    fn: int
    fn_raw: int
    precision: float
    recall: float
    f1: float
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
        u=u,
        tp=tp,
        fp=fp,
        fn=fn,
        fn_raw=fn if fn_raw is None else fn_raw,
        precision=precision,
        recall=recall,
        f1=f1,
        n_detections=n_detections,
        n_truth=n_truth,
        precision_defined=p_def,
        recall_defined=r_def,
        f1_defined=f_def,
    )


def _max_ious(dets: DetectionSet, truth_boxes: np.ndarray, u: float) -> np.ndarray:
    """Each detection's best IOU against the truth boxes where that is >= u or NaN, else 0."""
    best = np.zeros(len(dets))
    i, _, v = overlap_pairs(dets.boxes, truth_boxes, min_iou=u)
    np.maximum.at(best, i, v)
    return best


def _report(best: np.ndarray, n_truth: int, u: float) -> MetricsReport:
    """Counts and scores at threshold u of the detections whose best truth
    IOUs are best, against n_truth truth boxes."""
    n, tp = best.shape[0], int((best >= u).sum())
    return metrics_from_counts(tp, n - tp, max(0, n_truth - tp), u, n, n_truth, fn_raw=n_truth - tp)


def match_and_count(
    dets: DetectionSet,
    truth_boxes: np.ndarray,
    cfg: EvalConfig,
) -> MetricsReport:
    """Count TP/FP/FN at threshold cfg.u. Apply size_gate first if needed."""
    return _report(_max_ious(dets, truth_boxes, cfg.u), np.asarray(truth_boxes).reshape(-1, 4).shape[0], cfg.u)


def size_gate(dets: DetectionSet, cfg: EvalConfig) -> DetectionSet:
    """Drop detections whose equivalent diameter (DetectionSet.diam_km) lies
    outside [size_floor_km, size_ceiling_km), the window catalog.in_size_range
    gives truth rows; with no bounds, keep every one."""
    keep = in_size_range(dets.diam_km(), cfg.size_floor_km, cfg.size_ceiling_km)
    return dets.take(np.flatnonzero(keep))


def localization_stats(
    dets: DetectionSet,
    truth_boxes: np.ndarray,
    cfg: EvalConfig,
) -> LocalizationReport:
    """Mean/std percentage IOU over detections counted as true positives."""
    best = _max_ious(dets, truth_boxes, cfg.u)
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
    gt: GeoTransform,
    truth_boxes: np.ndarray,
    ps_r: int,
    m_set: Sequence[int],
    delta_set: Sequence[float],
    cfg: EvalConfig,
    include_no_nms: bool = True,
) -> GridSearchResult:
    """Joint sweep of the boundary threshold and the NMS threshold.

    Every (m, delta) cell, plus an NMS-disabled column (delta None) per m
    when include_no_nms is set, runs the full post-processing pipeline on
    per_patch and is scored against the truth, as match_and_count scores
    it. The set merged at the smallest m settles each raw row's size gate
    and best truth IOU, once, and is ranked and self-joined once; each m's
    cells share that graph restricted to the rows alive at m, and each cell
    counts the gated rows it keeps. The best cell maximizes F1; ties prefer
    larger m, then smaller delta, with the disabled column ranked after any
    real delta.
    """
    if not m_set:
        raise EvalError("grid search needs a non-empty m set")
    if not delta_set:
        raise EvalError("grid search needs a non-empty delta set")

    deltas: list[float | None] = list(delta_set) + ([None] if include_no_nms else [])
    truth_boxes = np.asarray(truth_boxes, dtype=np.float64).reshape(-1, 4)
    # every row a cell keeps is alive at the smallest m: gate and match each such row once
    m0 = int(min(m_set))
    merged0 = filter_and_globalize(per_patch, gt, ps_r, m0)
    alive = size_gate(merged0, cfg)
    gated = np.zeros(per_patch.scores.shape[0], dtype=bool)
    gated[alive.rows] = True
    iou = np.zeros(gated.shape[0])
    iou[alive.rows] = _max_ious(alive, truth_boxes, cfg.u)
    # one self-join; each m's graph is the part of it alive at m
    d0 = min((d for d in delta_set if d > 0.0), default=None)  # delta 0 keeps the top box, joining nothing
    graph = ranked_edges(merged0, d0) if d0 else None
    distance = edge_distance(merged0.pixel_boxes, ps_r)
    cells = []
    for m in map(int, m_set):
        edges = None if graph is None else restrict(graph, distance > m)
        for delta in deltas:
            rows = run_pipeline(per_patch, gt, ps_r, m, delta, edges).rows
            report = _report(iou[rows[gated[rows]]], truth_boxes.shape[0], cfg.u)
            cells.append(GridCell(m=m, delta=delta, report=report))

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
    best_a = _max_ious(dets, catalog_a_boxes, cfg.u)
    best_b = _max_ious(dets, catalog_b_boxes, cfg.u)
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


def write_metrics(report: MetricsReport, path: str | Path, extra: dict) -> None:
    """One CSV record of the report's fields, then the extra fields."""
    fields = {**asdict(report), **extra}
    write_csv(path, csv_text(list(fields)), [[v] for v in csv_text(map(str, fields.values()))])


def write_gridsearch(result: GridSearchResult, path: str | Path) -> None:
    """One line per grid cell: m, delta, TP, FP, FN, P, R, F1."""
    rows = []
    for cell in result.cells:
        r = cell.report
        delta = "none" if cell.delta is None else repr(cell.delta)
        rows.append([str(cell.m), delta, *map(str, (r.tp, r.fp, r.fn)), *map(repr, (r.precision, r.recall, r.f1))])
    write_csv(path, ["m", "delta", "tp", "fp", "fn", "precision", "recall", "f1"], list(zip(*rows)))
    best_delta = "none" if result.best_delta is None else repr(result.best_delta)
    Path(str(path) + ".best.txt").write_text(
        f"best_m = {result.best_m}\nbest_delta = {best_delta}\n"
    )
