"""Detection post-processing: boundary filter, globalization, NMS, and the
box-overlap primitive that NMS and evaluation share.

Overlapping tiling means one crater can be detected in several patches and
partially at patch edges. The fix happens in a fixed order: drop boxes
hugging their patch boundary, map the rest to mosaic meters, then greedily
deduplicate by IOU. NMS is a single sequential pass because its greedy
order is part of the semantics. The two thresholds are plain values, the
boundary distance m and the NMS IOU delta, with delta None for no NMS;
config.PipelineConfig.validate checks them where they enter the program.

A detection set is held as columns. run_pipeline takes a
detector.PatchDetections (pixel boxes, scores and patch ids, grouped in
sorted patch id order). The boundary filter is one mask over the pixel
boxes, globalization looks each patch up once and maps whole columns, and
the result is a DetectionSet, as is what nms returns and what
load_global_detections reads back.

overlap_pairs(a, b) finds the overlapping pairs of two box sets by a strip
sweep; NMS uses its self-join form overlap_pairs(b), which gives each
overlapping pair of distinct boxes once, as i < j.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from .detector import PatchDetections, invalid, row_error
from .errors import DetectionError, PipelineError
from .geo import GeoTransform, meter_to_lonlat, pixel_to_meter_xy
from .textcols import csv_text, gather, raise_first, read_columns, write_csv

__all__ = [
    "DetectionSet",
    "overlap_pairs",
    "nms",
    "run_pipeline",
    "write_global_detections",
    "load_global_detections",
    "write_catalog_export",
]


_GLOBAL_HEADER = ["x1_m", "y1_m", "x2_m", "y2_m", "score", "patch_id", "px1", "py1", "px2", "py2"]


class DetectionSet:
    """Global detections held as columns: what the pipeline passes between
    stages.

    boxes and pixel_boxes are (N, 4) float64 arrays, scores an (N,) float64
    array and patch_ids an (N,) object array of str. take() selects rows and
    stays columnar.
    """

    def __init__(self, boxes, scores, patch_ids, pixel_boxes) -> None:
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        self.patch_ids = np.asarray(patch_ids, dtype=object).reshape(-1)
        self.pixel_boxes = np.asarray(pixel_boxes, dtype=np.float64).reshape(-1, 4)

    @classmethod
    def concat(cls, parts: Sequence[DetectionSet]) -> DetectionSet:
        """The rows of a non-empty list of sets, in order."""
        return cls(
            np.concatenate([p.boxes for p in parts]),
            np.concatenate([p.scores for p in parts]),
            np.concatenate([p.patch_ids for p in parts]),
            np.concatenate([p.pixel_boxes for p in parts]),
        )

    def take(self, idx) -> DetectionSet:
        """Rows idx, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return DetectionSet(self.boxes[idx], self.scores[idx], self.patch_ids[idx], self.pixel_boxes[idx])

    def __len__(self) -> int:
        return self.scores.shape[0]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[q], starts[q] + 1, ..., starts[q] + counts[q] - 1 for every q, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _candidates(boxes: np.ndarray, n_a: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (i, j) that include every pair of boxes intersecting with
    positive area, plus some that do not, each pair once. Rows below n_a are
    a's and the rest b's, and i is an a-row and j a b-row; n_a None joins
    every row with every other."""
    n, y1, y2 = boxes.shape[0], boxes[:, 1], boxes[:, 3]
    e_max = int(np.frexp(np.abs(boxes[:, 1::2]).max())[1])

    def strips(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each box's first strip and count of further strips, for strips of
        height 2**k but never below 2**-52 of the largest y, so y / h stays
        finite and exact in its floor. Only first strips are numbered: a
        pair is found only in the strip of its intersection's lower edge,
        max(y1_i, y1_j), one box's first strip, so two further strips never
        meet."""
        h = np.ldexp(1.0, min(max(k, e_max - 52), e_max + 1))
        y1_strips, first = np.unique(np.floor(y1 / h), return_inverse=True)
        return first, np.maximum(np.searchsorted(y1_strips, np.floor(y2 / h), side="right") - first - 1, 0)

    # At a power of two above the mean box height (summed as quarter heights,
    # which cannot overflow) a box meets at most 3 strips on average. Heights
    # are first capped at 64 times the median, so that a few boxes far taller
    # than the rest are put in more strips rather than make every strip tall;
    # if that gives over 3 strips a box, k is bisected up towards k_hi.
    quarter = np.maximum(y2 * 0.25 - y1 * 0.25, 0.0)
    k_hi = int(np.frexp(quarter.mean())[1]) + 2
    median = np.partition(quarter, n // 2)[n // 2]
    k_lo = min(int(np.frexp(np.minimum(quarter, 64.0 * median).mean())[1]) + 2, k_hi)
    first_strip, n_further = strips(k_lo)
    if n_further.sum() > 2 * n:
        while k_hi - k_lo > 1:
            k = (k_lo + k_hi) // 2
            k_lo, k_hi = (k, k_hi) if strips(k)[1].sum() > 2 * n else (k_lo, k)
        first_strip, n_further = strips(k_hi)
    # key orders replicas by (strip, x1 rank); key + span bounds the keys of its strip with x1 below its x2
    xs, x1_rank = np.unique(boxes[:, 0], return_inverse=True)
    span, stride = np.searchsorted(xs, boxes[:, 2]) - x1_rank, xs.size + 1

    def replicas(lo: int, hi: int, further: bool) -> tuple[np.ndarray, np.ndarray]:
        box, strip = np.arange(lo, hi), first_strip[lo:hi]
        if further:
            box, strip = np.repeat(box, n_further[lo:hi]), _ranges(strip + 1, n_further[lo:hi])
        key = strip * stride + x1_rank[box]
        order = np.argsort(key)
        return box[order], key[order]

    parts = [(0, n)] if n_a is None else [(0, n_a), (n_a, n)]
    sides = [(replicas(lo, hi, False), replicas(lo, hi, True)) for lo, hi in parts]
    del xs, x1_rank, first_strip, n_further  # only the replicas and span reach the joins

    def join(p, q, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each p replica with the q replicas from start on in its strip whose x1 is below its x2."""
        (p_box, p_key), (q_box, q_key) = p, q
        count = np.maximum(np.searchsorted(q_key, p_key + span[p_box]) - start, 0)
        return np.repeat(p_box, count), q_box[_ranges(start, count)]

    def cross(p, q) -> list[tuple[np.ndarray, np.ndarray]]:
        """The p, q pairs in one strip that overlap in x: q.x1 in [p.x1, p.x2),
        searched from each p, and p.x1 in (q.x1, q.x2), from each q."""
        j, i = join(q, p, np.searchsorted(p[1], q[1], side="right"))
        return [join(p, q, np.searchsorted(q[1], p[1])), (i, j)]

    if n_a is None:
        [(first, further)] = sides
        # a forward sweep: each box meets the later boxes of its first strip
        pairs = [join(first, first, np.arange(1, n + 1))] + cross(first, further)
    else:
        (a_first, a_further), (b_first, b_further) = sides
        pairs = cross(a_first, b_first) + cross(a_first, b_further) + cross(a_further, b_first)
    return np.concatenate([i for i, _ in pairs]), np.concatenate([j for _, j in pairs])


def overlap_pairs(a, b=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs of boxes a[i], b[j] that intersect with positive area, and their IOU.

    a is (N, 4) and b (M, 4), rows (x1, y1, x2, y2). Returns index arrays i
    and j and the float64 IOU of each pair, in no particular order. IOU is
    inter / (area_a + area_b - inter) with the operations of the dense
    reference iou_matrix in tests/reference.py, so scattering the pairs
    into a zero N x M array reproduces that matrix bit for bit. Boxes that
    only touch share no area and form no pair.

    With b omitted, a is joined with itself: each overlapping pair of
    distinct boxes comes once, as i < j, and the scatter reproduces the
    strict upper triangle of iou_matrix(a, a). The IOU of a pair does not
    depend on its orientation, since +, min and max commute.

    A row holding a NaN or an infinite coordinate forms no pair.

    Strip sweep: each box is put in the horizontal strips it meets, and a
    pair is looked for only in the strip holding the lower edge of its
    intersection, by binary search on x1. Strips are as tall as the mean box
    with heights capped at 64 times the median, or taller where that would
    put more than 3 (N + M) boxes in strips. Time and memory grow with N + M
    and the candidates: the pairs, plus the boxes of one strip that overlap
    in x but not in y, which are few while strips are about as tall as most
    boxes.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    boxes = a if b is None else np.concatenate([a, np.asarray(b, dtype=np.float64).reshape(-1, 4)])
    finite = np.isfinite(boxes).all(axis=1)
    n, n_a = int(finite.sum()), None if b is None else int(finite[:a.shape[0]].sum())
    if n < finite.size:
        boxes = boxes[finite]
    if n < 2 or n_a in (0, n):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    i, j = _candidates(boxes, n_a)
    iw = np.minimum(boxes[i, 2], boxes[j, 2]) - np.maximum(boxes[i, 0], boxes[j, 0])
    ih = np.minimum(boxes[i, 3], boxes[j, 3]) - np.maximum(boxes[i, 1], boxes[j, 1])
    hit = (iw > 0.0) & (ih > 0.0)
    inter = iw[hit] * ih[hit]
    del iw, ih  # before i and j are filtered, so fewer candidate-length arrays live at once
    i, j = i[hit], j[hit]
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    iou = inter / (area[i] + area[j] - inter)
    if n_a is None:
        i, j = np.minimum(i, j), np.maximum(i, j)
    if n < finite.size:
        rows = np.flatnonzero(finite)
        i, j = rows[i], rows[j]
    return (i, j, iou) if n_a is None else (i, j - a.shape[0], iou)


def _inside(pixel_boxes: np.ndarray, ps_r: int, m: int) -> np.ndarray:
    x1, y1, x2, y2 = pixel_boxes.T
    return np.minimum(np.minimum(x1, y1), np.minimum(ps_r - x2, ps_r - y2)) > m


def _globalize(
    keys: Sequence[str],
    codes: np.ndarray,
    pixel_boxes: np.ndarray,
    scores: np.ndarray,
    patch_index: Mapping[str, tuple[int, int, float]],
    gt: GeoTransform,
) -> DetectionSet:
    """Map per-patch pixel boxes to mosaic meters, as columns.

    Row r lies in patch keys[codes[r]], and patch_index maps patch_id ->
    (row0, col0, delta_f); each patch is looked up once. Northing decreases
    with pixel row, so y corners swap; output boxes are re-normalized to
    x1 < x2, y1 < y2. Count, order and scores are preserved.
    """
    keys = np.asarray(keys, dtype=object).reshape(-1)
    unknown = np.array([k not in patch_index for k in keys], dtype=bool)[codes]
    if unknown.any():
        raise DetectionError(f"unknown patch id {keys[codes[unknown.argmax()]]!r} in detections")
    # a patch whose rows were all dropped may be missing from the index
    offsets = np.array([patch_index.get(k, (0, 0, 1.0)) for k in keys], dtype=np.float64).reshape(-1, 3)
    row0, col0, delta_f = offsets[codes].T
    px1, py1, px2, py2 = pixel_boxes.T
    x1, y_top = pixel_to_meter_xy(px1, py1, gt, row0, col0, delta_f)
    x2, y_bot = pixel_to_meter_xy(px2, py2, gt, row0, col0, delta_f)
    boxes = np.stack([x1, np.minimum(y_top, y_bot), x2, np.maximum(y_top, y_bot)], axis=1)
    bad = ~((boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))
    if bad.any():
        raise PipelineError(f"degenerate global box {tuple(boxes[bad.argmax()].tolist())}")
    return DetectionSet(boxes, scores, keys[codes], pixel_boxes)


def _nms_keep(boxes: np.ndarray, scores: np.ndarray, delta: float) -> np.ndarray:
    """Indices greedy NMS keeps, in selection order (see nms)."""
    n = scores.shape[0]
    order = np.lexsort((np.arange(n), boxes[:, 1], boxes[:, 0], -scores))
    if delta <= 0.0:
        # IOU >= 0 holds for every pair, disjoint ones included
        return order[:1]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    i, j, v = overlap_pairs(boxes)
    edge = v >= delta
    ri, rj = rank[i[edge]], rank[j[edge]]
    # Each pair comes once; its edge runs from the earlier-ranked box.
    head, tail = np.minimum(ri, rj), np.maximum(ri, rj)
    by_head = np.argsort(head, kind="stable")
    head, tail = head[by_head], tail[by_head]
    heads, starts = np.unique(head, return_index=True)
    ends = np.append(starts[1:], head.size)
    # Each box still standing suppresses its later-ranked neighbours, in rank
    # order; a box without later neighbours suppresses nothing.
    suppressed = np.zeros(n, dtype=bool)
    for h, lo, hi in zip(heads.tolist(), starts.tolist(), ends.tolist()):
        if not suppressed[h]:
            suppressed[tail[lo:hi]] = True
    return order[~suppressed]


def nms(dets: DetectionSet, delta: float | None) -> DetectionSet:
    """Greedy highest-score-first suppression at IOU >= delta.

    Score ties break deterministically by smaller x1, then smaller y1, then
    input order, so results do not depend on how the input was assembled.
    Survivors are returned in selection (score-descending) order. delta
    None means no NMS and returns the input unchanged.
    """
    if delta is None:
        return dets
    return dets.take(_nms_keep(dets.boxes, dets.scores, delta))


def run_pipeline(
    per_patch: PatchDetections,
    patch_index: Mapping[str, tuple[int, int, float]],
    gt: GeoTransform,
    ps_r: int,
    m: int,
    delta: float | None,
) -> DetectionSet:
    """Boundary filter per patch, then globalize, then NMS, in that order.

    A box is kept when all four of its edges lie more than m resized pixels
    inside its patch of side ps_r; NMS suppresses at IOU >= delta, and delta
    None skips it. The rows of per_patch are merged in sorted patch id
    order, so the merged set (and therefore NMS tie-breaking) never depends
    on the order the patches were detected in. Every stage works on the
    columns.
    """
    keep = np.flatnonzero(_inside(per_patch.boxes, ps_r, m))
    merged = _globalize(
        per_patch.patches, per_patch.codes[keep], per_patch.boxes[keep], per_patch.scores[keep], patch_index, gt
    )
    return nms(merged, delta)


# ---------------------------------------------------------------------------
# output formats


def write_global_detections(dets: DetectionSet, path: str | Path) -> None:
    """CSV of globalized boxes: meters, score, then provenance columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [*dets.boxes.T, dets.scores, csv_text(dets.patch_ids.tolist()), *dets.pixel_boxes.T]
    write_csv(path, _GLOBAL_HEADER, columns)


def load_global_detections(path: str | Path) -> DetectionSet:
    """Read back what write_global_detections wrote, header row first.

    A file with no lines holds no detections. The first bad row fails the
    load with its line number: a wrong field count, a non-numeric field, a
    degenerate or non-finite box, a pixel box and score that
    detector.invalid marks, or an empty patch id, whichever comes first.
    """
    path = Path(path)
    if not path.exists():
        raise DetectionError(f"global detections file not found: {path}")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), _GLOBAL_HEADER)
        if header != _GLOBAL_HEADER:
            raise DetectionError(f"{path}:1: expected the header row {','.join(_GLOBAL_HEADER)}")
        linenos, ids, rows, bad = gather(read_columns(fh, [0, 1, 2, 3, 4, 6, 7, 8, 9], 5, width=10, first=2))
    boxes, scores, pixel_boxes = rows[:, :4], rows[:, 4], rows[:, 5:]
    raise_first(path, linenos, bad, [
        (~((boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])),
         lambda r: f"degenerate global box {tuple(boxes[r].tolist())}"),
        (~np.isfinite(boxes).all(axis=1), lambda r: f"non-finite global box {tuple(boxes[r].tolist())}"),
        (invalid(pixel_boxes, scores), lambda r: row_error(ids[r], pixel_boxes[r], scores[r])),
        (ids == "", lambda r: "empty patch id"),
    ])
    return DetectionSet(boxes, scores, ids, pixel_boxes)


def write_catalog_export(dets: DetectionSet, gt: GeoTransform, path: str | Path, provenance: dict) -> None:
    """Export detections in catalog form (lon, lat, diam_km), with a
    provenance.json beside it holding the detection count and provenance.

    The box center inverts through the projection; the diameter is the mean
    box side in kilometers, matching how detections are size-gated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    x1, y1, x2, y2 = dets.boxes.T
    lon, lat = meter_to_lonlat((x1 + x2) / 2.0, (y1 + y2) / 2.0, gt)
    diam_km = ((x2 - x1) + (y2 - y1)) / 2.0 / 1000.0
    ids = [f"det#{i}" for i in range(len(diam_km))]
    write_csv(path, ["id", "lon", "lat", "diam_km"], [ids, lon, lat, diam_km])
    side = {"n_detections": len(dets), **provenance}
    Path(str(path) + ".provenance.json").write_text(json.dumps(side, indent=2) + "\n")
