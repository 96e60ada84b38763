"""Detection post-processing: boundary filter, globalization, NMS, and the
box-overlap primitive that NMS and evaluation share.

Overlapping tiling means one crater can be detected in several patches and
partially at patch edges. The fix happens in a fixed order: drop boxes
hugging their patch boundary, map the rest to mosaic meters, then greedily
deduplicate by IOU. NMS is a single sequential pass because its greedy
order is part of the semantics.

A detection set is held as columns. run_pipeline takes a
detector.PatchDetections (pixel boxes, scores and patch ids, grouped in
sorted patch id order); a plain patch id -> list of Detection mapping is
converted to one first. The boundary filter is one mask over the pixel
boxes, globalization looks each patch up once and maps whole columns, and
the result is a DetectionSet, as is what load_global_detections reads
back. Only nms also takes a list of GlobalDetection and then returns a
list of the same objects.

overlap_pairs(a, b) finds the overlapping pairs of two box sets; NMS uses
its self-join form overlap_pairs(b), which gives each overlapping pair of
distinct boxes once, as i < j.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import Detection, PatchDetections
from .errors import DetectionError, PipelineError
from .geo import GeoTransform, meter_to_lonlat, pixel_to_meter_xy

__all__ = [
    "BoundaryFilterConfig",
    "NmsConfig",
    "GlobalDetection",
    "DetectionSet",
    "overlap_pairs",
    "nms",
    "run_pipeline",
    "write_global_detections",
    "load_global_detections",
    "write_catalog_export",
]


@dataclass(frozen=True)
class BoundaryFilterConfig:
    """Distance threshold (resized pixels) for dropping boundary boxes."""

    m: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and self.m >= 0):
            raise PipelineError(f"m must be a non-negative integer, got {self.m!r}")


@dataclass(frozen=True)
class NmsConfig:
    """IOU threshold for suppression; enabled=False passes input through."""

    delta: float
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise PipelineError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class GlobalDetection:
    """A scored box in mosaic meters with its per-patch provenance."""

    box: tuple[float, float, float, float]
    score: float
    patch_id: str
    pixel_box: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))
        object.__setattr__(self, "pixel_box", tuple(float(v) for v in self.pixel_box))
        object.__setattr__(self, "score", float(self.score))
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise PipelineError(f"degenerate global box {self.box}")


_GLOBAL_HEADER = ["x1_m", "y1_m", "x2_m", "y2_m", "score", "patch_id", "px1", "py1", "px2", "py2"]


class DetectionSet(Sequence):
    """Global detections held as columns: what the pipeline passes between
    stages.

    boxes and pixel_boxes are (N, 4) float64 arrays, scores an (N,) float64
    array and patch_ids an (N,) object array of str. Indexing with an int
    builds one GlobalDetection, and take() selects rows and stays columnar,
    so per-box objects exist only where a caller reads them.
    """

    def __init__(self, boxes, scores, patch_ids, pixel_boxes) -> None:
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        self.patch_ids = np.asarray(patch_ids, dtype=object).reshape(-1)
        self.pixel_boxes = np.asarray(pixel_boxes, dtype=np.float64).reshape(-1, 4)

    @classmethod
    def of(cls, dets: Iterable[GlobalDetection]) -> DetectionSet:
        """The columns of dets; a DetectionSet is returned as it is."""
        if isinstance(dets, cls):
            return dets
        dets = list(dets)
        return cls(
            [d.box for d in dets],
            [d.score for d in dets],
            [d.patch_id for d in dets],
            [d.pixel_box for d in dets],
        )

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

    def rows(self) -> Iterator[tuple[list[float], float, str, list[float]]]:
        """(box, score, patch_id, pixel_box) per detection, as Python floats."""
        return zip(self.boxes.tolist(), self.scores.tolist(), self.patch_ids.tolist(), self.pixel_boxes.tolist())

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __getitem__(self, i: int) -> GlobalDetection:
        return GlobalDetection(
            tuple(self.boxes[i].tolist()), self.scores[i], self.patch_ids[i], tuple(self.pixel_boxes[i].tolist())
        )

    def __iter__(self) -> Iterator[GlobalDetection]:
        for box, score, patch_id, pixel_box in self.rows():
            yield GlobalDetection(tuple(box), score, patch_id, tuple(pixel_box))

    def __eq__(self, other) -> bool:
        if isinstance(other, (DetectionSet, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[q], starts[q] + 1, ..., starts[q] + counts[q] - 1 for every q, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _candidates(a: np.ndarray, b: np.ndarray, one_way: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) that include every pair of a- and b-boxes that
    intersect with positive area, plus some that do not. one_way means b is
    a: then each pair of distinct boxes comes once, as i < j."""
    # b is split into size classes: every side of a class-k box is below
    # C = 2**k, which is also the class's band height. k stays at most 52
    # below the exponent of the largest coordinate, so y / C stays finite
    # and bands are never finer than the coordinates can resolve.
    k_floor = int(np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]) - 52
    side = np.maximum(b[:, 2] - b[:, 0], b[:, 3] - b[:, 1])
    k = np.maximum(np.frexp(side)[1], k_floor)
    out_i, out_j = [], []
    for kc in np.unique(k).tolist():
        c = np.ldexp(1.0, kc)
        members = np.flatnonzero(k == kc)
        # Bucket the class into y-bands of height C by y1, sorted by x1
        # within a band. key orders (band, x1) as one integer: the band's
        # number times a stride, plus the count of class boxes with a smaller x1.
        band = np.floor(b[members, 1] / c)
        x1 = b[members, 0]
        order = np.lexsort((x1, band))
        members, band, x1 = members[order], band[order], x1[order]
        bands, band_no = np.unique(band, return_inverse=True)
        xs = np.sort(x1)
        stride = members.size + 1
        key = band_no * stride + np.searchsorted(xs, x1)
        # Every box of a queries the class. In a self-join only boxes of
        # class >= k do, so a pair from two classes is found once, from its
        # larger box. The window below holds for a query box of any size.
        rows_a = np.flatnonzero(k >= kc) if one_way else np.arange(a.shape[0])
        q = a[rows_a]
        # A class box meeting q has y1 in (q_y1 - C, q_y2) and x1 in
        # (q_x1 - C, q_x2). The lower ends are rounded down so that no such
        # box falls outside the window.
        y_lo = np.floor(np.nextafter(q[:, 1] - c, -np.inf) / c)
        band_lo = np.searchsorted(bands, y_lo)
        n_bands = np.maximum(np.searchsorted(bands, np.floor(q[:, 3] / c), side="right") - band_lo, 0)
        q_band = _ranges(band_lo, n_bands)
        x_lo = np.repeat(np.searchsorted(xs, np.nextafter(q[:, 0] - c, -np.inf)), n_bands)
        x_hi = np.repeat(np.searchsorted(xs, q[:, 2]), n_bands)
        start = np.searchsorted(key, q_band * stride + x_lo)
        count = np.maximum(np.searchsorted(key, q_band * stride + x_hi) - start, 0)
        i = np.repeat(np.repeat(rows_a, n_bands), count)
        j = members[_ranges(start, count)]
        if one_way:
            # a pair within the class is found from both ends, and every
            # box finds itself
            once = (k[i] > kc) | (i < j)
            i, j = np.minimum(i[once], j[once]), np.maximum(i[once], j[once])
        out_i.append(i)
        out_j.append(j)
    return np.concatenate(out_i), np.concatenate(out_j)


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

    Sort and sweep: b is split by size class and bucketed into y-bands, and
    each box of a searches the bands it can reach with searchsorted windows
    on x1. Time and memory grow with N + M and the pairs found, not N x M.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    one_way = b is None
    b = a if one_way else np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    i, j = _candidates(a, b, one_way)
    iw = np.minimum(a[i, 2], b[j, 2]) - np.maximum(a[i, 0], b[j, 0])
    ih = np.minimum(a[i, 3], b[j, 3]) - np.maximum(a[i, 1], b[j, 1])
    hit = (iw > 0.0) & (ih > 0.0)
    i, j, inter = i[hit], j[hit], iw[hit] * ih[hit]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = area_a if one_way else (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return i, j, inter / (area_a[i] + area_b[j] - inter)


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


def nms(dets: Sequence[GlobalDetection], cfg: NmsConfig) -> Sequence[GlobalDetection]:
    """Greedy highest-score-first suppression at IOU >= delta.

    Score ties break deterministically by smaller x1, then smaller y1, then
    input order, so results do not depend on how the input was assembled.
    Survivors are returned in selection (score-descending) order: a
    DetectionSet for a DetectionSet, otherwise a list of the input's own
    objects. Disabled NMS returns the input unchanged.
    """
    if not cfg.enabled:
        return dets if isinstance(dets, DetectionSet) else list(dets)
    columns = DetectionSet.of(dets)
    keep = _nms_keep(columns.boxes, columns.scores, cfg.delta)
    return columns.take(keep) if columns is dets else [dets[i] for i in keep.tolist()]


def run_pipeline(
    per_patch: Mapping[str, Sequence[Detection]],
    patch_index: Mapping[str, tuple[int, int, float]],
    gt: GeoTransform,
    ps_r: int,
    bcfg: BoundaryFilterConfig,
    ncfg: NmsConfig,
) -> DetectionSet:
    """Boundary filter per patch, then globalize, then NMS, in that order.

    per_patch is a PatchDetections, or any patch id -> detections mapping,
    which is converted to one. Its rows are merged in sorted patch id order,
    so the merged set (and therefore NMS tie-breaking) never depends on
    mapping order. Every stage works on the columns.
    """
    raw = PatchDetections.of(per_patch)
    keep = np.flatnonzero(_inside(raw.boxes, ps_r, bcfg.m))
    merged = _globalize(raw.patches, raw.codes[keep], raw.boxes[keep], raw.scores[keep], patch_index, gt)
    return nms(merged, ncfg)


# ---------------------------------------------------------------------------
# output formats


def write_global_detections(dets: Sequence[GlobalDetection], path: str | Path) -> None:
    """CSV of globalized boxes: meters, score, then provenance columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_GLOBAL_HEADER)
        for box, score, patch_id, pixel_box in DetectionSet.of(dets).rows():
            writer.writerow([repr(v) for v in box] + [repr(score), patch_id] + [repr(v) for v in pixel_box])


def load_global_detections(path: str | Path) -> DetectionSet:
    """Read back what write_global_detections wrote, header row first.

    A file with no lines holds no detections. The first bad row fails the
    load with its line number: a wrong field count, a non-numeric field or
    a degenerate box, whichever comes first.
    """
    path = Path(path)
    if not path.exists():
        raise DetectionError(f"global detections file not found: {path}")
    ids, values = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 and row != _GLOBAL_HEADER:
                raise DetectionError(f"{path}:1: expected the header row {','.join(_GLOBAL_HEADER)}")
            if lineno == 1 or not row:
                continue
            if len(row) != 10:
                raise DetectionError(f"{path}:{lineno}: expected 10 fields, got {len(row)}")
            try:
                vals = [float(v) for v in row[:5] + row[6:]]
            except ValueError as exc:
                raise DetectionError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
            if not (vals[0] < vals[2] and vals[1] < vals[3]):
                raise DetectionError(f"{path}:{lineno}: degenerate global box {tuple(vals[:4])}")
            ids.append(row[5])
            values.append(vals)
    rows = np.array(values, dtype=np.float64).reshape(-1, 9)
    return DetectionSet(rows[:, :4], rows[:, 4], ids, rows[:, 5:])


def write_catalog_export(
    dets: Sequence[GlobalDetection], gt: GeoTransform, path: str | Path, provenance: dict | None = None
) -> None:
    """Export detections in catalog form (lon, lat, diam_km).

    The box center inverts through the projection; the diameter is the mean
    box side in kilometers, matching how detections are size-gated.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lon", "lat", "diam_km"])
        for i, (x1, y1, x2, y2) in enumerate(DetectionSet.of(dets).boxes.tolist()):
            lon, lat = meter_to_lonlat((x1 + x2) / 2.0, (y1 + y2) / 2.0, gt)
            diam_km = ((x2 - x1) + (y2 - y1)) / 2.0 / 1000.0
            writer.writerow([f"det#{i}", repr(lon), repr(lat), repr(diam_km)])
    side = {"n_detections": len(dets)}
    if provenance:
        side.update(provenance)
    Path(str(path) + ".provenance.json").write_text(json.dumps(side, indent=2) + "\n")
