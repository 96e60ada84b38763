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
detector.PatchDetections (a band's patch table, and pixel boxes, scores and
codes into that table, grouped in sorted patch id order). The boundary
filter is one mask over the pixel boxes, globalization reads each
survivor's offsets from the table by its code and maps whole columns, and
the result is a DetectionSet, as is what nms returns and what
load_global_detections reads back.

overlap_pairs(a, b, min_iou) finds the pairs of two box sets at IOU >= min_iou
by a strip sweep, a block of candidates at a time. NMS ranks a set and
self-joins it once (ranked_edges, a RankedEdges that holds the set), then
makes a greedy pass over the edges at IOU >= delta. A grid search makes one
such graph, at its smallest m, and restrict gives each larger m the part
alive there (edge_distance above m) without a second merge or join.
"""

from __future__ import annotations

import csv
import json
from collections import namedtuple
from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from .detector import PatchDetections, invalid, row_error
from .errors import DetectionError, PipelineError
from .geo import GeoTransform, meter_to_lonlat, pixel_to_meter_xy
from .textcols import csv_text, open_text, raise_first, read_columns, write_csv

__all__ = [
    "DetectionSet",
    "overlap_pairs",
    "edge_distance",
    "filter_and_globalize",
    "RankedEdges",
    "ranked_edges",
    "restrict",
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
    array and patch_ids an (N,) object array of str. rows is an (N,) intp
    array, the row of the source each detection came from: run_pipeline's
    rows index its per-patch input, and a set built without rows numbers
    them 0..N-1. No file holds rows. take() selects rows and stays columnar.
    """

    def __init__(self, boxes, scores, patch_ids, pixel_boxes, rows=None) -> None:
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        self.patch_ids = np.asarray(patch_ids, dtype=object).reshape(-1)
        self.pixel_boxes = np.asarray(pixel_boxes, dtype=np.float64).reshape(-1, 4)
        n = self.scores.shape[0]
        self.rows = np.arange(n, dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp).reshape(-1)

    @classmethod
    def concat(cls, parts: Sequence[DetectionSet]) -> DetectionSet:
        """The rows of a non-empty list of sets, in order."""
        return cls(
            np.concatenate([p.boxes for p in parts]),
            np.concatenate([p.scores for p in parts]),
            np.concatenate([p.patch_ids for p in parts]),
            np.concatenate([p.pixel_boxes for p in parts]),
            np.concatenate([p.rows for p in parts]),
        )

    def take(self, idx) -> DetectionSet:
        """Rows idx, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return DetectionSet(
            self.boxes[idx], self.scores[idx], self.patch_ids[idx], self.pixel_boxes[idx], self.rows[idx]
        )

    def __len__(self) -> int:
        return self.scores.shape[0]

    def diam_km(self) -> np.ndarray:
        """Each box's equivalent diameter in km: the mean of its width and height."""
        return ((self.boxes[:, 2] - self.boxes[:, 0]) + (self.boxes[:, 3] - self.boxes[:, 1])) / 2.0 / 1000.0


_BLOCK = 1 << 12  # candidates that overlap_pairs makes and filters at a time


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[q], starts[q] + 1, ..., starts[q] + counts[q] - 1 for every q, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _candidates(boxes: np.ndarray, n_a: int | None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row pairs (i, j) that include every pair of boxes intersecting with
    positive area, plus some that do not, each pair once in either
    orientation, made in blocks of at most _BLOCK pairs as the iterator
    returned is read. Rows below n_a are a's and the rest b's, and each pair
    joins an a-row and a b-row; n_a None joins every row with every other."""
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
    del quarter, xs, x1_rank, first_strip, n_further  # only the replicas and span reach the joins

    # In a join (p, q, side) each p replica meets the run of q replicas from
    # start on in its strip whose x1 is below its x2. Two joins find the p, q
    # pairs that overlap in x: q.x1 in [p.x1, p.x2) from each p, runs starting
    # at side left, and p.x1 in (q.x1, q.x2) from each q, at side right. Side
    # None is a forward sweep: each box meets the later boxes of its first strip.
    if n_a is None:
        [(first, further)] = sides
        joins = [(first, first, None), (first, further, "left"), (further, first, "right")]
    else:
        (a_first, a_further), (b_first, b_further) = sides
        crossed = ((a_first, b_first), (a_first, b_further), (a_further, b_first))
        joins = [join for p, q in crossed for join in ((p, q, "left"), (q, p, "right"))]

    def blocks():
        """The candidates of the joins, cut into blocks, a long run across several."""
        for (p_box, p_key), (q_box, q_key), side in joins:
            start = np.arange(1, p_box.size + 1) if side is None else np.searchsorted(q_key, p_key, side=side)
            count = np.maximum(np.searchsorted(q_key, p_key + span[p_box]) - start, 0)
            ends = np.cumsum(count)
            offsets = ends - count
            for lo in range(0, int(ends[-1]) if ends.size else 0, _BLOCK):
                r = slice(np.searchsorted(ends, lo, side="right"), np.searchsorted(offsets, lo + _BLOCK))
                begin = np.maximum(offsets[r], lo)  # where each run's part in this block begins
                size = np.minimum(ends[r], lo + _BLOCK) - begin
                yield np.repeat(p_box[r], size), q_box[_ranges(start[r] + begin - offsets[r], size)]

    return blocks()


def overlap_pairs(a, b=None, min_iou: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    A row holding a NaN or an infinite coordinate forms no pair. Only pairs
    whose IOU is not below min_iou are returned: a NaN IOU, which an
    overflowing area gives, is never below it, and min_iou 0 keeps every pair.

    Strip sweep: each box is put in the horizontal strips it meets, and a
    pair is looked for only in the strip holding the lower edge of its
    intersection, by binary search on x1. Strips are as tall as the mean box
    with heights capped at 64 times the median, or taller where that would
    put more than 3 (N + M) boxes in strips. Time grows with N + M and the
    candidates: the pairs, plus the boxes of one strip that overlap in x but
    not in y, which are few while strips are about as tall as most boxes.
    Memory grows with N + M, the pairs kept and one block of candidates.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    boxes = a if b is None else np.concatenate([a, np.asarray(b, dtype=np.float64).reshape(-1, 4)])
    finite = np.isfinite(boxes).all(axis=1)
    n, n_a = int(finite.sum()), None if b is None else int(finite[:a.shape[0]].sum())
    if n < finite.size:
        boxes = boxes[finite]
    kept = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    if n >= 2 and n_a not in (0, n):
        blocks = _candidates(boxes, n_a)  # its set-up, the peak of a sparse join, runs first
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        for i, j in blocks:
            bi, bj = boxes.take(i, axis=0), boxes.take(j, axis=0)
            iw = np.minimum(bi[:, 2], bj[:, 2]) - np.maximum(bi[:, 0], bj[:, 0])
            ih = np.minimum(bi[:, 3], bj[:, 3]) - np.maximum(bi[:, 1], bj[:, 1])
            hit = (iw > 0.0) & (ih > 0.0)
            inter = iw[hit] * ih[hit]
            i, j = i[hit], j[hit]
            iou = inter / (area[i] + area[j] - inter)
            keep = ~(iou < min_iou)  # a NaN IOU is kept
            kept.append((i[keep], j[keep], iou[keep]))
    i, j, iou = (np.concatenate(column) for column in zip(*kept))
    i, j = np.minimum(i, j), np.maximum(i, j)  # an a-row is below every b-row
    if n < finite.size:
        rows = np.flatnonzero(finite)
        i, j = rows[i], rows[j]
    return (i, j, iou) if n_a is None else (i, j - a.shape[0], iou)


def edge_distance(pixel_boxes: np.ndarray, ps_r: int) -> np.ndarray:
    """Each (N, 4) pixel box's distance to its patch boundary, in resized
    pixels on a patch of side ps_r: min(x1, y1, ps_r - x2, ps_r - y2). The
    boundary filter at m keeps the boxes whose distance is above m."""
    x1, y1, x2, y2 = pixel_boxes.T
    return np.minimum(np.minimum(x1, y1), np.minimum(ps_r - x2, ps_r - y2))


def filter_and_globalize(per_patch: PatchDetections, gt: GeoTransform, ps_r: int, m: int) -> DetectionSet:
    """The boundary filter per patch, then globalization: the merged set
    run_pipeline hands to NMS, each survivor's rows entry its row in per_patch.

    A box is kept when all four of its edges lie more than m resized pixels
    inside its patch of side ps_r (edge_distance above m). Each survivor
    maps through the row0, col0 and delta_f of its placement in
    per_patch.placements. Northing decreases with pixel row, so y corners
    swap; boxes are re-normalized to x1 < x2, y1 < y2.
    """
    rows = np.flatnonzero(edge_distance(per_patch.boxes, ps_r) > m)
    offsets = np.array([(p.row0, p.col0, p.delta_f) for p in per_patch.placements], dtype=np.float64)
    row0, col0, delta_f = offsets.reshape(-1, 3)[per_patch.codes[rows]].T
    pixel_boxes = per_patch.boxes[rows]
    px1, py1, px2, py2 = pixel_boxes.T
    x1, y_top = pixel_to_meter_xy(px1, py1, gt, row0, col0, delta_f)
    x2, y_bot = pixel_to_meter_xy(px2, py2, gt, row0, col0, delta_f)
    boxes = np.stack([x1, np.minimum(y_top, y_bot), x2, np.maximum(y_top, y_bot)], axis=1)
    bad = ~((boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3]))
    if bad.any():
        raise PipelineError(f"degenerate global box {tuple(boxes[bad.argmax()].tolist())}")
    return DetectionSet(boxes, per_patch.scores[rows], per_patch.patch_ids[rows], pixel_boxes, rows)


def _rank(boxes: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """np.lexsort((y1, x1, -scores)): rows by score descending, then x1, y1
    and row, from one sort by score and a lexsort of the tied runs alone."""
    order = np.argsort(-scores)
    s = scores[order]
    tied = np.zeros(s.size + 1, dtype=bool)
    tied[1:-1] = s[1:] == s[:-1]  # tied[k]: position k is tied with k - 1
    if tied.any():
        pos = np.flatnonzero(tied[:-1] | tied[1:])  # the positions in a run of equal scores
        sub = order[pos]
        order[pos] = sub[np.lexsort((sub, boxes[sub, 1], boxes[sub, 0], -s[pos]))]
    return order


RankedEdges = namedtuple("RankedEdges", "dets order head tail iou min_iou")
RankedEdges.__doc__ = """The NMS graph of the set dets: its rank order (row
indices of dets, best first), and its pairs at IOU >= min_iou (or NaN) as
rank pairs head < tail with their IOUs."""


def ranked_edges(dets: DetectionSet, min_iou: float) -> RankedEdges:
    """The NMS graph of dets, which nms at any delta >= min_iou can share,
    from one self-join."""
    order = _rank(dets.boxes, dets.scores)
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    i, j, iou = overlap_pairs(dets.boxes, min_iou=min_iou)
    # Each pair comes once; its edge runs from the earlier-ranked box.
    return RankedEdges(dets, order, np.minimum(rank[i], rank[j]), np.maximum(rank[i], rank[j]), iou, min_iou)


def restrict(edges: RankedEdges, keep: np.ndarray) -> RankedEdges:
    """The graph of edges.dets.take(flatnonzero(keep)), keep a boolean mask
    over its rows, without a second self-join: the edges with both ends kept,
    ranks and rows renumbered. It equals ranked_edges of that subset, up to
    the order of the edges: a pair's IOU depends on its two boxes alone, and
    a subset keeps its rank order, since ties break by x1, y1, then row."""
    keep = np.asarray(keep, dtype=bool)
    alive = keep[edges.order]  # by rank
    rank = np.cumsum(alive) - 1  # each kept rank's rank among the kept
    both = alive[edges.head] & alive[edges.tail]
    order = (np.cumsum(keep) - 1)[edges.order[alive]]
    return RankedEdges(edges.dets.take(np.flatnonzero(keep)), order, rank[edges.head[both]],
                       rank[edges.tail[both]], edges.iou[both], edges.min_iou)


def _greedy(edges: RankedEdges, delta: float) -> np.ndarray:
    """Indices greedy NMS at delta > 0 keeps, in selection order (see nms)."""
    n = edges.order.size
    edge = edges.iou >= delta  # not a NaN IOU
    head, tail = edges.head[edge], edges.tail[edge]
    # A head no edge reaches is never suppressed, and what it suppresses is
    # ranked after it, so all such heads act at once; the loop takes the rest.
    reached = np.zeros(n, dtype=bool)
    reached[tail] = True
    free = ~reached[head]
    suppressed = np.zeros(n, dtype=bool)
    suppressed[tail[free]] = True
    head, tail = head[~free], tail[~free]
    by_head = np.argsort(head, kind="stable")
    head, tail = head[by_head], tail[by_head]
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    ends = np.append(starts[1:], head.size)
    # Each box still standing suppresses its later-ranked neighbours, in rank
    # order; a box without later neighbours suppresses nothing.
    for h, lo, hi in zip(head[starts].tolist(), starts.tolist(), ends.tolist()):
        if not suppressed[h]:
            suppressed[tail[lo:hi]] = True
    return edges.order[~suppressed]


def nms(dets: DetectionSet, delta: float | None, edges: RankedEdges | None = None) -> DetectionSet:
    """Greedy highest-score-first suppression at IOU >= delta.

    Score ties break deterministically by smaller x1, then smaller y1, then
    input order, so results do not depend on how the input was assembled.
    Survivors are returned in selection (score-descending) order. delta
    None means no NMS and returns the input unchanged. edges, made by
    ranked_edges(dets, d0) with d0 <= delta, spares the self-join; without
    them nms makes its own at delta.
    """
    if delta is None:
        return dets
    if edges is not None and (edges.order.size != len(dets) or 0.0 < delta < edges.min_iou):
        raise PipelineError(f"edges of {edges.order.size} boxes at IOU >= {edges.min_iou} "
                            f"cannot serve NMS of {len(dets)} boxes at {delta}")
    if delta <= 0.0:
        # IOU >= 0 holds for every pair, disjoint ones included
        return dets.take((_rank(dets.boxes, dets.scores) if edges is None else edges.order)[:1])
    return dets.take(_greedy(ranked_edges(dets, delta) if edges is None else edges, delta))


def run_pipeline(
    per_patch: PatchDetections, gt: GeoTransform, ps_r: int, m: int, delta: float | None,
    edges: RankedEdges | None = None,
) -> DetectionSet:
    """Boundary filter per patch, then globalize, then NMS, in that order:
    nms(filter_and_globalize(per_patch, gt, ps_r, m), delta).

    The rows of per_patch are merged in sorted patch id order, so the merged
    set (and therefore NMS tie-breaking) never depends on the order the
    patches were detected in. Each survivor's rows entry is its row in per_patch.

    edges, a graph whose dets is that merged set (ranked_edges of it, or
    restrict of a graph merged at a smaller m), spares the merge and the
    self-join: edges.dets must hold the rows of per_patch the boundary filter
    keeps at m, with their pixel boxes, or the call fails.
    """
    if edges is None:
        return nms(filter_and_globalize(per_patch, gt, ps_r, m), delta)
    rows = np.flatnonzero(edge_distance(per_patch.boxes, ps_r) > m)
    dets = edges.dets
    if not (np.array_equal(dets.rows, rows) and np.array_equal(dets.pixel_boxes, per_patch.boxes[rows])):
        raise PipelineError(f"edges of {len(dets)} boxes at IOU >= {edges.min_iou} "
                            f"cannot serve NMS of {rows.size} boxes at {delta}")
    return nms(dets, delta, edges)


# ---------------------------------------------------------------------------
# output formats


def write_global_detections(dets: DetectionSet, path: str | Path) -> None:
    """CSV of globalized boxes: meters, score, then provenance columns."""
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
    with open_text(path, DetectionError, "global detections file", newline="") as fh:
        header = next(csv.reader(fh), _GLOBAL_HEADER)
        if header != _GLOBAL_HEADER:
            raise DetectionError(f"{path}:1: expected the header row {','.join(_GLOBAL_HEADER)}")
        linenos, ids, rows, bad = read_columns(fh, [0, 1, 2, 3, 4, 6, 7, 8, 9], 5, width=10, first=2)
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
    x1, y1, x2, y2 = dets.boxes.T
    lon, lat = meter_to_lonlat((x1 + x2) / 2.0, (y1 + y2) / 2.0, gt)
    diam_km = dets.diam_km()
    ids = [f"det#{i}" for i in range(len(diam_km))]
    write_csv(path, ["id", "lon", "lat", "diam_km"], [ids, lon, lat, diam_km])
    side = {"n_detections": len(dets), **provenance}
    Path(str(path) + ".provenance.json").write_text(json.dumps(side, indent=2) + "\n")
