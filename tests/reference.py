"""Independent reference implementations used as test oracles.

These deliberately mirror the documented semantics with different mechanics
(candidate-major loops, scalar arithmetic, pixel counting) so agreement with
the production code is meaningful.
"""

import zlib

import numpy as np


def _iou_scalar(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def quadratic_nms(dets, delta):
    """Candidate-major greedy NMS: walk candidates in score order, keep one
    iff its IOU against every already-kept box is below delta.

    Ties break by smaller x1, then smaller y1, then input order.
    """
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].box[0], dets[i].box[1], i),
    )
    kept = []
    for i in order:
        if all(_iou_scalar(dets[i].box, dets[j].box) < delta for j in kept):
            kept.append(i)
    return [dets[i] for i in kept]


def brute_force_counts(det_boxes, truth_boxes, u):
    """Set-level TP/FP/FN counting via scalar max-IOU loops."""
    tp = 0
    for db in det_boxes:
        best = 0.0
        for tb in truth_boxes:
            best = max(best, _iou_scalar(db, tb))
        if best >= u:
            tp += 1
    fp = len(det_boxes) - tp
    fn_raw = len(truth_boxes) - tp
    return tp, fp, max(0, fn_raw), fn_raw


def brute_force_metrics(det_boxes, truth_boxes, u):
    tp, fp, fn, _ = brute_force_counts(det_boxes, truth_boxes, u)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return tp, fp, fn, p, r, f1


def rasterized_iou(a, b, cells=800):
    """Estimate IOU by painting both boxes on a pixel grid and counting.

    The grid spans the union bounding box; a cell belongs to a box when its
    center does. Accuracy improves with cell count.
    """
    x_lo = min(a[0], b[0])
    y_lo = min(a[1], b[1])
    x_hi = max(a[2], b[2])
    y_hi = max(a[3], b[3])
    xs = np.linspace(x_lo, x_hi, cells, endpoint=False) + (x_hi - x_lo) / (2 * cells)
    ys = np.linspace(y_lo, y_hi, cells, endpoint=False) + (y_hi - y_lo) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)

    def mask(box):
        return (gx >= box[0]) & (gx < box[2]) & (gy >= box[1]) & (gy < box[3])

    ma = mask(a)
    mb = mask(b)
    inter = np.count_nonzero(ma & mb)
    union = np.count_nonzero(ma | mb)
    return inter / union if union else 0.0


def synthetic_detect_scalar(truth_boxes, gt, noise, patch):
    """The synthetic oracle as a scalar loop over every truth box.

    Tests each box against the patch window one at a time and draws the
    noise candidate by candidate, in catalog order. Returns
    (patch_id, box, score) tuples in emission order.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([noise.seed & 0xFFFFFFFF, zlib.crc32(patch.patch_id.encode("utf-8"))])
    )
    s = gt.resolution
    ps_a, ps_r, df = patch.spec.ps_a, patch.spec.ps_r, patch.delta_f
    x_lo, x_hi = gt.x_min + patch.col0 * s, gt.x_min + (patch.col0 + ps_a) * s
    y_hi, y_lo = gt.y_max - patch.row0 * s, gt.y_max - (patch.row0 + ps_a) * s

    def to_pixel(x, y):
        return ((x - gt.x_min) / s - patch.col0) / df, ((gt.y_max - y) / s - patch.row0) / df

    def clipped(cx, cy, half, score):
        x1, y1 = max(cx - half, 0.0), max(cy - half, 0.0)
        x2, y2 = min(cx + half, float(ps_r)), min(cy + half, float(ps_r))
        if x1 >= x2 or y1 >= y2:
            return None
        return patch.patch_id, (float(x1), float(y1), float(x2), float(y2)), float(score)

    out = []
    for bx1, by1, bx2, by2 in truth_boxes:
        if bx1 >= x_hi or bx2 <= x_lo or by1 >= y_hi or by2 <= y_lo:
            continue
        missed = rng.random() < noise.miss_rate
        jx = rng.normal(0.0, noise.center_jitter_px)
        jy = rng.normal(0.0, noise.center_jitter_px)
        jr = rng.normal(0.0, noise.radius_jitter_frac)
        score = rng.uniform(0.7, 1.0)
        if missed:
            continue
        px1, py1 = to_pixel(bx1, by2)
        px2, py2 = to_pixel(bx2, by1)
        half = max((px2 - px1) / 2.0 * (1.0 + jr), 0.25)
        det = clipped((px1 + px2) / 2.0 + jx, (py1 + py2) / 2.0 + jy, half, score)
        if det is not None:
            out.append(det)
    for _ in range(rng.poisson(noise.false_positive_rate)):
        r = rng.uniform(*noise.fp_radius_px)
        cx = rng.uniform(0.0, ps_r)
        cy = rng.uniform(0.0, ps_r)
        det = clipped(cx, cy, r, rng.uniform(0.3, 0.9))
        if det is not None:
            out.append(det)
    return out
