"""Independent reference implementations used as test oracles.

These deliberately mirror the documented semantics with different mechanics
(candidate-major loops, scalar arithmetic, pixel counting) so agreement with
the production code is meaningful.
"""

import math
import zlib
from typing import NamedTuple

import numpy as np


def iou(a, b):
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 when they
    share no area. The scalar reference for overlap_pairs' IOU."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def iou_matrix(a, b):
    """Pairwise IOU between (N, 4) and (M, 4) box arrays, dense.

    Memory grows with N x M. postprocess.overlap_pairs computes each
    overlapping pair's IOU with the same operations, so scattering its pairs
    into a zero N x M array reproduces this matrix bit for bit.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def quadratic_nms(boxes, scores, delta):
    """Candidate-major greedy NMS: walk candidates in score order, keep one
    iff its IOU against every already-kept box is below delta. Returns the
    kept row indices in selection order.

    Ties break by smaller x1, then smaller y1, then input order.
    """
    boxes, scores = [tuple(map(float, b)) for b in boxes], [float(s) for s in scores]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], boxes[i][0], boxes[i][1], i))
    kept = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) < delta for j in kept):
            kept.append(i)
    return kept


class Row(NamedTuple):
    """One globalized detection of the scalar reference pipeline."""

    box: tuple
    score: float
    patch_id: str
    pixel_box: tuple


def scalar_pipeline(per_patch, patch_index, gt, ps_r, m, delta):
    """Boundary filter, globalization and NMS, one detection at a time.

    per_patch maps patch id -> [(box, score), ...]; rows are taken in sorted
    patch id order. A box survives the filter iff min(x1, y1, ps_r - x2,
    ps_r - y2) exceeds m. Globalization uses the operation order of
    geo.pixel_to_meter_xy (x_min + (col0 + x * delta_f) * resolution, and
    y_max minus the same in y), swapping the y corners. delta None skips
    NMS; otherwise quadratic_nms runs at delta.
    """
    rows = []
    for patch_id in sorted(per_patch):
        row0, col0, delta_f = patch_index[patch_id]
        for box, score in per_patch[patch_id]:
            x1, y1, x2, y2 = (float(v) for v in box)
            if min(x1, y1, ps_r - x2, ps_r - y2) <= m:
                continue
            mx1 = gt.x_min + (col0 + x1 * delta_f) * gt.resolution
            mx2 = gt.x_min + (col0 + x2 * delta_f) * gt.resolution
            y_top = gt.y_max - (row0 + y1 * delta_f) * gt.resolution
            y_bot = gt.y_max - (row0 + y2 * delta_f) * gt.resolution
            rows.append(Row((mx1, min(y_top, y_bot), mx2, max(y_top, y_bot)), score, patch_id, (x1, y1, x2, y2)))
    if delta is None:
        return rows
    return [rows[i] for i in quadratic_nms([r.box for r in rows], [r.score for r in rows], delta)]


def group_by_patch(patch_ids, outputs):
    """The rows of per-patch detector outputs, one (boxes, scores) pair per
    patch id, as (patch_id, box, score) tuples: patches in sorted id order,
    each patch's rows in its own order."""
    rows = []
    for patch_id in sorted(patch_ids):
        boxes, scores = outputs[patch_ids.index(patch_id)]
        for box, score in zip(boxes, scores):
            rows.append((patch_id, tuple(float(v) for v in box), float(score)))
    return rows


def row_invariant_error(patch_id, box, score):
    """The message of the first detection invariant a pixel box and score
    break, checked one at a time: degenerate, negative, score, non-finite;
    None for a valid row."""
    box, score = tuple(float(v) for v in box), float(score)
    x1, y1, x2, y2 = box
    if not (x1 < x2 and y1 < y2):
        return f"degenerate box {box} in patch {patch_id}"
    if x1 < 0 or y1 < 0:
        return f"negative coordinates in box {box}"
    if not 0.0 <= score <= 1.0:
        return f"score {score} outside [0, 1]"
    if not all(map(math.isfinite, box)):
        return f"non-finite coordinates in box {box}"
    return None


def brute_force_counts(det_boxes, truth_boxes, u):
    """Set-level TP/FP/FN counting via scalar max-IOU loops."""
    tp = 0
    for db in det_boxes:
        best = 0.0
        for tb in truth_boxes:
            best = max(best, iou(db, tb))
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


def grid_search_cells(per_patch, patch_index, gt, truth_boxes, ps_r, m_set, deltas, u,
                      size_floor_km=None, size_ceiling_km=None):
    """Every (m, delta) cell of a grid search, each on its own.

    Each cell runs scalar_pipeline, keeps the boxes whose mean side in km
    lies in [size_floor_km, size_ceiling_km), and counts them with
    brute_force_counts. Returns one (m, delta, tp, fp, fn, fn_raw,
    precision, recall, f1) tuple per cell, m-major, and the index of the
    best cell: highest F1, then larger m, then smaller delta with None
    after every number, then the earliest cell.
    """
    cells = []
    for m in m_set:
        for delta in deltas:
            gated = []
            for row in scalar_pipeline(per_patch, patch_index, gt, ps_r, m, delta):
                x1, y1, x2, y2 = row.box
                diam_km = ((x2 - x1) + (y2 - y1)) / 2.0 / 1000.0
                if size_floor_km is not None and diam_km < size_floor_km:
                    continue
                if size_ceiling_km is not None and diam_km >= size_ceiling_km:
                    continue
                gated.append(row.box)
            tp, fp, fn, fn_raw = brute_force_counts(gated, truth_boxes, u)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2.0 * p * r / (p + r) if tp + fp and tp + fn and p + r else 0.0
            cells.append((m, delta, tp, fp, fn, fn_raw, p, r, f1))

    def worse(k):
        m, delta, f1 = cells[k][0], cells[k][1], cells[k][8]
        return (-f1, -m, math.inf if delta is None else delta, k)

    return cells, min(range(len(cells)), key=worse)


def bilinear_whole(grid, out_w, out_h, target_resolution):
    """raster._bilinear's values built over the whole grid at once: four
    full-size corner gathers in float64, then one expression."""
    valid = grid.valid_mask()
    s_in = grid.geotransform.resolution
    s_out = target_resolution

    def axis_samples(n_out, n_in):
        pos = (np.arange(n_out) + 0.5) * s_out / s_in - 0.5
        i0 = np.floor(pos).astype(np.int64)
        frac = pos - i0
        return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), frac

    c0, c1, fx = axis_samples(out_w, grid.width)
    r0, r1, fy = axis_samples(out_h, grid.height)
    v = np.asarray(grid.values, dtype=np.float64)
    v00, v01 = v[np.ix_(r0, c0)], v[np.ix_(r0, c1)]
    v10, v11 = v[np.ix_(r1, c0)], v[np.ix_(r1, c1)]
    wx1, wy1 = fx[np.newaxis, :], fy[:, np.newaxis]
    out = (1.0 - wy1) * ((1.0 - wx1) * v00 + wx1 * v01) + wy1 * ((1.0 - wx1) * v10 + wx1 * v11)
    if grid.nodata is not None:
        bad, eps = ~valid, 1e-12
        poisoned = (
            (bad[np.ix_(r0, c0)] & ((1.0 - wy1) * (1.0 - wx1) > eps))
            | (bad[np.ix_(r0, c1)] & ((1.0 - wy1) * wx1 > eps))
            | (bad[np.ix_(r1, c0)] & (wy1 * (1.0 - wx1) > eps))
            | (bad[np.ix_(r1, c1)] & (wy1 * wx1 > eps))
        )
        out[poisoned] = grid.nodata
    return out


def slope_whole(dem):
    """raster._slope's values built over the whole grid at once: the
    elevation edge-padded by one cell in float64, then the 3x3 stencil and
    the 3x3 nodata window on full-size arrays."""
    s = dem.geotransform.resolution
    z = np.pad(np.asarray(dem.values, dtype=np.float64), 1, mode="edge")
    nw, n, ne = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
    w_, e_ = z[1:-1, :-2], z[1:-1, 2:]
    sw, s_, se = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]
    gx = ((ne + 2.0 * e_ + se) - (nw + 2.0 * w_ + sw)) / (8.0 * s)
    gy = ((sw + 2.0 * s_ + se) - (nw + 2.0 * n + ne)) / (8.0 * s)
    slope = np.degrees(np.arctan(np.hypot(gx, gy)))
    if dem.nodata is not None:
        valid = np.pad(dem.valid_mask(), 1, mode="edge")
        ok = np.ones(slope.shape, dtype=bool)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                ok &= valid[dr : dr + slope.shape[0], dc : dc + slope.shape[1]]
        slope[~ok] = dem.nodata
    return slope


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


def load_catalog_rows(path, mapping, cat_name):
    """The row-by-row catalog loader: one csv row at a time, each read as
    csv.DictReader reads it.

    Returns ([(id, lon, lat, diam_km), ...], n_rejected), or None for a file
    without a header row, and raises CatalogError as catalog.load_catalog
    does: for the first malformed row, by its row number (the header is row
    1, and blank rows count), then for a duplicate id.
    """
    import csv
    from itertools import zip_longest

    from craterpipe.errors import CatalogError

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        fieldnames = next(reader, None)
        if fieldnames is None:
            return None
        missing = [col for col in (mapping["lon"], mapping["lat"], mapping["diam_km"])
                   if col not in fieldnames]
        if missing:
            raise CatalogError(f"{path}: missing columns: {', '.join(missing)}")
        id_col = mapping.get("id")
        if id_col is not None and id_col not in fieldnames:
            id_col = None
        rows, n_rows, n_rejected = [], 0, 0
        for rownum, fields in enumerate(reader, start=2):
            if not fields:
                continue
            n_rows += 1
            # DictReader's dict: a short row's missing fields read None, a repeated name its last column
            row = dict(zip_longest(fieldnames, fields[:len(fieldnames)]))
            try:
                lon = float(row[mapping["lon"]])
                lat = float(row[mapping["lat"]])
                diam = float(row[mapping["diam_km"]])
            except (TypeError, ValueError) as exc:
                raise CatalogError(f"{path}:{rownum}: non-numeric field ({exc})") from None
            radius_finite = math.isfinite(diam * 500.0)
            if not (diam > 0 and -90.0 <= lat <= 90.0 and math.isfinite(lon) and radius_finite):
                n_rejected += 1
                continue
            cid = row[id_col] if id_col is not None else f"{cat_name}#{n_rows}"
            rows.append((cid, lon, lat, diam))
    seen = set()
    for cid, *_ in rows:
        if cid in seen:
            raise CatalogError(f"{path}: catalog {cat_name!r} has duplicate crater id {cid!r}")
        seen.add(cid)
    return rows, n_rejected


def select_rows(rows, gt, region, dmin_km, dmax_km):
    """The row-by-row truth selection, one (id, lon, lat, diam_km) row at a
    time: a row is kept when its lon is in [lon_min, lon_max) and its lat in
    [lat_min, lat_max) of region (None for all), its diameter in
    [dmin_km, dmax_km) (a None bound unbounded), and its box
    (x - r, y - r, x + r, y + r) and that box's area are finite floats.

    Returns (kept rows, their boxes, n_overflowed): a row inside region and
    the size range whose box or area is not finite is counted, not kept.
    """
    from craterpipe.geo import lonlat_to_meter

    kept, boxes, n_overflowed = [], [], 0
    for cid, lon, lat, diam in rows:
        if region is not None:
            lon_min, lon_max, lat_min, lat_max = region
            if not (lon_min <= lon < lon_max and lat_min <= lat < lat_max):
                continue
        if (dmin_km is not None and not dmin_km <= diam) or (dmax_km is not None and not diam < dmax_km):
            continue
        x, y = lonlat_to_meter(float(lon), float(lat), gt)
        r = float(diam) * 500.0
        box = (x - r, y - r, x + r, y + r)
        if not all(math.isfinite(v) for v in (*box, (box[2] - box[0]) * (box[3] - box[1]))):
            n_overflowed += 1
            continue
        kept.append((cid, lon, lat, diam))
        boxes.append(box)
    return kept, boxes, n_overflowed


def load_detection_rows(path, patch_ids, ps_r, score_floor=None):
    """The row-by-row detection record loader.

    Parses line by line up to the first line with a wrong field count or a
    non-numeric value, then checks the parsed records in order; the first
    record failing the detection invariants, the ps_r bound or naming a
    patch id not in patch_ids is reported ahead of the parse error. Returns
    [(patch_id, box, score), ...] in file order, records scoring below
    score_floor dropped.
    """
    from craterpipe.errors import DetectionError

    parsed, parse_error = [], None
    with open(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 6:
            parse_error = DetectionError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            break
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            parse_error = DetectionError(f"{path}:{lineno}: non-numeric field ({exc})")
            break
        parsed.append((lineno, parts[0].strip(), tuple(values[:4]), values[4]))
    out = []
    for lineno, patch_id, box, score in parsed:
        error = row_invariant_error(patch_id, box, score)
        if error is not None:
            raise DetectionError(f"{path}:{lineno}: {error}")
        if box[2] > ps_r or box[3] > ps_r:
            raise DetectionError(f"{path}:{lineno}: box exceeds patch side {ps_r}")
        if patch_id not in patch_ids:
            raise DetectionError(f"{path}:{lineno}: unknown patch id {patch_id!r}")
        if score_floor is None or not score < score_floor:
            out.append((patch_id, box, score))
    if parse_error is not None:
        raise parse_error
    return out


def slope_in_range(values, nodata):
    """The whole-grid slope range check: every valid value lies in [0, 90].

    Valid follows RasterGrid.valid_mask; min and max propagate NaN, and NaN
    fails both tests.
    """
    values = np.asarray(values)
    if nodata is None:
        valid = np.ones(values.shape, dtype=bool)
    elif np.isnan(nodata):
        valid = ~np.isnan(values)
    else:
        valid = values != nodata
    v = values[valid]
    return v.size == 0 or bool(v.min() >= 0.0 and v.max() <= 90.0)


def box_weights(n, out):
    """raster._box_weights as a loop: row j of the (out, n) weights spreads
    [j * f, (j + 1) * f), f = n / out, over the input cells it covers."""
    f = n / out
    w = np.zeros((out, n))
    for j in range(out):
        lo = j * f
        hi = lo + f
        for i in range(int(math.floor(lo)), min(int(math.ceil(hi)), n)):
            w[j, i] = min(hi, i + 1.0) - max(lo, float(i))
    return w / f


def area_average(window, out_side):
    """raster._area_average with one branch per case: the window itself when
    no downsampling is needed, block means for an integer factor, else the
    loop's box weights."""
    n = window.shape[0]
    if n == out_side:
        return np.asarray(window, dtype=np.float64)
    if n % out_side == 0:
        f = n // out_side
        return window.reshape(out_side, f, out_side, f).mean(axis=(1, 3))
    w = box_weights(n, out_side)
    return w @ np.asarray(window, dtype=np.float64) @ w.T


def tile_reference(intensity, elevation, slope, spec, scale_mode="patch"):
    """raster.tile as a per-patch, per-channel loop: every channel cuts,
    scales and averages its own grid, reading whole-grid valid masks and, in
    mosaic mode, a whole-grid min and max per channel, even when one grid
    fills several channels."""
    from craterpipe.raster import FusedPatch, _byte_scale, patch_placements

    grids = [intensity, elevation, slope]
    masks = [g.valid_mask() for g in grids]
    ranges = []
    for grid, mask in zip(grids, masks):
        v = np.asarray(grid.values, dtype=np.float64)[mask]
        ranges.append((float(v.min()), float(v.max())) if scale_mode == "mosaic" and v.size else None)
    patches = []
    for p in patch_placements(intensity.width, intensity.height, spec):
        r0, c0 = p.row0, p.col0
        channels = np.empty((3, spec.ps_r, spec.ps_r), dtype=np.uint8)
        for k, grid in enumerate(grids):
            win = grid.values[r0 : r0 + spec.ps_a, c0 : c0 + spec.ps_a]
            ok = masks[k][r0 : r0 + spec.ps_a, c0 : c0 + spec.ps_a]
            byte = _byte_scale(win, ok, bounds=ranges[k])
            channels[k] = np.rint(area_average(byte, spec.ps_r)).astype(np.uint8)
        patches.append(FusedPatch(p.patch_id, r0, c0, spec, channels))
    return patches


def config_from_reference(raw, base_dir):
    """config._config_from as it read a config before its key tables: each
    key read field by field with its own default and error label. The oracle
    of the table reader; it raises KeyError, AttributeError, TypeError,
    ValueError or a PipelineError for a config it refuses, and leaves
    validate() to the caller. Unknown keys are ignored, and a number given
    as a JSON string is refused."""
    from craterpipe.config import BandConfig, CatalogConfig, DetectorConfig, GridConfig, PipelineConfig
    from craterpipe.detector import NoiseConfig
    from craterpipe.errors import GeoError
    from craterpipe.evaluate import EvalConfig
    from craterpipe.geo import GeoTransform

    def _float(value, key):
        if isinstance(value, (bool, str)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        if not math.isfinite(number := float(value)):
            raise ValueError(f"{key} must be finite, got {number}")
        return number

    def _opt_float(d, key):
        v = d.get(key)
        return None if v is None else _float(v, key)

    def _int(value, key):
        if isinstance(value, (bool, str)) or isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)

    def _str(value, key, null=True):
        if not (isinstance(value, str) or null and value is None):
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value

    def _bool(value, key):
        if not isinstance(value, bool):
            raise ValueError(f"{key} must be true or false, got {value!r}")
        return value

    def _noise_from(d, seed):
        lo, hi = (_float(v, "fp_radius_px") for v in d.get("fp_radius_px", NoiseConfig.fp_radius_px))
        rates = ("center_jitter_px", "radius_jitter_frac", "false_positive_rate", "miss_rate")
        return NoiseConfig(
            **{k: _float(d.get(k, getattr(NoiseConfig, k)), k) for k in rates},
            seed=seed,
            fp_radius_px=(lo, hi),
        )

    def _catalog_from(d, key):
        if d is None:
            return None
        schema = d.get("schema", CatalogConfig.schema)
        if not isinstance(schema, (str, dict)):
            raise ValueError(f"{key}.schema must be a preset name or a column mapping, got {schema!r}")
        region = d.get("region")
        if region and len(region) != 4:
            raise ValueError(f"region must hold 4 numbers (lon_min, lon_max, lat_min, lat_max), got {region!r}")
        return CatalogConfig(
            path=_str(d["path"], f"{key}.path", null=False),
            schema=schema,
            region=tuple(_float(v, "region") for v in region) if region else None,
            dmin_km=_opt_float(d, "dmin_km"),
            dmax_km=_opt_float(d, "dmax_km"),
        )

    seed = _int(raw.get("seed", PipelineConfig.seed), "seed")
    rasters = raw.get("rasters", {})

    det_raw = raw.get("detector", {})
    detector = DetectorConfig(
        kind=_str(det_raw.get("kind", DetectorConfig.kind), "detector.kind"),
        noise=_noise_from(det_raw.get("noise", {}), seed),
        path=_str(det_raw.get("path"), "detector.path"),
        score_floor=_opt_float(det_raw, "score_floor"),
    )

    bands = tuple(
        BandConfig(
            name=_str(b.get("name", f"band{i}"), "bands.name", null=False),
            ps_a=_int(b["ps_a"], "ps_a"),
            ps_r=_int(b["ps_r"], "ps_r"),
            overlap=_float(b.get("overlap", BandConfig.overlap), "overlap"),
            dmin_km=_float(b.get("dmin_km", BandConfig.dmin_km), "dmin_km"),
            dmax_km=_opt_float(b, "dmax_km"),
        )
        for i, b in enumerate(raw.get("bands", []))
    )

    gt_raw = raw.get("geotransform")
    gt_keys = ("x_min", "y_max", "resolution", "body_radius")
    try:
        geotransform = GeoTransform(*(_float(gt_raw[k], f"geotransform.{k}") for k in gt_keys)) if gt_raw else None
    except GeoError as exc:
        raise ValueError(f"geotransform.{exc}") from exc

    nms_raw = raw.get("nms", {})
    eval_raw = raw.get("eval", {})
    grid_raw = raw.get("grid", {})

    return PipelineConfig(
        seed=seed,
        workers=_int(raw.get("workers", PipelineConfig.workers), "workers"),
        out_dir=_str(raw.get("out_dir", PipelineConfig.out_dir), "out_dir", null=False),
        scale_mode=_str(raw.get("scale_mode", PipelineConfig.scale_mode), "scale_mode"),
        intensity_path=_str(rasters.get("intensity"), "rasters.intensity"),
        elevation_path=_str(rasters.get("elevation"), "rasters.elevation"),
        slope_path=_str(rasters.get("slope"), "rasters.slope"),
        single_band_path=_str(rasters.get("single_band"), "rasters.single_band"),
        bands=bands,
        detector=detector,
        truth_catalog=_catalog_from(raw.get("truth_catalog"), "truth_catalog"),
        verify_catalog=_catalog_from(raw.get("verify_catalog"), "verify_catalog"),
        geotransform=geotransform,
        boundary_m=_int(raw.get("boundary_m", PipelineConfig.boundary_m), "boundary_m"),
        nms_delta=_float(nms_raw.get("delta", PipelineConfig.nms_delta), "nms.delta"),
        nms_enabled=_bool(nms_raw.get("enabled", PipelineConfig.nms_enabled), "nms.enabled"),
        eval=EvalConfig(
            u=_float(eval_raw.get("u", EvalConfig.u), "eval.u"),
            size_floor_km=_opt_float(eval_raw, "size_floor_km"),
            size_ceiling_km=_opt_float(eval_raw, "size_ceiling_km"),
        ),
        grid=GridConfig(
            m_set=tuple(_int(v, "grid.m_set") for v in grid_raw.get("m_set", GridConfig.m_set)),
            delta_set=tuple(_float(v, "grid.delta_set") for v in grid_raw.get("delta_set", GridConfig.delta_set)),
            include_no_nms=_bool(grid_raw.get("include_no_nms", GridConfig.include_no_nms), "grid.include_no_nms"),
        ),
        base_dir=str(base_dir),
    )
