"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from craterpipe.catalog import Catalog, to_boxes
from craterpipe.cli import main
from craterpipe.detector import NoiseConfig, SyntheticDetector
from craterpipe.evaluate import (
    EvalConfig,
    cross_verify,
    grid_search,
    match_and_count,
    metrics_from_counts,
)
from craterpipe.geo import GeoTransform, meter_to_lonlat, meter_to_pixel_xy, pixel_to_meter_xy
from craterpipe.postprocess import nms, run_pipeline
from craterpipe.raster import PatchSpec, RasterGrid, compute_slope, tile
from craterpipe.runner import detect_patches

from conftest import LUNAR_RADIUS, global_set, pair_iou, planar_dem
from gridfix import build_grid_fixture
from reference import brute_force_counts, quadratic_nms, rasterized_iou
from scene import plant_craters, write_scene


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# 1. end-to-end oracle


def test_acceptance_01_end_to_end_oracle():
    t_start = time.perf_counter()
    n = 4096
    s = 100.0
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=s, body_radius=LUNAR_RADIUS)

    # 200 non-overlapping craters, 5-20 km, each interior to >= 1 patch with
    # margin beyond the boundary filter (jittered 15x15 grid placement)
    rng = np.random.default_rng(2024)
    cell = n / 15.0
    cells = [(r, c) for r in range(15) for c in range(15)]
    rng.shuffle(cells)
    craters = []
    for r, c in cells[:200]:
        diam_km = rng.uniform(5.0, 20.0)
        radius_px = diam_km * 1000.0 / 2.0 / s
        room = cell / 2.0 - radius_px - 24.0
        assert room > 0
        cx = (c + 0.5) * cell + rng.uniform(-room, room)
        cy = (r + 0.5) * cell + rng.uniform(-room, room)
        craters.append((cx * s, -cy * s, diam_km * 500.0))

    x, y, radius = np.array(craters).T
    lon, lat = meter_to_lonlat(x, y, gt)
    truth = Catalog("planted", [f"c{i}" for i in range(len(craters))], lon, lat, 2.0 * radius / 1000.0)

    yy, xx = np.meshgrid(np.arange(n, dtype=np.float32), np.arange(n, dtype=np.float32), indexing="ij")
    intensity = RasterGrid(n, n, "intensity", (xx * 3 + yy) % 199.0, gt)
    elevation = RasterGrid(n, n, "elevation", 800.0 * np.sin(xx / 97.0) + 500.0 * np.cos(yy / 61.0), gt)
    slope = compute_slope(elevation)

    patches = tile(intensity, elevation, slope, PatchSpec(1024, 512, 0.5))
    assert len(patches) == 49
    boxes = to_boxes(truth, gt)
    detector = SyntheticDetector(boxes, gt, NoiseConfig(seed=1))
    per_patch = detect_patches(patches, detector, workers=1)
    survivors = run_pipeline(per_patch, gt, 512, 10, 0.2)
    metrics = match_and_count(survivors, boxes, EvalConfig(u=0.3))

    elapsed = time.perf_counter() - t_start
    assert metrics.tp == 200
    assert metrics.fp == 0
    assert metrics.fn == 0
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    _report(1, f"end-to-end oracle (P=R=1.0 on 200 craters in {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. NMS equivalence against the quadratic reference


def _random_global_dets(rng, count=1000):
    n_base = count * 3 // 10
    base = []
    for _ in range(n_base):
        x, y = rng.uniform(0, 1000, size=2)
        w = rng.uniform(20, 120)
        h = rng.uniform(20, 120)
        base.append((x, y, x + w, y + h))
    boxes = list(base)
    while len(boxes) < count:
        bx = base[int(rng.integers(0, n_base))]
        dx, dy = rng.normal(0, 15, size=2)
        scale = rng.uniform(0.8, 1.25)
        w = (bx[2] - bx[0]) * scale
        h = (bx[3] - bx[1]) * scale
        boxes.append((bx[0] + dx, bx[1] + dy, bx[0] + dx + w, bx[1] + dy + h))
    scores = [float(rng.uniform(0, 1)) for _ in boxes]
    return np.array(boxes), np.array(scores)


def test_acceptance_02_nms_matches_quadratic_reference():
    deltas = (0.1, 0.2, 0.3, 0.4, 0.5)
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        boxes, scores = _random_global_dets(rng, 1000)
        if seed % 2 == 0:  # force score ties on half the seeds
            scores = np.array([round(s, 2) for s in scores.tolist()])
        delta = deltas[seed % 5]
        fast = nms(global_set(boxes, scores, [f"p{i}" for i in range(len(scores))]), delta)
        slow = quadratic_nms(boxes, scores, delta)
        if fast.patch_ids.tolist() != [f"p{i}" for i in slow]:
            mismatches += 1
    assert mismatches == 0
    _report(2, "NMS equals quadratic reference on 100 seeds x 1000 boxes")


# ---------------------------------------------------------------------------
# 3. IOU against pixel rasterization


def test_acceptance_03_iou_vs_rasterization():
    assert pair_iou((0, 0, 10, 10), (5, 5, 15, 15)) == 1.0 / 7.0
    rng = np.random.default_rng(303)
    for _ in range(500):
        side = rng.uniform(10.0, 20.0)
        x, y = rng.uniform(5.0, 25.0, size=2)
        dx, dy = rng.uniform(-0.3, 0.3, size=2) * side
        scale = rng.uniform(0.85, 1.15)
        a = (x, y, x + side, y + side)
        b = (x + dx, y + dy, x + dx + side * scale, y + dy + side * scale)
        analytic = pair_iou(a, b)
        raster = rasterized_iou(a, b, cells=800)
        assert abs(analytic - raster) <= 0.02 * raster, (a, b, analytic, raster)
    _report(3, "analytic IOU within 2% of rasterization on 500 pairs, exact 1/7 hand case")


# ---------------------------------------------------------------------------
# 4. coordinate round trip


def test_acceptance_04_round_trip_precision():
    rng = np.random.default_rng(404)
    gt = GeoTransform(x_min=-5_458_123.0, y_max=1_819_407.0, resolution=100.0, body_radius=LUNAR_RADIUS)
    worst = 0.0
    for delta_f in (1.0, 2.0, 8.0):
        for _ in range(3334):
            x = float(rng.uniform(0, 512))
            y = float(rng.uniform(0, 512))
            r = float(rng.uniform(0.01, 256))
            row0 = int(rng.integers(0, 72000))
            col0 = int(rng.integers(0, 72000))
            # both box corners, (x - r, y - r) and (x + r, y + r)
            xs, ys = np.array([x - r, x + r]), np.array([y - r, y + r])
            x_m, y_m = pixel_to_meter_xy(xs, ys, gt, row0, col0, delta_f)
            back_x, back_y = meter_to_pixel_xy(x_m, y_m, gt, row0, col0, delta_f)
            worst = max(worst, float(np.abs(back_x - xs).max()), float(np.abs(back_y - ys).max()))
    assert worst < 1e-6, f"worst round-trip error {worst:.2e} px"
    _report(4, f"pixel/meter box-corner round trip, worst error {worst:.2e} px over 10^4 samples")


# ---------------------------------------------------------------------------
# 5. slope accuracy


def test_acceptance_05_slope_accuracy():
    sloped = compute_slope(planar_dem(32, gx=0.5))
    interior = sloped.values[1:-1, 1:-1]
    assert np.all(np.abs(interior - math.degrees(math.atan(0.5))) <= 0.01)
    flat = compute_slope(planar_dem(32))
    assert np.all(flat.values == 0.0)
    _report(5, "planar slope 26.565 deg within 0.01, flat exactly 0")


# ---------------------------------------------------------------------------
# 6 & 7. trend reproduction and grid-search fidelity on the built fixture


@pytest.fixture(scope="module")
def fixture_and_search():
    f = build_grid_fixture()
    result = grid_search(
        f.per_patch,
        f.gt,
        f.truth_boxes,
        f.ps_r,
        (0, 1, 5, 10),
        (0.1, 0.2, 0.3, 0.4, 0.5),
        EvalConfig(u=0.3),
        include_no_nms=True,
    )
    return f, result


def test_acceptance_06_trend_reproduction(fixture_and_search):
    _, result = fixture_and_search
    cells = {(c.m, c.delta): c.report for c in result.cells}
    f1_along_m = [cells[(m, 0.2)].f1 for m in (0, 1, 5, 10)]
    assert all(b > a for a, b in zip(f1_along_m, f1_along_m[1:])), f1_along_m
    p_no_nms = cells[(10, None)].precision
    p_best = cells[(10, 0.2)].precision
    assert p_no_nms < 0.5 * p_best, (p_no_nms, p_best)
    _report(
        6,
        f"F1 strictly rises along m {['%.3f' % v for v in f1_along_m]}; "
        f"no-NMS precision {p_no_nms:.3f} < half of {p_best:.3f}",
    )


def _reference_cell(fixture, m, delta, u=0.3):
    """Independent pipeline: scalar boundary filter + globalization, the
    candidate-major quadratic NMS, and scalar counting."""
    gt = fixture.gt
    merged_boxes, merged_scores = [], []
    for patch_id in sorted(fixture.rows):
        row0, col0, df = fixture.patch_index[patch_id]
        for (px1, py1, px2, py2), score in fixture.rows[patch_id]:
            if min(px1, py1, fixture.ps_r - px2, fixture.ps_r - py2) <= m:
                continue
            x1 = gt.x_min + (col0 + px1 * df) * gt.resolution
            x2 = gt.x_min + (col0 + px2 * df) * gt.resolution
            y2 = gt.y_max - (row0 + py1 * df) * gt.resolution
            y1 = gt.y_max - (row0 + py2 * df) * gt.resolution
            merged_boxes.append((x1, y1, x2, y2))
            merged_scores.append(score)
    kept = range(len(merged_boxes)) if delta is None else quadratic_nms(merged_boxes, merged_scores, delta)
    tp, fp, fn, fn_raw = brute_force_counts(
        [merged_boxes[i] for i in kept], [tuple(t) for t in fixture.truth_boxes], u
    )
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return tp, fp, fn, p, r, f1


def test_acceptance_07_grid_search_fidelity(fixture_and_search):
    fixture, result = fixture_and_search
    assert (result.best_m, result.best_delta) == (10, 0.2)
    best = [c for c in result.cells if (c.m, c.delta) == (10, 0.2)][0]
    assert best.report.precision == 1.0 and best.report.recall == 1.0

    assert len(result.cells) == 4 * 6
    for cell in result.cells:
        tp, fp, fn, p, r, f1 = _reference_cell(fixture, cell.m, cell.delta)
        got = cell.report
        assert (got.tp, got.fp, got.fn) == (tp, fp, fn), (cell.m, cell.delta)
        assert got.precision == p and got.recall == r and got.f1 == f1, (cell.m, cell.delta)
    best_f1 = max(c.report.f1 for c in result.cells)
    assert best.report.f1 == best_f1
    _report(7, "grid search returns (m=10, delta=0.2); all 24 cells match re-evaluation")


# ---------------------------------------------------------------------------
# 8. metrics formulas


def test_acceptance_08_metrics_formulas():
    rng = np.random.default_rng(808)
    for _ in range(50):
        tp = int(rng.integers(0, 500))
        fp = int(rng.integers(0, 500))
        fn = int(rng.integers(0, 500))
        rep = metrics_from_counts(tp, fp, fn, u=0.3, n_detections=tp + fp, n_truth=tp + fn)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert abs(rep.precision - p) <= 1e-12
        assert abs(rep.recall - r) <= 1e-12
        assert abs(rep.f1 - f1) <= 1e-12
    empty_p = metrics_from_counts(0, 0, 3, u=0.3, n_detections=0, n_truth=3)
    assert not empty_p.precision_defined and empty_p.precision == 0.0
    empty_r = metrics_from_counts(0, 3, 0, u=0.3, n_detections=3, n_truth=0)
    assert not empty_r.recall_defined and empty_r.recall == 0.0
    assert not empty_r.f1_defined
    _report(8, "P/R/F1 match their formulas to 1e-12 on 50 triples; empty denominators flagged")


# ---------------------------------------------------------------------------
# 9. worker-count determinism through the CLI


def test_acceptance_09_worker_determinism(tmp_path):
    noise = {
        "center_jitter_px": 1.0,
        "radius_jitter_frac": 0.05,
        "false_positive_rate": 0.8,
        "miss_rate": 0.1,
        "fp_radius_px": [8.0, 25.0],
    }
    config = write_scene(tmp_path, plant_craters(8), noise=noise)
    assert main(["run", "--config", str(config), "--workers", "1", "--out", "w1"]) == 0
    assert main(["run", "--config", str(config), "--workers", "8", "--out", "w8"]) == 0
    compared = []
    for name in ("detections_global.csv", "detections_catalog.csv", "metrics.csv", "summary.txt"):
        a = (tmp_path / "w1" / name).read_bytes()
        b = (tmp_path / "w8" / name).read_bytes()
        assert a == b, f"{name} differs between worker counts"
        compared.append(name)
    _report(9, f"workers 1 vs 8 byte-identical across {len(compared)} output files")


# ---------------------------------------------------------------------------
# 10. cross-verify partition


def test_acceptance_10_cross_verify_partition():
    def box_at(x, y, side=10_000.0):
        return (x - side / 2, y - side / 2, x + side / 2, y + side / 2)

    a_only = [box_at(0.0, 0.0), box_at(50_000.0, 0.0)]
    both = [box_at(100_000.0, 0.0)]
    b_only = [box_at(0.0, 100_000.0), box_at(50_000.0, 100_000.0), box_at(100_000.0, 100_000.0)]
    neither = [box_at(0.0, -100_000.0), box_at(50_000.0, -100_000.0),
               box_at(100_000.0, -100_000.0), box_at(150_000.0, -100_000.0)]

    catalog_a = np.array(a_only + both)
    catalog_b = np.array(both + b_only)
    dets = global_set(a_only + both + b_only + neither)
    report = cross_verify(dets, catalog_a, catalog_b, EvalConfig(u=0.3))
    assert report.counts == (3, 3, 4)
    assert report.known == (0, 1, 2)
    assert report.confirmed_new == (3, 4, 5)
    assert report.unverified == (6, 7, 8, 9)
    combined = sorted(report.known + report.confirmed_new + report.unverified)
    assert combined == list(range(len(dets)))
    _report(10, "cross-verify classes (3, 3, 4) exactly as constructed and partition the set")
