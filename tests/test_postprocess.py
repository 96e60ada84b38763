"""Boundary filter, globalization and NMS tests."""

import numpy as np
import pytest

from craterpipe.detector import Detection
from craterpipe.errors import DetectionError
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import (
    BoundaryFilterConfig,
    GlobalDetection,
    NmsConfig,
    globalize,
    load_global_detections,
    nms,
    remove_boundary,
    run_pipeline,
    write_global_detections,
)

from conftest import LUNAR_RADIUS
from reference import quadratic_nms

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)


def det(box, score=0.9, patch_id="p"):
    return Detection(patch_id=patch_id, box=box, score=score)


def gdet(box, score=0.9, patch_id="p"):
    return GlobalDetection(box=box, score=score, patch_id=patch_id, pixel_box=(0, 0, 1, 1))


# ---------------------------------------------------------------------------
# boundary filter


def test_edge_touching_box_removed():
    out = remove_boundary([det((0.0, 100.0, 50.0, 150.0))], 512, BoundaryFilterConfig(10))
    assert out == []


def test_box_just_past_threshold_kept():
    d = det((11.0, 11.0, 501.0, 501.0))
    assert remove_boundary([d], 512, BoundaryFilterConfig(10)) == [d]


def test_m_zero_keeps_distance_one():
    d = det((1.0, 1.0, 500.0, 500.0))
    assert remove_boundary([d], 512, BoundaryFilterConfig(0)) == [d]


def test_m_zero_removes_touching():
    assert remove_boundary([det((0.0, 1.0, 500.0, 500.0))], 512, BoundaryFilterConfig(0)) == []


def test_boundary_filter_monotone_in_m():
    rng = np.random.default_rng(8)
    dets = []
    for _ in range(200):
        x1 = rng.uniform(0, 400)
        y1 = rng.uniform(0, 400)
        dets.append(det((x1, y1, x1 + rng.uniform(1, 100), y1 + rng.uniform(1, 100))))
    prev = None
    for m in (0, 1, 5, 10, 50):
        kept = {id(d) for d in remove_boundary(dets, 512, BoundaryFilterConfig(m))}
        if prev is not None:
            assert kept <= prev
        prev = kept


def test_boundary_config_validation():
    with pytest.raises(Exception):
        BoundaryFilterConfig(-1)
    with pytest.raises(Exception):
        BoundaryFilterConfig(1.5)


# ---------------------------------------------------------------------------
# globalize


def test_globalize_corner_mapping():
    index = {"p": (0, 0, 2.0)}
    out = globalize([det((10.0, 10.0, 20.0, 20.0))], index, GT)
    assert len(out) == 1
    assert out[0].box == (2000.0, -4000.0, 4000.0, -2000.0)
    assert out[0].box[1] < out[0].box[3]


def test_globalize_stride_offset_shifts_x():
    d = det((10.0, 10.0, 20.0, 20.0))
    a = globalize([d], {"p": (0, 0, 2.0)}, GT)[0]
    b = globalize([Detection("q", d.box, d.score)], {"q": (0, 512, 2.0)}, GT)[0]
    assert b.box[0] - a.box[0] == 51200.0
    assert b.box[2] - a.box[2] == 51200.0
    assert b.box[1] == a.box[1]


def test_globalize_unit_transform_negates_y():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=1.0, body_radius=LUNAR_RADIUS)
    out = globalize([det((1.0, 2.0, 3.0, 5.0))], {"p": (0, 0, 1.0)}, gt)[0]
    assert out.box == (1.0, -5.0, 3.0, -2.0)


def test_globalize_preserves_count_and_scores():
    dets = [det((i, i, i + 5.0, i + 5.0), score=0.1 * i, patch_id="p") for i in range(1, 9)]
    out = globalize(dets, {"p": (0, 0, 1.0)}, GT)
    assert len(out) == len(dets)
    assert [g.score for g in out] == [d.score for d in dets]


def test_globalize_unknown_patch_id():
    with pytest.raises(DetectionError, match="unknown patch id"):
        globalize([det((0, 0, 1, 1), patch_id="mystery")], {"p": (0, 0, 1.0)}, GT)


# ---------------------------------------------------------------------------
# nms


def test_nms_identical_boxes_keep_highest_score():
    a = gdet((0, 0, 10, 10), score=0.9)
    b = gdet((0, 0, 10, 10), score=0.8)
    out = nms([b, a], NmsConfig(delta=0.2))
    assert out == [a]


def test_nms_disjoint_boxes_both_survive():
    a = gdet((0, 0, 10, 10), score=0.9)
    b = gdet((100, 100, 110, 110), score=0.1)
    assert set(map(id, nms([a, b], NmsConfig(delta=0.01)))) == {id(a), id(b)}


def test_nms_chain_suppression():
    # B overlaps A at 1/3, C overlaps B at 1/3, C is disjoint from A
    a = gdet((0.0, 0.0, 10.0, 10.0), score=0.9)
    b = gdet((5.0, 0.0, 15.0, 10.0), score=0.8)
    c = gdet((10.0, 0.0, 20.0, 10.0), score=0.7)
    out = nms([a, b, c], NmsConfig(delta=0.3))
    assert out == [a, c]


def test_nms_disabled_passthrough():
    dets = [gdet((0, 0, 10, 10), 0.9), gdet((0, 0, 10, 10), 0.8)]
    out = nms(dets, NmsConfig(delta=0.2, enabled=False))
    assert out == dets


def test_nms_idempotent():
    rng = np.random.default_rng(4)
    dets = []
    for _ in range(300):
        x = rng.uniform(0, 500)
        y = rng.uniform(0, 500)
        s = rng.uniform(5, 60)
        dets.append(gdet((x, y, x + s, y + s), score=float(rng.uniform(0, 1))))
    cfg = NmsConfig(delta=0.3)
    once = nms(dets, cfg)
    twice = nms(once, cfg)
    assert once == twice


def test_nms_tie_break_on_equal_scores():
    left = gdet((0.0, 0.0, 10.0, 10.0), score=0.5)
    right = gdet((4.0, 0.0, 14.0, 10.0), score=0.5)
    out = nms([right, left], NmsConfig(delta=0.3))
    assert out == [left]  # smaller x1 wins the tie, then suppresses the other


def test_nms_survivors_duplicate_free_at_delta():
    rng = np.random.default_rng(17)
    for delta in (0.1, 0.3, 0.5):
        dets = []
        for _ in range(250):
            x = rng.uniform(0, 200)
            y = rng.uniform(0, 200)
            s = rng.uniform(10, 80)
            dets.append(gdet((x, y, x + s, y + s), score=float(rng.uniform(0, 1))))
        survivors = nms(dets, NmsConfig(delta=delta))
        boxes = np.array([d.box for d in survivors])
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                iw = min(boxes[i, 2], boxes[j, 2]) - max(boxes[i, 0], boxes[j, 0])
                ih = min(boxes[i, 3], boxes[j, 3]) - max(boxes[i, 1], boxes[j, 1])
                if iw <= 0 or ih <= 0:
                    continue
                inter = iw * ih
                area_i = (boxes[i, 2] - boxes[i, 0]) * (boxes[i, 3] - boxes[i, 1])
                area_j = (boxes[j, 2] - boxes[j, 0]) * (boxes[j, 3] - boxes[j, 1])
                assert inter / (area_i + area_j - inter) < delta


def test_nms_matches_quadratic_reference_sample():
    rng = np.random.default_rng(123)
    for trial in range(5):
        dets = []
        for _ in range(200):
            x = rng.uniform(0, 300)
            y = rng.uniform(0, 300)
            s = rng.uniform(5, 80)
            score = round(float(rng.uniform(0, 1)), 2)  # ties likely
            dets.append(gdet((x, y, x + s, y + s), score=score))
        cfg = NmsConfig(delta=float(rng.choice([0.1, 0.3, 0.5])))
        fast = nms(dets, cfg)
        slow = quadratic_nms(dets, cfg.delta)
        assert [id(d) for d in fast] == [id(d) for d in slow]


def test_nms_delta_zero_keeps_only_top_ranked():
    # IOU >= 0 also holds for disjoint pairs, so the first box suppresses all
    a = gdet((0.0, 0.0, 10.0, 10.0), score=0.5)
    b = gdet((100.0, 100.0, 110.0, 110.0), score=0.9)
    c = gdet((-50.0, 0.0, -40.0, 10.0), score=0.9)
    assert nms([a, b, c], NmsConfig(delta=0.0)) == [c]  # tie on score: smaller x1 wins


def test_nms_delta_one_drops_only_exact_duplicates():
    a = gdet((0.0, 0.0, 10.0, 10.0), score=0.9)
    dup = gdet((0.0, 0.0, 10.0, 10.0), score=0.8)
    near = gdet((0.0, 0.0, 10.0, 10.5), score=0.7)
    far = gdet((50.0, 50.0, 60.0, 60.0), score=0.6)
    out = nms([far, near, dup, a], NmsConfig(delta=1.0))
    assert [id(d) for d in out] == [id(a), id(near), id(far)]


# ---------------------------------------------------------------------------
# pipeline composition


def test_run_pipeline_empty():
    out = run_pipeline({}, {}, GT, 512, BoundaryFilterConfig(10), NmsConfig(0.2))
    assert out == []


def test_run_pipeline_order_boundary_then_globalize_then_nms():
    # a boundary-hugging duplicate must be removed before NMS can see it
    index = {"pa": (0, 0, 1.0), "pb": (0, 256, 1.0)}
    interior = det((300.0, 100.0, 350.0, 150.0), score=0.8, patch_id="pa")
    same_global_in_pb = det((44.0, 100.0, 94.0, 150.0), score=0.9, patch_id="pb")
    per_patch = {"pa": [interior], "pb": [same_global_in_pb]}
    out = run_pipeline(per_patch, index, GT, 512, BoundaryFilterConfig(10), NmsConfig(0.2))
    assert len(out) == 1
    assert out[0].score == 0.9  # duplicate collapsed, higher score kept


def test_run_pipeline_without_nms_keeps_duplicates():
    index = {"pa": (0, 0, 1.0), "pb": (0, 256, 1.0)}
    per_patch = {
        "pa": [det((300.0, 100.0, 350.0, 150.0), score=0.8, patch_id="pa")],
        "pb": [det((44.0, 100.0, 94.0, 150.0), score=0.9, patch_id="pb")],
    }
    out = run_pipeline(per_patch, index, GT, 512, BoundaryFilterConfig(10), NmsConfig(0.2, enabled=False))
    assert len(out) == 2


def test_global_detection_file_round_trip(tmp_path):
    dets = [
        GlobalDetection((100.5, -200.25, 300.0, -50.0), 0.75, "pa", (1.0, 2.0, 3.0, 4.0)),
        GlobalDetection((-10.0, 0.0, 10.0, 20.0), 0.5, "pb", (5.0, 6.0, 7.0, 8.0)),
    ]
    path = tmp_path / "g.csv"
    write_global_detections(dets, path)
    loaded = load_global_detections(path)
    assert loaded == dets

