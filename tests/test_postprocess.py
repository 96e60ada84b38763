"""Boundary filter, globalization and NMS tests.

The boundary filter and globalization run inside run_pipeline; the tests
of either alone disable NMS, so every surviving row reaches the output in
input order.
"""

import numpy as np
import pytest

from craterpipe.errors import DetectionError
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import (
    BoundaryFilterConfig,
    DetectionSet,
    NmsConfig,
    load_global_detections,
    nms,
    run_pipeline,
    write_global_detections,
)

from conftest import LUNAR_RADIUS, global_set, patch_columns
from reference import quadratic_nms

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
NO_NMS = NmsConfig(0.2, enabled=False)


def boundary_filter(boxes, ps_r, m):
    """The pixel boxes that pass the boundary filter of run_pipeline, in order."""
    per_patch = patch_columns({"p": [(box, 0.9) for box in boxes]})
    out = run_pipeline(per_patch, {"p": (0, 0, 1.0)}, GT, ps_r, BoundaryFilterConfig(m), NO_NMS)
    return [tuple(box) for box in out.pixel_boxes.tolist()]


def globalize(boxes, patch_index, gt=GT, patch_id="p", scores=None):
    """Globalized rows of pixel boxes of one patch: boundary filter at m = 0
    on a patch side the boxes stay well inside, NMS disabled."""
    scores = [0.9] * len(boxes) if scores is None else scores
    per_patch = patch_columns({patch_id: list(zip(boxes, scores))})
    return run_pipeline(per_patch, patch_index, gt, 10_000, BoundaryFilterConfig(0), NO_NMS)


# ---------------------------------------------------------------------------
# boundary filter


def test_edge_touching_box_removed():
    assert boundary_filter([(0.0, 100.0, 50.0, 150.0)], 512, 10) == []


def test_box_just_past_threshold_kept():
    box = (11.0, 11.0, 501.0, 501.0)
    assert boundary_filter([box], 512, 10) == [box]


def test_m_zero_keeps_distance_one():
    box = (1.0, 1.0, 500.0, 500.0)
    assert boundary_filter([box], 512, 0) == [box]


def test_m_zero_removes_touching():
    assert boundary_filter([(0.0, 1.0, 500.0, 500.0)], 512, 0) == []


def test_boundary_filter_monotone_in_m():
    rng = np.random.default_rng(8)
    boxes = []
    for _ in range(200):
        x1 = rng.uniform(0, 400)
        y1 = rng.uniform(0, 400)
        boxes.append((x1, y1, x1 + rng.uniform(1, 100), y1 + rng.uniform(1, 100)))
    prev = None
    for m in (0, 1, 5, 10, 50):
        kept = set(boundary_filter(boxes, 512, m))
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
    out = globalize([(10.0, 10.0, 20.0, 20.0)], index)
    assert len(out) == 1
    assert out.boxes[0].tolist() == [2000.0, -4000.0, 4000.0, -2000.0]
    assert out.boxes[0, 1] < out.boxes[0, 3]


def test_globalize_stride_offset_shifts_x():
    box = (10.0, 10.0, 20.0, 20.0)
    a = globalize([box], {"p": (0, 0, 2.0)}).boxes[0]
    b = globalize([box], {"q": (0, 512, 2.0)}, patch_id="q").boxes[0]
    assert b[0] - a[0] == 51200.0
    assert b[2] - a[2] == 51200.0
    assert b[1] == a[1]


def test_globalize_unit_transform_negates_y():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=1.0, body_radius=LUNAR_RADIUS)
    out = globalize([(1.0, 2.0, 3.0, 5.0)], {"p": (0, 0, 1.0)}, gt)
    assert out.boxes[0].tolist() == [1.0, -5.0, 3.0, -2.0]


def test_globalize_preserves_count_and_scores():
    scores = [0.1 * i for i in range(1, 9)]
    out = globalize([(i, i, i + 5.0, i + 5.0) for i in range(1, 9)], {"p": (0, 0, 1.0)}, scores=scores)
    assert len(out) == len(scores)
    assert out.scores.tolist() == scores


def test_globalize_unknown_patch_id():
    with pytest.raises(DetectionError, match="unknown patch id"):
        globalize([(1, 1, 2, 2)], {"p": (0, 0, 1.0)}, patch_id="mystery")


# ---------------------------------------------------------------------------
# nms


def test_nms_identical_boxes_keep_highest_score():
    out = nms(global_set([(0, 0, 10, 10)] * 2, [0.8, 0.9], ["b", "a"]), NmsConfig(delta=0.2))
    assert out.patch_ids.tolist() == ["a"] and out.scores.tolist() == [0.9]


def test_nms_disjoint_boxes_both_survive():
    dets = global_set([(0, 0, 10, 10), (100, 100, 110, 110)], [0.9, 0.1], ["a", "b"])
    assert set(nms(dets, NmsConfig(delta=0.01)).patch_ids) == {"a", "b"}


def test_nms_chain_suppression():
    # B overlaps A at 1/3, C overlaps B at 1/3, C is disjoint from A
    boxes = [(0.0, 0.0, 10.0, 10.0), (5.0, 0.0, 15.0, 10.0), (10.0, 0.0, 20.0, 10.0)]
    out = nms(global_set(boxes, [0.9, 0.8, 0.7], ["a", "b", "c"]), NmsConfig(delta=0.3))
    assert out.patch_ids.tolist() == ["a", "c"]


def test_nms_disabled_passthrough():
    dets = global_set([(0, 0, 10, 10)] * 2, [0.9, 0.8])
    assert nms(dets, NmsConfig(delta=0.2, enabled=False)) is dets


def test_nms_idempotent():
    rng = np.random.default_rng(4)
    boxes, scores = [], []
    for _ in range(300):
        x = rng.uniform(0, 500)
        y = rng.uniform(0, 500)
        s = rng.uniform(5, 60)
        boxes.append((x, y, x + s, y + s))
        scores.append(float(rng.uniform(0, 1)))
    cfg = NmsConfig(delta=0.3)
    once = nms(global_set(boxes, scores), cfg)
    twice = nms(once, cfg)
    assert once.boxes.tobytes() == twice.boxes.tobytes() and once.scores.tobytes() == twice.scores.tobytes()


def test_nms_tie_break_on_equal_scores():
    dets = global_set([(4.0, 0.0, 14.0, 10.0), (0.0, 0.0, 10.0, 10.0)], 0.5, ["right", "left"])
    out = nms(dets, NmsConfig(delta=0.3))
    assert out.patch_ids.tolist() == ["left"]  # smaller x1 wins the tie, then suppresses the other


def test_nms_survivors_duplicate_free_at_delta():
    rng = np.random.default_rng(17)
    for delta in (0.1, 0.3, 0.5):
        boxes, scores = [], []
        for _ in range(250):
            x = rng.uniform(0, 200)
            y = rng.uniform(0, 200)
            s = rng.uniform(10, 80)
            boxes.append((x, y, x + s, y + s))
            scores.append(float(rng.uniform(0, 1)))
        boxes = nms(global_set(boxes, scores), NmsConfig(delta=delta)).boxes
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
        boxes, scores = [], []
        for _ in range(200):
            x = rng.uniform(0, 300)
            y = rng.uniform(0, 300)
            s = rng.uniform(5, 80)
            boxes.append((x, y, x + s, y + s))
            scores.append(round(float(rng.uniform(0, 1)), 2))  # ties likely
        cfg = NmsConfig(delta=float(rng.choice([0.1, 0.3, 0.5])))
        fast = nms(global_set(boxes, scores, [str(i) for i in range(len(boxes))]), cfg)
        assert fast.patch_ids.tolist() == [str(i) for i in quadratic_nms(boxes, scores, cfg.delta)]


def test_nms_delta_zero_keeps_only_top_ranked():
    # IOU >= 0 also holds for disjoint pairs, so the first box suppresses all
    boxes = [(0.0, 0.0, 10.0, 10.0), (100.0, 100.0, 110.0, 110.0), (-50.0, 0.0, -40.0, 10.0)]
    out = nms(global_set(boxes, [0.5, 0.9, 0.9], ["a", "b", "c"]), NmsConfig(delta=0.0))
    assert out.patch_ids.tolist() == ["c"]  # tie on score: smaller x1 wins


def test_nms_delta_one_drops_only_exact_duplicates():
    boxes = [(50.0, 50.0, 60.0, 60.0), (0.0, 0.0, 10.0, 10.5), (0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 10.0)]
    dets = global_set(boxes, [0.6, 0.7, 0.8, 0.9], ["far", "near", "dup", "a"])
    out = nms(dets, NmsConfig(delta=1.0))
    assert out.patch_ids.tolist() == ["a", "near", "far"]


# ---------------------------------------------------------------------------
# pipeline composition


def test_run_pipeline_empty():
    out = run_pipeline(patch_columns({}), {}, GT, 512, BoundaryFilterConfig(10), NmsConfig(0.2))
    assert len(out) == 0


def test_run_pipeline_order_boundary_then_globalize_then_nms():
    # a boundary-hugging duplicate must be removed before NMS can see it
    index = {"pa": (0, 0, 1.0), "pb": (0, 256, 1.0)}
    interior = ((300.0, 100.0, 350.0, 150.0), 0.8)
    same_global_in_pb = ((44.0, 100.0, 94.0, 150.0), 0.9)
    per_patch = patch_columns({"pa": [interior], "pb": [same_global_in_pb]})
    out = run_pipeline(per_patch, index, GT, 512, BoundaryFilterConfig(10), NmsConfig(0.2))
    assert len(out) == 1
    assert out.scores[0] == 0.9  # duplicate collapsed, higher score kept


def test_run_pipeline_without_nms_keeps_duplicates():
    index = {"pa": (0, 0, 1.0), "pb": (0, 256, 1.0)}
    per_patch = patch_columns({
        "pa": [((300.0, 100.0, 350.0, 150.0), 0.8)],
        "pb": [((44.0, 100.0, 94.0, 150.0), 0.9)],
    })
    out = run_pipeline(per_patch, index, GT, 512, BoundaryFilterConfig(10), NmsConfig(0.2, enabled=False))
    assert len(out) == 2


def test_global_detection_file_round_trip(tmp_path):
    dets = DetectionSet(
        [(100.5, -200.25, 300.0, -50.0), (-10.0, 0.0, 10.0, 20.0)],
        [0.75, 0.5],
        ["pa", "pb"],
        [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)],
    )
    path = tmp_path / "g.csv"
    write_global_detections(dets, path)
    loaded = load_global_detections(path)
    for column in ("boxes", "scores", "patch_ids", "pixel_boxes"):
        assert getattr(loaded, column).tolist() == getattr(dets, column).tolist()



HEADER = "x1_m,y1_m,x2_m,y2_m,score,patch_id,px1,py1,px2,py2\n"
GOOD_ROW = "0.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0,1.0\n"


def test_global_detections_load_as_columns(tmp_path):
    path = tmp_path / "g.csv"
    write_global_detections(global_set([(0.0, 0.0, 1.0, 1.0), (2.0, 0.0, 3.0, 1.0)], [0.9, 0.5], ["p", "q"]), path)
    loaded = load_global_detections(path)
    assert isinstance(loaded, DetectionSet)
    assert loaded.patch_ids.tolist() == ["p", "q"] and loaded.scores.tolist() == [0.9, 0.5]
    write_global_detections(global_set([]), path)
    assert len(load_global_detections(path)) == 0
    path.write_text("")
    assert len(load_global_detections(path)) == 0


@pytest.mark.parametrize(
    "first", [GOOD_ROW, "\n", HEADER.replace("score", "conf")], ids=["record", "blank line", "renamed column"]
)
def test_global_detections_need_the_header_row(tmp_path, first):
    path = tmp_path / "g.csv"
    path.write_text(first + GOOD_ROW * 3)
    with pytest.raises(DetectionError) as err:
        load_global_detections(path)
    assert str(err.value) == f"{path}:1: expected the header row {HEADER.strip()}"


BAD_GLOBAL_ROWS = [
    ("0.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0", "expected 10 fields, got 9"),
    ("0.0,0.0,1.0,1.0,0.9,p,0.0,zero,1.0,1.0", "non-numeric field (could not convert string to float: 'zero')"),
    ("5.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0,1.0", "degenerate global box (5.0, 0.0, 1.0, 1.0)"),
]


@pytest.mark.parametrize("first, second", [(0, 1), (1, 2), (2, 0), (2, 1)])
def test_the_first_bad_global_row_wins(tmp_path, first, second):
    (row_a, msg_a), (row_b, _) = BAD_GLOBAL_ROWS[first], BAD_GLOBAL_ROWS[second]
    path = tmp_path / "g.csv"
    path.write_text(f"{HEADER}{GOOD_ROW}\n{row_a}\n{GOOD_ROW}{row_b}\n")
    with pytest.raises(DetectionError) as err:
        load_global_detections(path)
    assert str(err.value) == f"{path}:4: {msg_a}"
