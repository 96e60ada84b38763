"""Boundary filter, globalization and NMS tests.

The boundary filter and globalization run inside run_pipeline; the tests
of either alone disable NMS, so every surviving row reaches the output in
input order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craterpipe.errors import DetectionError, PipelineError
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import (
    DetectionSet,
    _rank,
    edge_distance,
    filter_and_globalize,
    load_global_detections,
    nms,
    ranked_edges,
    restrict,
    run_pipeline,
    write_global_detections,
)

from conftest import LUNAR_RADIUS, detection_set, global_set, ids_of, on_origin, patch_columns, placed
from reference import quadratic_nms

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)


def boundary_filter(boxes, ps_r, m):
    """The pixel boxes that pass the boundary filter of run_pipeline, in order."""
    per_patch = patch_columns({"p": [(box, 0.9) for box in boxes]}, on_origin(["p"], ps_r))
    out = run_pipeline(per_patch, GT, ps_r, m, None)
    return [tuple(box) for box in out.pixel_boxes.tolist()]


def globalize(boxes, patch_index, gt=GT, patch_id="p", scores=None):
    """Globalized rows of pixel boxes of one patch: boundary filter at m = 0
    on a patch side the boxes stay well inside, NMS disabled."""
    scores = [0.9] * len(boxes) if scores is None else scores
    per_patch = patch_columns({patch_id: list(zip(boxes, scores))}, placed(patch_index, 10_000))
    return run_pipeline(per_patch, gt, 10_000, 0, None)


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


# ---------------------------------------------------------------------------
# nms


def test_nms_identical_boxes_keep_highest_score():
    out = nms(global_set([(0, 0, 10, 10)] * 2, [0.8, 0.9], ["b", "a"]), 0.2)
    assert out.patch_ids.tolist() == ["a"] and out.scores.tolist() == [0.9]


def test_nms_disjoint_boxes_both_survive():
    dets = global_set([(0, 0, 10, 10), (100, 100, 110, 110)], [0.9, 0.1], ["a", "b"])
    assert set(nms(dets, 0.01).patch_ids) == {"a", "b"}


def test_nms_chain_suppression():
    # B overlaps A at 1/3, C overlaps B at 1/3, C is disjoint from A
    boxes = [(0.0, 0.0, 10.0, 10.0), (5.0, 0.0, 15.0, 10.0), (10.0, 0.0, 20.0, 10.0)]
    out = nms(global_set(boxes, [0.9, 0.8, 0.7], ["a", "b", "c"]), 0.3)
    assert out.patch_ids.tolist() == ["a", "c"]


def test_nms_disabled_passthrough():
    dets = global_set([(0, 0, 10, 10)] * 2, [0.9, 0.8])
    assert nms(dets, None) is dets


def test_nms_idempotent():
    rng = np.random.default_rng(4)
    boxes, scores = [], []
    for _ in range(300):
        x = rng.uniform(0, 500)
        y = rng.uniform(0, 500)
        s = rng.uniform(5, 60)
        boxes.append((x, y, x + s, y + s))
        scores.append(float(rng.uniform(0, 1)))
    once = nms(global_set(boxes, scores), 0.3)
    twice = nms(once, 0.3)
    assert once.boxes.tobytes() == twice.boxes.tobytes() and once.scores.tobytes() == twice.scores.tobytes()


def test_nms_tie_break_on_equal_scores():
    dets = global_set([(4.0, 0.0, 14.0, 10.0), (0.0, 0.0, 10.0, 10.0)], 0.5, ["right", "left"])
    out = nms(dets, 0.3)
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
        boxes = nms(global_set(boxes, scores), delta).boxes
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
        delta = float(rng.choice([0.1, 0.3, 0.5]))
        fast = nms(global_set(boxes, scores, [str(i) for i in range(len(boxes))]), delta)
        assert fast.patch_ids.tolist() == [str(i) for i in quadratic_nms(boxes, scores, delta)]


def test_nms_delta_zero_keeps_only_top_ranked():
    # IOU >= 0 also holds for disjoint pairs, so the first box suppresses all
    boxes = [(0.0, 0.0, 10.0, 10.0), (100.0, 100.0, 110.0, 110.0), (-50.0, 0.0, -40.0, 10.0)]
    out = nms(global_set(boxes, [0.5, 0.9, 0.9], ["a", "b", "c"]), 0.0)
    assert out.patch_ids.tolist() == ["c"]  # tie on score: smaller x1 wins


def test_nms_delta_one_drops_only_exact_duplicates():
    boxes = [(50.0, 50.0, 60.0, 60.0), (0.0, 0.0, 10.0, 10.5), (0.0, 0.0, 10.0, 10.0), (0.0, 0.0, 10.0, 10.0)]
    dets = global_set(boxes, [0.6, 0.7, 0.8, 0.9], ["far", "near", "dup", "a"])
    out = nms(dets, 1.0)
    assert out.patch_ids.tolist() == ["a", "near", "far"]


@pytest.mark.parametrize("delta", [0.2, 1.0])
def test_nms_keeps_both_boxes_of_a_nan_iou_pair(delta):
    """Two copies of a box whose area overflows have a NaN IOU, which is no
    IOU >= delta, so neither suppresses the other."""
    big = (0.0, 0.0, 2e200, 2e200)
    with np.errstate(over="ignore", invalid="ignore"):
        out = nms(global_set([big, big, (0.0, 0.0, 1.0, 1.0)], [0.9, 0.8, 0.7], ["a", "b", "c"]), delta)
    assert out.patch_ids.tolist() == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# ranking and shared edges

_lattice = st.sampled_from([-1.0, 0.0, 2.0, 4.0, 5.0])
_side = st.sampled_from([2.0, 4.0, 6.0])
_box = st.tuples(_lattice, _lattice, _side, _side).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))
_tied_score = st.sampled_from([0.0, -0.0, 0.5, 0.5, 0.9, 1.0])
HUGE = (0.0, 0.0, 2e200, 2e200)  # its area overflows, so its IOU with a copy is NaN


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_box, _tied_score | st.floats(0.0, 1.0)), max_size=40), st.booleans())
@example([], False)
@example([((0.0, 0.0, 2.0, 2.0), 0.5)], False)
@example([((0.0, 0.0, 2.0, 2.0), 0.0), ((-1.0, 0.0, 1.0, 2.0), -0.0), ((-1.0, 0.0, 1.0, 2.0), 0.0)], False)
def test_rank_is_the_lexsort_of_score_x1_y1(rows, all_equal):
    """One sort by score and a lexsort of the tied runs give the full
    lexsort's order, whatever the ties: all scores equal (0.0 beside -0.0),
    repeated boxes, no rows or one."""
    boxes = np.array([box for box, _ in rows], dtype=np.float64).reshape(-1, 4)
    scores = np.array([score for _, score in rows], dtype=np.float64)
    if all_equal:
        scores = np.where(np.arange(scores.size) % 2 == 0, 0.0, -0.0)
    want = np.lexsort((boxes[:, 1], boxes[:, 0], -scores))
    assert _rank(boxes, scores).tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_box | st.just(HUGE), _tied_score), max_size=30),
    st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]),
    st.data(),
)
def test_nms_on_shared_edges_equals_nms_alone(rows, delta, data):
    """Edges ranked at any d0 <= delta give the survivors nms makes on its
    own, and both those of the quadratic reference."""
    d0 = data.draw(st.sampled_from([d for d in (0.0, 0.05, 0.1, 0.3, 0.5, 1.0) if d <= delta]))
    boxes, scores = [box for box, _ in rows], [score for _, score in rows]
    dets = global_set(boxes, scores, [str(k) for k in range(len(rows))])
    with np.errstate(over="ignore", invalid="ignore"):
        shared = nms(dets, delta, ranked_edges(dets, d0))
        alone = nms(dets, delta)
    assert shared.patch_ids.tolist() == alone.patch_ids.tolist()
    if HUGE not in boxes:  # the reference lets a NaN IOU suppress, which nms does not
        assert alone.patch_ids.tolist() == [str(k) for k in quadratic_nms(boxes, scores, delta)]


def _edge_set(edges):
    """A graph's edges as a set of (head, tail, IOU bits), NaN IOUs included."""
    return set(zip(edges.head.tolist(), edges.tail.tolist(), edges.iou.view(np.int64).tolist()))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_box | st.just(HUGE), _tied_score, st.booleans()), max_size=30),
    st.sampled_from(["drawn", "all", "none"]),
    st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]),
    st.sampled_from([0.0, 0.05, 0.2, 1.0]),
)
@example([((0.0, 0.0, 2.0, 2.0), 0.5, True), ((0.0, 0.0, 2.0, 2.0), 0.5, False),
          ((0.0, 0.0, 2.0, 2.0), 0.5, True)], "drawn", 0.1, 0.0)
def test_restricted_edges_are_the_edges_of_the_subset(rows, masks, d0, above):
    """restrict of a set's graph is the graph of the kept rows, whatever the
    ties and duplicates: the same rank order, the same edges and IOUs, and
    the same survivors of nms at any delta >= d0."""
    boxes, scores = [box for box, _, _ in rows], [score for _, score, _ in rows]
    dets = global_set(boxes, scores, [str(k) for k in range(len(rows))])
    keep = np.array([k for _, _, k in rows], dtype=bool) if masks == "drawn" else np.full(len(rows), masks == "all")
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = restrict(ranked_edges(dets, d0), keep), ranked_edges(dets.take(np.flatnonzero(keep)), d0)
        assert got.dets.patch_ids.tolist() == want.dets.patch_ids.tolist()
        assert got.dets.boxes.tobytes() == want.dets.boxes.tobytes()
        assert got.order.tolist() == want.order.tolist()
        assert _edge_set(got) == _edge_set(want) and got.min_iou == want.min_iou
        delta = min(d0 + above, 1.0)
        assert nms(got.dets, delta, got).patch_ids.tolist() == nms(want.dets, delta).patch_ids.tolist()


def test_edges_of_another_set_raise():
    dets = global_set([(0.0, 0.0, 2.0, 2.0), (0.0, 0.0, 2.0, 2.0), (9.0, 9.0, 11.0, 11.0)], [0.9, 0.8, 0.7])
    with pytest.raises(PipelineError, match="edges of 2 boxes at IOU >= 0.1 cannot serve NMS of 3 boxes"):
        nms(dets, 0.3, ranked_edges(dets.take([0, 2]), 0.1))
    # a graph of as many boxes, but of other ones, cannot serve either
    a = global_set([(0.0, 0.0, 2.0, 2.0)] * 2, [0.9, 0.8])
    b = global_set([(0.0, 0.0, 2.0, 2.0), (9.0, 9.0, 11.0, 11.0)], [0.9, 0.8])
    with pytest.raises(PipelineError, match="edges of 2 boxes at IOU >= 0.1 cannot serve NMS of 2 boxes at 0.3"):
        nms(b, 0.3, ranked_edges(a, 0.1))
    with pytest.raises(PipelineError, match="edges of 3 boxes at IOU >= 0.5 cannot serve NMS of 3 boxes at 0.3"):
        nms(dets, 0.3, ranked_edges(dets, 0.5))
    per_patch = patch_columns({"p": [((1.0, 1.0, 3.0, 3.0), 0.9)]}, on_origin(["p"]))
    with pytest.raises(PipelineError, match="edges of 3 boxes"):
        run_pipeline(per_patch, GT, 512, 0, 0.3, ranked_edges(dets, 0.1))
    # delta 0 reads only the rank order, which edges made at any threshold hold
    assert nms(dets, 0.0, ranked_edges(dets, 0.5)).scores.tolist() == [0.9]
    # the graph merged at m = 0 serves m = 5 only once restricted to the rows alive there
    rows = {"p": [((1.0, 1.0, 30.0, 30.0), 0.9), ((10.0, 10.0, 40.0, 40.0), 0.8), ((100.0, 100.0, 130.0, 130.0), 0.7)]}
    per_patch = patch_columns(rows, on_origin(["p"]))
    graph = ranked_edges(filter_and_globalize(per_patch, GT, 512, 0), 0.1)
    with pytest.raises(PipelineError, match="edges of 3 boxes at IOU >= 0.1 cannot serve NMS of 2 boxes at 0.3"):
        run_pipeline(per_patch, GT, 512, 5, 0.3, graph)
    alive = restrict(graph, edge_distance(graph.dets.pixel_boxes, 512) > 5)
    assert run_pipeline(per_patch, GT, 512, 5, 0.3, alive).rows.tolist() == [1, 2]
    # the same rows with other pixel boxes are another set
    moved = patch_columns({"p": [(tuple(c + 1.0 for c in box), score) for box, score in rows["p"]]}, on_origin(["p"]))
    with pytest.raises(PipelineError, match="edges of 3 boxes at IOU >= 0.1 cannot serve NMS of 3 boxes at 0.3"):
        run_pipeline(moved, GT, 512, 0, 0.3, graph)


# ---------------------------------------------------------------------------
# pipeline composition


def test_run_pipeline_empty():
    out = run_pipeline(patch_columns({}, []), GT, 512, 10, 0.2)
    assert len(out) == 0


def test_run_pipeline_order_boundary_then_globalize_then_nms():
    # a boundary-hugging duplicate must be removed before NMS can see it
    placements = placed({"pa": (0, 0, 1.0), "pb": (0, 256, 1.0)})
    interior = ((300.0, 100.0, 350.0, 150.0), 0.8)
    same_global_in_pb = ((44.0, 100.0, 94.0, 150.0), 0.9)
    per_patch = patch_columns({"pa": [interior], "pb": [same_global_in_pb]}, placements)
    out = run_pipeline(per_patch, GT, 512, 10, 0.2)
    assert len(out) == 1
    assert out.scores[0] == 0.9  # duplicate collapsed, higher score kept


def test_run_pipeline_without_nms_keeps_duplicates():
    per_patch = patch_columns({
        "pa": [((300.0, 100.0, 350.0, 150.0), 0.8)],
        "pb": [((44.0, 100.0, 94.0, 150.0), 0.9)],
    }, placed({"pa": (0, 0, 1.0), "pb": (0, 256, 1.0)}))
    out = run_pipeline(per_patch, GT, 512, 10, None)
    assert len(out) == 2


@st.composite
def coded_parts(draw):
    """Per-row patch id lists, and a DetectionSet of each on its own table of
    unique ids; tables share ids and may hold ids no row names, and a part
    may have no rows or no table."""
    parts, rows = [], []
    for _ in range(draw(st.integers(1, 4))):
        table = draw(st.lists(st.sampled_from(["a", "b", "c", "r000000_c000000"]), unique=True, max_size=4))
        codes = draw(st.lists(st.integers(0, len(table) - 1), max_size=6)) if table else []
        n = len(codes)
        start = sum(map(len, rows))
        boxes = [(float(k), 0.0, k + 1.0, 1.0) for k in range(start, start + n)]
        parts.append(DetectionSet(boxes, np.arange(start, start + n) / 100.0, codes, table, boxes))
        rows.append([table[k] for k in codes])
    return rows, parts


@settings(max_examples=200, deadline=None)
@given(coded_parts(), st.data())
def test_concat_then_take_decodes_like_per_row_id_lists(coded, data):
    rows, parts = coded
    flat = [patch_id for ids in rows for patch_id in ids]
    idx = data.draw(st.lists(st.integers(0, len(flat) - 1), max_size=12)) if flat else []
    got = DetectionSet.concat(parts).take(idx)
    assert ids_of(got) == got.patch_ids.tolist() == [flat[i] for i in idx]
    assert got.scores.tolist() == [i / 100.0 for i in idx]
    assert got.boxes[:, 0].tolist() == got.pixel_boxes[:, 0].tolist() == [float(i) for i in idx]


def test_global_detection_file_round_trip(tmp_path):
    dets = detection_set(
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
