"""Metrics, size gating, localization, grid search and cross-verification."""

import numpy as np
import pytest

from craterpipe.errors import EvalError
from craterpipe.evaluate import (
    EvalConfig,
    cross_verify,
    grid_search,
    iou,
    localization_stats,
    match_and_count,
    metrics_from_counts,
    size_gate,
)
from craterpipe.geo import GeoTransform

from conftest import LUNAR_RADIUS, global_set, patch_columns
from reference import brute_force_metrics, iou_matrix, rasterized_iou

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
NO_DETECTIONS = patch_columns({})


# ---------------------------------------------------------------------------
# iou


def test_iou_identical_boxes():
    assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0


def test_iou_hand_case_exact():
    assert iou((0, 0, 10, 10), (5, 5, 15, 15)) == 1.0 / 7.0


def test_iou_degenerate_box_errors():
    with pytest.raises(EvalError, match="degenerate"):
        iou((0, 0, 0, 10), (0, 0, 10, 10))


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(6)
    for _ in range(300):
        a = rng.uniform(0, 50, size=2)
        b = rng.uniform(0, 50, size=2)
        box_a = (a[0], a[1], a[0] + rng.uniform(1, 30), a[1] + rng.uniform(1, 30))
        box_b = (b[0], b[1], b[0] + rng.uniform(1, 30), b[1] + rng.uniform(1, 30))
        v = iou(box_a, box_b)
        assert v == iou(box_b, box_a)
        assert 0.0 <= v <= 1.0


def test_iou_against_rasterization_sample():
    rng = np.random.default_rng(77)
    for _ in range(25):
        side = rng.uniform(10, 20)
        x, y = rng.uniform(5, 25, size=2)
        dx, dy = rng.uniform(-0.3, 0.3, size=2) * side
        a = (x, y, x + side, y + side)
        b = (x + dx, y + dy, x + dx + side, y + dy + side)
        analytic = iou(a, b)
        estimate = rasterized_iou(a, b, cells=800)
        assert abs(analytic - estimate) <= 0.02 * max(estimate, 1e-9)


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(15)
    a = rng.uniform(0, 50, size=(7, 2))
    b = rng.uniform(0, 50, size=(5, 2))
    boxes_a = np.hstack([a, a + rng.uniform(1, 20, size=(7, 2))])
    boxes_b = np.hstack([b, b + rng.uniform(1, 20, size=(5, 2))])
    mat = iou_matrix(boxes_a, boxes_b)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == pytest.approx(iou(boxes_a[i], boxes_b[j]), abs=1e-12)


# ---------------------------------------------------------------------------
# counting


def test_metrics_formula_substitution():
    r = metrics_from_counts(3, 1, 1, u=0.3, n_detections=4, n_truth=4)
    assert r.precision == 0.75
    assert r.recall == 0.75
    assert r.f1 == 0.75


def test_metrics_empty_denominators_flagged():
    r = metrics_from_counts(0, 0, 5, u=0.3, n_detections=0, n_truth=5)
    assert r.precision == 0.0 and not r.precision_defined
    assert r.recall == 0.0 and r.recall_defined
    assert r.f1 == 0.0 and not r.f1_defined


def test_match_and_count_no_detections():
    truth = np.array([[0.0, 0.0, 10.0, 10.0]])
    r = match_and_count(global_set([]), truth, EvalConfig(u=0.3))
    assert (r.tp, r.fp, r.fn) == (0, 0, 1)
    assert not r.precision_defined
    assert r.recall == 0.0


def test_match_and_count_exact_match():
    truth = np.array([[0.0, 0.0, 10.0, 10.0]])
    r = match_and_count(global_set([(0.0, 0.0, 10.0, 10.0)]), truth, EvalConfig(u=0.3))
    assert r.precision == r.recall == r.f1 == 1.0


def test_match_and_count_agrees_with_brute_force():
    rng = np.random.default_rng(21)
    truth = []
    for _ in range(20):
        x, y = rng.uniform(0, 2000, size=2)
        s = rng.uniform(50, 200)
        truth.append((x, y, x + s, y + s))
    truth = np.array(truth)
    boxes = []
    for tb in truth[:14]:  # some matched, some shifted off
        shift = rng.uniform(0, 80)
        boxes.append((tb[0] + shift, tb[1], tb[2] + shift, tb[3]))
    for _ in range(6):
        x, y = rng.uniform(3000, 4000, size=2)
        boxes.append((x, y, x + 100, y + 100))
    cfg = EvalConfig(u=0.3)
    r = match_and_count(global_set(boxes), truth, cfg)
    tp, fp, fn, p, rec, f1 = brute_force_metrics(boxes, truth, 0.3)
    assert (r.tp, r.fp, r.fn) == (tp, fp, fn)
    assert r.precision == pytest.approx(p, abs=1e-12)
    assert r.recall == pytest.approx(rec, abs=1e-12)
    assert r.f1 == pytest.approx(f1, abs=1e-12)


def test_fn_clamped_and_raw_kept():
    truth = np.array([[0.0, 0.0, 10.0, 10.0]])
    dets = global_set([(0.0, 0.0, 10.0, 10.0), (0.5, 0.0, 10.5, 10.0)])
    r = match_and_count(dets, truth, EvalConfig(u=0.3))
    assert r.tp == 2
    assert r.fn == 0
    assert r.fn_raw == -1
    assert r.recall <= 1.0


def test_u_zero_counts_every_detection_as_tp():
    dets = global_set([(0.0, 0.0, 10.0, 10.0), (500.0, 500.0, 510.0, 510.0)])
    truth = np.array([[0.0, 0.0, 10.0, 10.0]])
    r = match_and_count(dets, truth, EvalConfig(u=0.0))
    assert (r.tp, r.fp, r.fn, r.fn_raw) == (2, 0, 0, -1)
    empty = match_and_count(dets, np.zeros((0, 4)), EvalConfig(u=0.0))
    assert (empty.tp, empty.fp, empty.fn, empty.fn_raw) == (2, 0, 0, -2)
    rep = cross_verify(dets, np.zeros((0, 4)), np.zeros((0, 4)), EvalConfig(u=0.0))
    assert rep.counts == (2, 0, 0)
    loc = localization_stats(dets, truth, EvalConfig(u=0.0))
    assert loc.n_matched == 2 and loc.mean_iou_pct == 50.0


# ---------------------------------------------------------------------------
# size gate


def gated_boxes(boxes, cfg):
    return size_gate(global_set(boxes), cfg).boxes.tolist()


def test_size_gate_floor():
    cfg = EvalConfig(u=0.3, size_floor_km=5.0)
    small = [0.0, 0.0, 4000.0, 4000.0]
    exact = [10_000.0, 0.0, 15_000.0, 5_000.0]
    assert gated_boxes([small, exact], cfg) == [exact]


def test_size_gate_identity_without_bounds():
    assert gated_boxes([[0.0, 0.0, 1.0, 1.0]], EvalConfig(u=0.3)) == [[0.0, 0.0, 1.0, 1.0]]


def test_size_gate_ceiling_half_open():
    cfg = EvalConfig(u=0.3, size_floor_km=5.0, size_ceiling_km=20.0)
    at_ceiling = [0.0, 0.0, 20_000.0, 20_000.0]
    under = [0.0, 0.0, 19_999.0, 19_999.0]
    assert gated_boxes([at_ceiling, under], cfg) == [under]


def test_size_gate_uses_mean_side():
    cfg = EvalConfig(u=0.3, size_floor_km=5.0)
    mixed = [0.0, 0.0, 4000.0, 6000.0]  # mean side 5 km, kept
    assert gated_boxes([mixed], cfg) == [mixed]


# ---------------------------------------------------------------------------
# localization


def test_localization_exact_matches():
    truth = np.array([[0.0, 0.0, 10.0, 10.0], [100.0, 100.0, 110.0, 110.0]])
    rep = localization_stats(global_set(truth), truth, EvalConfig(u=0.3))
    assert rep.mean_iou_pct == 100.0
    assert rep.std_iou_pct == 0.0
    assert rep.n_matched == 2


def test_localization_two_point_statistics():
    truth = np.array([[0.0, 0.0, 12.0, 12.0]])
    # one exact detection and one at IOU exactly 0.5 against the same truth
    exact = (0.0, 0.0, 12.0, 12.0)
    half = (4.0, 0.0, 16.0, 12.0)
    rep = localization_stats(global_set([exact, half]), truth, EvalConfig(u=0.3))
    assert rep.mean_iou_pct == pytest.approx(75.0, abs=1e-9)
    assert rep.std_iou_pct == pytest.approx(25.0, abs=1e-9)


def test_localization_no_matches_flagged():
    truth = np.array([[0.0, 0.0, 10.0, 10.0]])
    rep = localization_stats(global_set([(500.0, 500.0, 510.0, 510.0)]), truth, EvalConfig(u=0.3))
    assert rep.n_matched == 0
    assert rep.mean_iou_pct is None and rep.std_iou_pct is None


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_single_cell():
    per_patch = patch_columns({"p": [((100.0, 100.0, 150.0, 150.0), 0.9)]})
    index = {"p": (0, 0, 1.0)}
    truth = np.array([[10_000.0, -15_000.0, 15_000.0, -10_000.0]])
    res = grid_search(per_patch, index, GT, truth, 512, [5], [0.3], EvalConfig(u=0.3))
    assert (res.best_m, res.best_delta) == (5, 0.3)
    assert len(res.cells) == 2  # the one delta plus the no-NMS column


def test_grid_search_empty_sets_error():
    with pytest.raises(EvalError, match="non-empty"):
        grid_search(NO_DETECTIONS, {}, GT, np.zeros((0, 4)), 512, [], [0.1], EvalConfig())
    with pytest.raises(EvalError, match="non-empty"):
        grid_search(NO_DETECTIONS, {}, GT, np.zeros((0, 4)), 512, [0], [], EvalConfig())


def test_grid_search_cell_count():
    res = grid_search(NO_DETECTIONS, {}, GT, np.zeros((0, 4)), 512, [0, 1], [0.1, 0.2, 0.3], EvalConfig())
    assert len(res.cells) == 2 * (3 + 1)


# ---------------------------------------------------------------------------
# cross verification


def _boxes(*centers, side=10.0):
    return np.array([[c[0] - side / 2, c[1] - side / 2, c[0] + side / 2, c[1] + side / 2] for c in centers])


def test_cross_verify_classes():
    a_boxes = _boxes((0, 0), (100, 100))
    b_boxes = _boxes((100, 100), (200, 200))
    dets = global_set(_boxes(
        (0, 0),      # in A only -> known
        (100, 100),  # in both -> known (A precedence)
        (200, 200),  # in B only -> confirmed new
        (500, 500),  # in neither -> unverified
    ))
    rep = cross_verify(dets, a_boxes, b_boxes, EvalConfig(u=0.3))
    assert rep.known == (0, 1)
    assert rep.confirmed_new == (2,)
    assert rep.unverified == (3,)


def test_cross_verify_partition():
    rng = np.random.default_rng(31)
    a_boxes = _boxes(*[(x, 0) for x in range(0, 200, 20)])
    b_boxes = _boxes(*[(x, 100) for x in range(0, 200, 20)])
    dets = global_set([(x, y, x + 10.0, y + 10.0) for x, y in rng.uniform(-20, 220, size=(50, 2))])
    rep = cross_verify(dets, a_boxes, b_boxes, EvalConfig(u=0.3))
    combined = sorted(rep.known + rep.confirmed_new + rep.unverified)
    assert combined == list(range(len(dets)))


# ---------------------------------------------------------------------------
# trend properties on the constructed fixture

from gridfix import build_grid_fixture


@pytest.fixture(scope="module")
def grid_fixture():
    return build_grid_fixture()


def test_recall_monotone_precision_antitone_in_delta(grid_fixture):
    f = grid_fixture
    res = grid_search(
        f.per_patch, f.patch_index, f.gt, f.truth_boxes, f.ps_r,
        [10], [0.1, 0.2, 0.3, 0.4, 0.5], EvalConfig(u=0.3), include_no_nms=False,
    )
    by_delta = sorted((c.delta, c.report) for c in res.cells)
    recalls = [r.recall for _, r in by_delta]
    precisions = [r.precision for _, r in by_delta]
    assert all(r2 >= r1 for r1, r2 in zip(recalls, recalls[1:]))
    assert all(p2 <= p1 for p1, p2 in zip(precisions, precisions[1:]))
