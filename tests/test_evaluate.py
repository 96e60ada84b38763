"""Metrics, size gating, localization, grid search, report files and
cross-verification."""

import csv
import io

import numpy as np
import pytest

from craterpipe import evaluate
from craterpipe.errors import EvalError
from craterpipe.evaluate import (
    EvalConfig,
    cross_verify,
    grid_search,
    localization_stats,
    match_and_count,
    metrics_from_counts,
    size_gate,
    write_metrics,
)
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import filter_and_globalize, run_pipeline

from conftest import LUNAR_RADIUS, global_set, on_origin, pair_iou, patch_columns
from reference import brute_force_metrics, iou, iou_matrix, rasterized_iou

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
NO_DETECTIONS = patch_columns({}, [])


# ---------------------------------------------------------------------------
# iou: the IOU of a pair as overlap_pairs gives it


def test_iou_identical_boxes():
    assert pair_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0


def test_iou_disjoint_boxes():
    assert pair_iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0


def test_iou_hand_case_exact():
    assert pair_iou((0, 0, 10, 10), (5, 5, 15, 15)) == 1.0 / 7.0


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(6)
    for _ in range(300):
        a = rng.uniform(0, 50, size=2)
        b = rng.uniform(0, 50, size=2)
        box_a = (a[0], a[1], a[0] + rng.uniform(1, 30), a[1] + rng.uniform(1, 30))
        box_b = (b[0], b[1], b[0] + rng.uniform(1, 30), b[1] + rng.uniform(1, 30))
        v = pair_iou(box_a, box_b)
        assert v == pair_iou(box_b, box_a)
        assert 0.0 <= v <= 1.0


def test_iou_against_rasterization_sample():
    rng = np.random.default_rng(77)
    for _ in range(25):
        side = rng.uniform(10, 20)
        x, y = rng.uniform(5, 25, size=2)
        dx, dy = rng.uniform(-0.3, 0.3, size=2) * side
        a = (x, y, x + side, y + side)
        b = (x + dx, y + dy, x + dx + side, y + dy + side)
        analytic = pair_iou(a, b)
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


BIG = (0.0, 0.0, 2e200, 2e200)  # its area overflows, so its IOU with its own copy is NaN


def test_u_zero_counts_a_nan_iou_as_no_match_and_no_overlap_as_a_match():
    dets = global_set([BIG, (-50.0, -50.0, -40.0, -40.0)])
    truth, cfg = np.array([BIG]), EvalConfig(u=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        r = match_and_count(dets, truth, cfg)
        rep = cross_verify(dets, truth, truth, cfg)
        loc = localization_stats(dets, truth, cfg)
    assert (r.tp, r.fp, r.fn, r.fn_raw) == (1, 1, 0, 0)
    assert (rep.known, rep.confirmed_new, rep.unverified) == ((1,), (), (0,))
    assert (loc.n_matched, loc.mean_iou_pct) == (1, 0.0)


def test_u_one_matches_only_exact_copies():
    box = (0.0, 0.0, 10.0, 10.0)
    dets = global_set([box, (0.0, 0.0, 10.0, 10.0 + 1e-9), (1.0, 1.0, 9.0, 9.0), BIG, box])
    truth, cfg = np.array([box, BIG]), EvalConfig(u=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        r = match_and_count(dets, truth, cfg)
        rep = cross_verify(dets, truth[1:], truth[:1], cfg)
        loc = localization_stats(dets, truth, cfg)
    assert (r.tp, r.fp, r.fn, r.fn_raw) == (2, 3, 0, 0)
    assert (rep.known, rep.confirmed_new, rep.unverified) == ((), (0, 4), (1, 2, 3))
    assert (loc.n_matched, loc.mean_iou_pct, loc.std_iou_pct) == (2, 100.0, 0.0)


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


def test_equivalent_diameter_is_the_mean_side_in_km():
    dets = global_set([[0.0, 0.0, 4000.0, 6000.0], [-1500.0, 250.0, 500.0, 1250.0]])
    assert dets.diam_km().tolist() == [5.0, 1.5]


@pytest.mark.parametrize("floor, ceiling", [(5.0, 5.0), (6.0, 2.0), (float("nan"), 2.0)])
def test_eval_config_rejects_a_floor_not_below_the_ceiling(floor, ceiling):
    """Such a gate keeps no detection at all."""
    with pytest.raises(EvalError, match="must be below size_ceiling_km"):
        EvalConfig(size_floor_km=floor, size_ceiling_km=ceiling)


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
    per_patch = patch_columns({"p": [((100.0, 100.0, 150.0, 150.0), 0.9)]}, on_origin(["p"]))
    truth = np.array([[10_000.0, -15_000.0, 15_000.0, -10_000.0]])
    res = grid_search(per_patch, GT, truth, 512, [5], [0.3], EvalConfig(u=0.3))
    assert (res.best_m, res.best_delta) == (5, 0.3)
    assert len(res.cells) == 2  # the one delta plus the no-NMS column


def test_grid_search_empty_sets_error():
    with pytest.raises(EvalError, match="non-empty"):
        grid_search(NO_DETECTIONS, GT, np.zeros((0, 4)), 512, [], [0.1], EvalConfig())
    with pytest.raises(EvalError, match="non-empty"):
        grid_search(NO_DETECTIONS, GT, np.zeros((0, 4)), 512, [0], [], EvalConfig())


def test_grid_search_cell_count():
    res = grid_search(NO_DETECTIONS, GT, np.zeros((0, 4)), 512, [0, 1], [0.1, 0.2, 0.3], EvalConfig())
    assert len(res.cells) == 2 * (3 + 1)


def test_grid_search_gates_and_matches_the_rows_alive_at_the_smallest_m_once(grid_fixture, monkeypatch):
    """A sweep size-gates once and matches once against the truth, both over
    the rows alive at the smallest m, and counts each cell from those rows."""
    f, cfg = grid_fixture, EvalConfig(u=0.3, size_floor_km=9.0)
    args = (f.per_patch, f.gt, f.ps_r)
    alive = filter_and_globalize(*args, 0)
    gated = size_gate(alive, cfg)
    assert 0 < len(gated) < len(alive)
    gates, matched = [], []
    real_gate, real_max_ious = evaluate.size_gate, evaluate._max_ious
    monkeypatch.setattr(evaluate, "size_gate", lambda dets, c: gates.append(dets.rows.tolist()) or real_gate(dets, c))
    monkeypatch.setattr(
        evaluate, "_max_ious", lambda dets, t, u: matched.append(dets.rows.tolist()) or real_max_ious(dets, t, u)
    )
    res = grid_search(f.per_patch, f.gt, f.truth_boxes, f.ps_r, [5, 0, 10], [0.2, 0.4], cfg, False)
    assert gates == [alive.rows.tolist()] and matched == [gated.rows.tolist()]
    monkeypatch.undo()
    alone = [match_and_count(size_gate(run_pipeline(*args, c.m, c.delta), cfg), f.truth_boxes, cfg) for c in res.cells]
    assert [(c.m, c.delta) for c in res.cells] == [(m, d) for m in (5, 0, 10) for d in (0.2, 0.4)]
    assert [c.report for c in res.cells] == alone


@pytest.mark.parametrize("m_set, delta_set", [([5, 0, 10], [0.2, 0.4]), ([0, 5, 0, 5], [0.2]), ([5, 0, 10], [0.0])])
def test_grid_search_globalizes_the_smallest_m_once(grid_fixture, monkeypatch, m_set, delta_set):
    """The set merged at the smallest m gives the per-row facts and the one
    self-join; every other m restricts that set, so nothing is merged again."""
    f, merged, real = grid_fixture, [], evaluate.filter_and_globalize
    monkeypatch.setattr(evaluate, "filter_and_globalize", lambda *args: merged.append(args[-1]) or real(*args))
    grid_search(f.per_patch, f.gt, f.truth_boxes, f.ps_r, m_set, delta_set, EvalConfig(u=0.3))
    assert merged == [min(m_set)]


def test_grid_search_counts_a_nan_iou_as_match_and_count_does():
    """A box whose area overflows has a NaN IOU against its own copy in the
    truth. A NaN best IOU is never a TP, and its row is still matched once."""
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=1e198, body_radius=LUNAR_RADIUS)
    # 2e200 m sides, whose area overflows, and 1e18 m sides 1e-180 px inside the patch edge
    rows = {"p": [((100.0, 100.0, 300.0, 300.0), 0.9), ((1e-180, 1e-180, 2e-180, 2e-180), 0.8)]}
    per_patch, cfg = patch_columns(rows, on_origin(["p"])), EvalConfig(u=0.3)
    truth = run_pipeline(per_patch, gt, 512, 0, None).boxes
    matched = []
    real = evaluate._max_ious
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(real(run_pipeline(per_patch, gt, 512, 1, None), truth, cfg.u)).all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluate, "_max_ious", lambda dets, t, u: matched.append(len(dets)) or real(dets, t, u))
            res = grid_search(per_patch, gt, truth, 512, [0, 1, 5], [0.3], cfg)
        alone = [match_and_count(run_pipeline(per_patch, gt, 512, c.m, c.delta), truth, cfg) for c in res.cells]
    assert sum(matched) == 2
    assert [c.report for c in res.cells] == alone
    assert [(c.m, c.report.tp, c.report.n_detections) for c in res.cells[::2]] == [(0, 1, 2), (1, 0, 1), (5, 0, 1)]


# ---------------------------------------------------------------------------
# report files


def test_write_metrics_writes_what_csv_writer_writes(tmp_path):
    extra = {"note, quoted": 'a "b", c', "empty": "", "lines": "x\ny", "n": 7}
    path = tmp_path / "metrics.csv"
    write_metrics(metrics_from_counts(3, 1, 2, 0.3, 4, 5), path, extra=extra)
    with open(path, newline="") as fh:
        header, values = list(csv.reader(fh))
    assert dict(zip(header, values))["f1"] == repr(2 * 0.75 * 0.6 / (0.75 + 0.6))
    assert dict(zip(header[-4:], values[-4:])) == {k: str(v) for k, v in extra.items()}
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([header, values])
    assert path.read_bytes() == expected.getvalue().encode()


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
        f.per_patch, f.gt, f.truth_boxes, f.ps_r,
        [10], [0.1, 0.2, 0.3, 0.4, 0.5], EvalConfig(u=0.3), include_no_nms=False,
    )
    by_delta = sorted((c.delta, c.report) for c in res.cells)
    recalls = [r.recall for _, r in by_delta]
    precisions = [r.precision for _, r in by_delta]
    assert all(r2 >= r1 for r1, r2 in zip(recalls, recalls[1:]))
    assert all(p2 <= p1 for p1, p2 in zip(precisions, precisions[1:]))
