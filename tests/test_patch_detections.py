"""Raw per-patch detections as columns: the mapping detect_patches and
load_detections return, and the pipeline that runs on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craterpipe import postprocess
from craterpipe.detector import DetectorInterface, PatchDetections, load_detections, save_detections
from craterpipe.errors import DetectionError, PipelineError
from craterpipe.evaluate import EvalConfig, grid_search
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import DetectionSet, run_pipeline
from craterpipe.raster import PatchPlacement, PatchSpec
from craterpipe.runner import detect_patches

from conftest import LUNAR_RADIUS, index_of, on_origin, patch_columns
from reference import grid_search_cells, group_by_patch, scalar_pipeline

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
# a transform whose products round, so the order of operations shows in the bits
GT_INEXACT = GeoTransform(x_min=-1234.567, y_max=89.1, resolution=0.7, body_radius=LUNAR_RADIUS)
PS_R = 64
PATCH_IDS = ["r000000_c000000", "r000000_c000064", "r000064_c000000", "r000064_c000064", "r000128_c000000"]
PLACEMENTS = [PatchPlacement(p, int(p[1:7]), int(p[9:]), PatchSpec(128, PS_R)) for p in PATCH_IDS]
PATCH_INDEX = index_of(PLACEMENTS)  # the scalar reference's form of the table

# pixel boxes on a coarse lattice so that boxes of neighbouring patches
# coincide after globalization and score ties are common
_corner = st.integers(0, 60)
_side = st.integers(1, 24)
_score = st.sampled_from([0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def per_patch_detections(draw):
    """A patch id -> [(box, score), ...] dict in unsorted insertion order,
    some patches without rows."""
    ids = draw(st.permutations(PATCH_IDS))[: draw(st.integers(0, len(PATCH_IDS)))]
    out = {}
    for patch_id in ids:
        rows = draw(st.lists(st.tuples(_corner, _corner, _side, _side, _score), max_size=12))
        out[patch_id] = [((x, y, min(x + w, PS_R), min(y + h, PS_R)), s) for x, y, w, h, s in rows]
    return out


def interleaved_columns(per_patch, data):
    """The same rows built as columns on the table in random order, from one
    flat list whose patches are interleaved at random, each patch's rows kept
    in their order."""
    placements = data.draw(st.permutations(PLACEMENTS))
    queues = {p: list(rows) for p, rows in per_patch.items()}
    owners = data.draw(st.permutations([p for p, rows in per_patch.items() for _ in rows]))
    flat = [queues[p].pop(0) for p in owners]
    codes = [[q.patch_id for q in placements].index(p) for p in owners]
    return PatchDetections(placements, codes, [box for box, _ in flat], [score for _, score in flat])


def assert_same_columns(got: PatchDetections, want: PatchDetections):
    assert got.placements == want.placements and got.patches == want.patches
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.patch_ids.tolist() == want.patch_ids.tolist()
    assert got.boxes.tobytes() == want.boxes.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()


def assert_same_set(got: DetectionSet, want: DetectionSet):
    assert got.boxes.tobytes() == want.boxes.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.pixel_boxes.tobytes() == want.pixel_boxes.tobytes()
    assert got.patch_ids.tolist() == want.patch_ids.tolist()


@settings(max_examples=120, deadline=None)
@given(
    per_patch_detections(),
    st.data(),
    st.sampled_from([0, 1, 5]),
    st.sampled_from([None, 0.0, 0.3, 1.0]),
    st.sampled_from([GT, GT_INEXACT]),
)
def test_pipeline_on_columns_equals_pipeline_on_lists(per_patch, data, m, delta, gt):
    columns = interleaved_columns(per_patch, data)
    assert_same_columns(columns, patch_columns(per_patch, PLACEMENTS))
    assert list(columns) == PATCH_IDS
    got = run_pipeline(columns, gt, PS_R, m, delta)
    # the scalar reference on the lists of rows, one detection at a time in sorted patch order
    want = scalar_pipeline(per_patch, PATCH_INDEX, gt, PS_R, m, delta)
    assert_same_set(got, DetectionSet(*zip(*want)) if want else DetectionSet([], [], [], []))


@settings(max_examples=60, deadline=None)
@given(per_patch_detections(), st.data())
def test_save_detections_writes_the_same_bytes_from_both_forms(tmp_path_factory, per_patch, data):
    """Columns built from rows grouped by patch and from rows interleaved
    write the same records, which read back as the same columns."""
    tmp = tmp_path_factory.mktemp("save")
    save_detections(patch_columns(per_patch, PLACEMENTS), tmp / "grouped.csv")
    save_detections(interleaved_columns(per_patch, data), tmp / "interleaved.csv")
    assert (tmp / "grouped.csv").read_bytes() == (tmp / "interleaved.csv").read_bytes()
    back = load_detections(tmp / "interleaved.csv", PLACEMENTS)
    assert_same_columns(back, patch_columns(per_patch, PLACEMENTS))


def test_values_have_a_len_that_builds_no_detection():
    """A lookup gives the range of the patch's row indices into the columns,
    so its len is the patch's row count and reads no row."""
    rows = {"b": [((1.5, 2.0, 3.0, 4.0), 0.25), ((0, 0, 9, 9), 1.0)] * 2}
    columns = patch_columns(rows, on_origin(["c", "b", "a"]))
    assert [len(v) for v in columns.values()] == [0, 4, 0]
    assert list(columns) == list(columns.keys()) == list(dict(columns)) == ["a", "b", "c"]
    rows = columns["b"]
    assert columns.boxes[rows][1].tolist() == [0.0, 0.0, 9.0, 9.0] and columns.scores[rows][2] == 0.25


# ---------------------------------------------------------------------------
# detect_patches: a detector's (boxes, scores) per patch, grouped and checked


class StubDetector(DetectorInterface):
    """Returns the (boxes, scores) it was given for each patch id."""

    def __init__(self, outputs):
        self.outputs = outputs

    def detect(self, patch):
        return self.outputs[patch.patch_id]


_outputs = st.lists(st.tuples(_corner, _corner, _side, _side, _score), max_size=6).map(
    lambda rows: (np.array([(x, y, x + w, y + h) for x, y, w, h, _ in rows], dtype=np.float64).reshape(-1, 4),
                  np.array([s for *_, s in rows], dtype=np.float64))
)


@settings(max_examples=80, deadline=None)
@given(st.permutations(PATCH_IDS), st.lists(_outputs, min_size=len(PATCH_IDS), max_size=len(PATCH_IDS)))
def test_detect_patches_groups_like_the_scalar_reference(tmp_path_factory, patch_ids, outputs):
    """The rows come grouped in sorted patch id order, each row's code naming
    its placement, and the record file they save to loads back onto the same
    table as the same columns."""
    patches = [PatchPlacement(p, int(p[1:7]), int(p[9:]), PatchSpec(128, 128)) for p in patch_ids]
    detector = StubDetector(dict(zip(patch_ids, outputs)))
    want = group_by_patch(patch_ids, outputs)
    for workers in (1, 2):
        got = detect_patches(patches, detector, workers)
        assert got.patches == tuple(sorted(patch_ids))  # patches without rows included
        assert list(zip(got.patch_ids.tolist(), map(tuple, got.boxes.tolist()), got.scores.tolist())) == want
        assert [got.placements[k].patch_id for k in got.codes.tolist()] == got.patch_ids.tolist()
    path = tmp_path_factory.mktemp("dump") / "d.csv"
    save_detections(got, path)
    assert_same_columns(load_detections(path, patches), got)


# ---------------------------------------------------------------------------
# load_detections: the first bad record fails the load with its line number


GOOD = "pA,1.0,2.0,11.0,12.0,0.9"
BAD_RECORDS = [
    ("pA,1.0,2.0,11.0,12.0", "expected 6 fields, got 5"),
    ("pA,1.0,2.0,11.0,12.0,0.9,7", "expected 6 fields, got 7"),
    ("pA,1.0,two,11.0,12.0,0.9", "non-numeric field (could not convert string to float: 'two')"),
    ("pA,9.0,2.0,3.0,12.0,0.9", "degenerate box (9.0, 2.0, 3.0, 12.0) in patch pA"),
    ("pA,1.0,nan,3.0,12.0,0.9", "degenerate box (1.0, nan, 3.0, 12.0) in patch pA"),
    ("pA,-1.0,2.0,3.0,12.0,0.9", "negative coordinates in box (-1.0, 2.0, 3.0, 12.0)"),
    ("pA,1.0,2.0,3.0,12.0,1.5", "score 1.5 outside [0, 1]"),
    ("pA,1.0,2.0,3.0,12.0,nan", "score nan outside [0, 1]"),
    ("pA,1.0,2.0,600.0,12.0,0.9", "box exceeds patch side 512"),
    ("pA,1.0,2.0,3.0,inf,0.9", "non-finite coordinates in box (1.0, 2.0, 3.0, inf)"),
    ("pZ,1.0,2.0,11.0,12.0,0.2", "unknown patch id 'pZ'"),  # below the floor too
]


@pytest.mark.parametrize("record, message", BAD_RECORDS, ids=[m for _, m in BAD_RECORDS])
def test_bad_record_names_its_line(tmp_path, record, message):
    path = tmp_path / "d.csv"
    path.write_text(f"# model output\n{GOOD}\n\n{record}\n{GOOD}\n")
    with pytest.raises(DetectionError) as err:
        load_detections(path, on_origin(["pA"]), score_floor=0.5)
    assert str(err.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("first, second", [(0, 3), (3, 0), (6, 8), (8, 6), (2, 4), (10, 2), (9, 10)])
def test_the_first_bad_record_wins(tmp_path, first, second):
    (rec_a, msg_a), (rec_b, _) = BAD_RECORDS[first], BAD_RECORDS[second]
    path = tmp_path / "d.csv"
    path.write_text(f"{GOOD}\n{rec_a}\n{GOOD}\n{rec_b}\n")
    with pytest.raises(DetectionError) as err:
        load_detections(path, on_origin(["pA"]))
    assert str(err.value) == f"{path}:2: {msg_a}"


def test_score_floor_drops_after_checking(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("pB,1.0,2.0,11.0,12.0,0.2\npA,1.0,2.0,11.0,12.0,0.9\npB,3.0,4.0,13.0,14.0,0.5\n")
    loaded = load_detections(path, on_origin(["pB", "pA"]), score_floor=0.5)
    assert list(loaded) == ["pA", "pB"]
    assert loaded.boxes[loaded["pB"]].tolist() == [[3.0, 4.0, 13.0, 14.0]]
    assert loaded.scores.tolist() == [0.9, 0.5]
    path.write_text("pA,1.0,2.0,11.0,12.0,0.9\npB,9.0,2.0,3.0,12.0,0.2\n")  # bad and below the floor
    with pytest.raises(DetectionError, match=":2: degenerate box"):
        load_detections(path, on_origin(["pA", "pB"]), score_floor=0.5)


@settings(max_examples=60, deadline=None)
@given(per_patch_detections(), st.sampled_from([-1, 0, 5]), st.sampled_from([None, 0.0, 0.3]))
def test_pipeline_rows_name_the_raw_rows(per_patch, m, delta):
    columns = patch_columns(per_patch, PLACEMENTS)
    out = run_pipeline(columns, GT, PS_R, m, delta)
    assert out.rows.dtype == np.intp and np.unique(out.rows).size == len(out)
    assert columns.boxes[out.rows].tobytes() == out.pixel_boxes.tobytes()
    assert columns.scores[out.rows].tobytes() == out.scores.tobytes()
    assert columns.patch_ids[out.rows].tolist() == out.patch_ids.tolist()


# ---------------------------------------------------------------------------
# grid search: every cell against the per-cell scalar reference

_jitter = st.sampled_from([-200.0, 0.0, 200.0])


@st.composite
def truth_near(draw, per_patch, gt):
    """Truth boxes, some copied from the globalized detections and moved by
    a lattice step or not at all, so that IOUs of 1 and near the thresholds
    are common; empty at times."""
    raw = [row.box for row in scalar_pipeline(per_patch, PATCH_INDEX, gt, PS_R, -1, None)]
    boxes = []
    if raw:
        for k, dx, dy, grow in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), _jitter, _jitter,
                                                       st.sampled_from([0.0, 200.0])), max_size=8)):
            x1, y1, x2, y2 = raw[k]
            boxes.append((x1 + dx, y1 + dy, x2 + dx + grow, y2 + dy + grow))
    for i, j, w, h in draw(st.lists(st.tuples(_corner, _corner, _side, _side), max_size=3)):
        boxes.append((200.0 * i, -200.0 * (j + h), 200.0 * (i + w), -200.0 * j))
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


@settings(max_examples=80, deadline=None)
@given(
    per_patch_detections(),
    st.data(),
    st.lists(st.sampled_from([0, 1, 5, 20]), min_size=1, max_size=3),  # unsorted, repeated
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), min_size=1, max_size=3),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([(None, None), (1.0, None), (None, 2.5), (0.5, 3.0)]),
    st.sampled_from([GT, GT_INEXACT]),
)
def test_grid_search_equals_each_cell_run_on_its_own(per_patch, data, m_set, delta_set, no_nms, u, gate, gt):
    """The cells share one truth match per raw row; each cell's counts and
    scores, and the best cell, must equal those of the cell scored alone."""
    truth = data.draw(truth_near(per_patch, gt))
    floor, ceiling = gate
    cfg = EvalConfig(u=u, size_floor_km=floor, size_ceiling_km=ceiling)
    got = grid_search(patch_columns(per_patch, PLACEMENTS), gt, truth, PS_R, m_set, delta_set, cfg, no_nms)
    deltas = delta_set + ([None] if no_nms else [])
    want, best = grid_search_cells(per_patch, PATCH_INDEX, gt, truth, PS_R, m_set, deltas, u, floor, ceiling)
    reports = [c.report for c in got.cells]
    assert [
        (c.m, c.delta, r.tp, r.fp, r.fn, r.fn_raw, r.precision, r.recall, r.f1) for c, r in zip(got.cells, reports)
    ] == want
    assert all(r.n_detections == r.tp + r.fp and r.n_truth == truth.shape[0] for r in reports)
    assert (got.best_m, got.best_delta) == want[best][:2]


@settings(max_examples=60, deadline=None)
@given(
    per_patch_detections(),
    st.lists(st.sampled_from([0, 1, 5, 20]), min_size=1, max_size=4),  # unsorted, repeated
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), min_size=1, max_size=3),
    st.booleans(),
)
def test_grid_search_self_joins_once(per_patch, m_set, delta_set, no_nms):
    """Every cell shares one ranked self-join, made at the smallest positive
    delta and restricted to each m; a delta set of zeros needs none."""
    joins = []
    real = postprocess.overlap_pairs

    def counted(a, b=None, min_iou=0.0):
        if b is None:
            joins.append(min_iou)
        return real(a, b, min_iou)

    truth = np.zeros((0, 4))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(postprocess, "overlap_pairs", counted)
        grid_search(patch_columns(per_patch, PLACEMENTS), GT, truth, PS_R, m_set, delta_set, EvalConfig(), no_nms)
    positive = [d for d in delta_set if d > 0.0]
    assert joins == ([min(positive)] if positive else [])


def _first_cell_error(per_patch, gt, m_set, deltas):
    """The message of the first cell whose run_pipeline raises, run on its own; None if none does."""
    for m in m_set:
        for delta in deltas:
            try:
                run_pipeline(per_patch, gt, PS_R, m, delta)
            except PipelineError as exc:
                return str(exc)
    return None


@pytest.mark.parametrize("m_set", [[0, 5], [20, 0], [20, 5], [5, 1, 0]])
def test_grid_search_fails_as_its_first_failing_cell(m_set):
    """A patch whose one row survives only m = 0 and collapses there fails the
    sweep at the first m = 0 cell, with that cell's message, and no sweep
    without one."""
    inside, near_edge = ((20, 20, 30, 30), 0.5), ((1, 1, 9, 9), 0.9)
    # eastings near 2**65 are 8192 m apart, so the near-edge row's x corners meet
    gt = GeoTransform(x_min=2.0**65, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
    per_patch, deltas = patch_columns({PATCH_IDS[0]: [inside], PATCH_IDS[1]: [near_edge]}, PLACEMENTS), [0.0, 0.3]
    want = _first_cell_error(per_patch, gt, m_set, deltas + [None])
    if 0 not in m_set:
        assert want is None
        grid_search(per_patch, gt, np.zeros((0, 4)), PS_R, m_set, deltas, EvalConfig())
        return
    assert want.startswith("degenerate global box")
    with pytest.raises(PipelineError) as err:
        grid_search(per_patch, gt, np.zeros((0, 4)), PS_R, m_set, deltas, EvalConfig())
    assert str(err.value) == want
